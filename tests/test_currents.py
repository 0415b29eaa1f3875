"""Boundary profiles, Poisson extensions, and integrability of currents.

Frozen oracle values:

* Triangle profile, square-sector weight: ``2 int_0^1 (1-y)(1+y)^{-1/2} dy
  = (16 sqrt 2 - 20)/3`` by elementary calculus.
* Lorentzian profile, same weight: ``2 int_0^inf (1+y^2)^{-1} (1+y)^{-1/2} dy
  = 2.120466584541487433...`` computed independently at 40-digit precision.
* Algebraic profile with exponent 3/2, same weight:
  ``2 int_0^inf (1+y)^{-3/2} (1+y)^{-1/2} dy = 2`` exactly, and exponent
  ``0.3`` against the quarter-sector weight gives ``2/0.05 = 40``.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from leafcurrent.currents import (
    BoundaryProfile,
    CurrentSpec,
    algebraic_profile,
    builtin_currents,
    cauchy_profile,
    chi_weight,
    default_current,
    integrability_mass,
    leaf_density,
    poisson_eval,
    profile_extension,
    triangle_profile,
    zero_profile,
)
from leafcurrent.geometry import normalize_singularity
from leafcurrent.kernels import exp_moment_oracle
from leafcurrent.quadrature import QuadratureError

S2 = normalize_singularity(1, 1j)
S4 = normalize_singularity(1, -1 + 1j)

CHI_CAUCHY_SQUARE = 2.120466584541487433797603


def ones(y):
    return np.ones_like(np.asarray(y, dtype=float))


def test_poisson_of_constant_is_constant():
    for U, V in [(0.0, 1.0), (0.3, 1.7), (-5.0, 0.2)]:
        res = poisson_eval(ones, U, V)
        assert res.value == pytest.approx(1.0, abs=1e-9)


def test_poisson_of_halfline_indicator():
    ind = lambda y: (np.asarray(y, dtype=float) > 0).astype(float)
    assert poisson_eval(ind, 0.0, 2.0, break_points=(0.0,)).value == pytest.approx(0.5, abs=1e-9)
    expect = 0.5 + math.atan(1.0) / math.pi
    assert poisson_eval(ind, 1.0, 1.0, break_points=(0.0,)).value == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (triangle_profile, dict(center=0.2, half_width=1.5, height=0.8)),
        (cauchy_profile, dict(center=0.4, scale=1.3, height=2.0)),
        (algebraic_profile, dict(exponent=1.5)),
    ],
)
def test_closed_form_extension_matches_poisson_integral(factory, kwargs):
    prof = factory(**kwargs)
    for U, V in [(0.0, 1.0), (2.5, 0.3), (-1.0, 4.0), (0.2, 0.05)]:
        closed = float(profile_extension(prof, U, V))
        direct = poisson_eval(
            prof.evaluate, U, V, support_bound=prof.support_bound, break_points=prof.break_points
        ).value
        assert closed == pytest.approx(direct, abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("U, V", [(100.0, 1e-3), (0.3, 1e-6), (-1.0, 1e-6), (7.0, 1e-6), (-30.0, 1e-6)])
def test_poisson_integral_resolves_a_narrow_kernel(U, V):
    # a Poisson kernel far narrower than its distance to 0: the nodes must
    # keep their digits next to the break points U -+ V, and the bisection
    # must stop once the estimate meets the target instead of splitting
    # panels whose rule difference is rounding noise
    prof = cauchy_profile()
    res = poisson_eval(prof.evaluate, U, V, break_points=prof.break_points)
    exact = prof.extension(U, V)
    assert res.evaluations < 100_000
    assert abs(res.value - exact) <= res.error_estimate <= 1e-10 * exact


def test_cauchy_extension_semigroup_form():
    prof = cauchy_profile(center=0.4, scale=1.3, height=2.0)
    U, V = np.array([0.0, 2.5]), np.array([1.0, 0.3])
    got = profile_extension(prof, U, V)
    expect = 2.0 * 1.3 * (1.3 + V) / ((U - 0.4) ** 2 + (1.3 + V) ** 2)
    assert np.allclose(got, expect, rtol=1e-14)


def test_extension_fallback_integrates_the_poisson_kernel():
    closed = cauchy_profile()
    prof = dataclasses.replace(closed, extension=None)
    U = np.array([[-3.0, 0.0, 0.4], [2.5, 10.0, -0.7]])
    V = np.array([[0.05, 1.0, 4.0], [0.3, 2.0, 20.0]])
    got = profile_extension(prof, U, V)
    assert got.shape == U.shape
    np.testing.assert_allclose(got, profile_extension(closed, U, V), rtol=1e-8, atol=0.0)
    scalar = profile_extension(prof, 2.5, 0.3)
    assert type(scalar) is float
    assert scalar == pytest.approx(float(profile_extension(closed, 2.5, 0.3)), rel=1e-8)


def test_algebraic_extension_matches_mpmath_far_from_the_kink():
    mpmath = pytest.importorskip("mpmath")
    prof = algebraic_profile()
    errors = []
    for U, V in ((100.0, 1.0), (1000.0, 10.0)):
        def poisson(y):
            return (1 + abs(y)) ** mpmath.mpf(-1.5) * V / (mpmath.pi * ((y - U) ** 2 + V * V))

        with mpmath.workdps(30):
            ref = float(mpmath.quad(poisson, [-mpmath.inf, 0, U - V, U, U + V, mpmath.inf]))
        errors.append(abs(float(profile_extension(prof, U, V)) - ref) / ref)
    assert max(errors) <= 1e-10


@pytest.mark.parametrize("exponent", [0.7, 1.5, 2.5, 5.0])
def test_algebraic_extension_is_the_poisson_integral(exponent):
    # the hypergeometric identity itself, against mpmath's quadrature of the
    # Poisson integral, at the kink, beside the peak and far out
    mpmath = pytest.importorskip("mpmath")
    prof = algebraic_profile(exponent=exponent, center=0.3)
    for U, V in ((0.3, 1e-4), (1.3, 1e-2), (-30.0, 0.5), (1e4, 1e-2), (-1e7, 1.0)):
        def poisson(y):
            return (1 + abs(y - mpmath.mpf(0.3))) ** -mpmath.mpf(exponent) * V / (
                mpmath.pi * ((y - U) ** 2 + V * V)
            )

        with mpmath.workdps(30):
            pts = sorted({mpmath.mpf(0.3), *map(mpmath.mpf, (U - V, U, U + V))})
            ref = float(mpmath.quad(poisson, [-mpmath.inf, *pts, mpmath.inf]))
        assert float(profile_extension(prof, U, V)) == pytest.approx(ref, rel=1e-8, abs=0.0)


# |U - c| from 0 to 1e7 and V from 1e-4 to 1e3 with |U - c| / V <= 1e7, both signs
EXTREME_GRID = [
    (sign * X, V)
    for X in (0.0, 0.3, 1.0, 3.0, 10.0, 100.0, 200.0, 299.0, 1e3, 1e4, 1e5, 1e6, 1e7)
    for V in (1e-4, 1e-2, 1.0, 10.0, 1e3)
    if X <= 1e7 * V
    for sign in ((1.0, -1.0) if X else (1.0,))
]


def _mp_extension(mp, factory, center=0.0, half_width=1.0, scale=1.0, exponent=1.5, height=1.0):
    """Each family's extension at 40 digits, from the exact Poisson integral."""
    c, h = mp.mpf(center), mp.mpf(height)
    if factory is cauchy_profile:
        s = mp.mpf(scale)
        return lambda U, V: h * s * (s + V) / ((U - c) ** 2 + (s + V) ** 2)
    if factory is algebraic_profile:
        b = mp.mpf(exponent)

        def half_line(w):  # int_1^inf x^-b / (x - w) dx
            if b == int(b):  # elementary; mpmath's 2F1 is slow at integer b
                return -(mp.log(1 - w) + sum(w**k / k for k in range(1, int(b)))) / w ** int(b)
            return mp.hyp2f1(1, b, b + 1, w) / b

        return lambda U, V: h / mp.pi * mp.im(half_line(mp.mpc(1 + U - c, V)) + half_line(mp.mpc(1 - U + c, V)))
    hw = mp.mpf(half_width)
    pieces = ((c - hw, c, h * (1 - c / hw), h / hw), (c, c + hw, h * (1 + c / hw), -h / hw))
    return lambda U, V: sum(
        (al + be * U) * (mp.atan((q - U) / V) - mp.atan((p - U) / V)) / mp.pi
        + be * V / (2 * mp.pi) * mp.log(((q - U) ** 2 + V**2) / ((p - U) ** 2 + V**2))
        for p, q, al, be in pieces
    )


@pytest.mark.parametrize(
    "factory,kwargs,rel",
    [
        (triangle_profile, {}, 1e-10),
        (triangle_profile, dict(center=0.2, half_width=1.5), 1e-10),
        (cauchy_profile, {}, 1e-10),
        (algebraic_profile, {}, 1e-10),
        (algebraic_profile, dict(exponent=0.7), 1e-8),
        (algebraic_profile, dict(exponent=2.5), 1e-8),
        (algebraic_profile, dict(exponent=5.0), 1e-8),
    ],
)
def test_extensions_match_mpmath_on_an_extreme_grid(factory, kwargs, rel):
    # rounding near the boundary (V = 1e-4) and far from the bump (|U - c|/V
    # up to 1e7), where a difference of two nearly equal arctangents or the
    # log of a ratio near 1 would cost the triangle's extension digits
    mpmath = pytest.importorskip("mpmath")
    prof = factory(**kwargs)
    c = kwargs.get("center", 0.0)
    U = np.array([c + X for X, _ in EXTREME_GRID])
    V = np.array([V for _, V in EXTREME_GRID])
    got = profile_extension(prof, U, V)
    with mpmath.workdps(40):
        exact = _mp_extension(mpmath.mp, factory, **kwargs)
        ref = np.array([float(exact(mpmath.mpf(u), mpmath.mpf(v))) for u, v in zip(U, V)])
    np.testing.assert_allclose(got, ref, rtol=rel, atol=0.0)


def test_extensions_satisfy_mean_value_property():
    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    for prof in (triangle_profile(0.2, 1.5, 0.8), cauchy_profile(), algebraic_profile(1.5)):
        U0, V0, rad = 0.5, 1.2, 0.6
        ring = profile_extension(prof, U0 + rad * np.cos(theta), V0 + rad * np.sin(theta))
        center = float(profile_extension(prof, U0, V0))
        assert center == pytest.approx(float(np.mean(ring)), abs=1e-8)


def test_extension_attains_boundary_values():
    prof = triangle_profile()
    assert float(profile_extension(prof, 0.0, 1e-6)) == pytest.approx(1.0, abs=1e-4)
    prof = cauchy_profile()
    assert float(profile_extension(prof, 1.0, 1e-9)) == pytest.approx(0.5, abs=1e-8)


def test_extension_positive_and_bounded_by_sup():
    rng = np.random.default_rng(3)
    U = rng.uniform(-20, 20, 100)
    V = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 100))
    for prof, sup in [
        (triangle_profile(), 1.0),
        (cauchy_profile(), 1.0),
        (algebraic_profile(1.5), 1.0),
    ]:
        vals = profile_extension(prof, U, V)
        assert np.all(vals > 0.0)
        assert np.all(vals <= sup + 1e-12)


def test_chi_weight_square_sector():
    y = np.array([0.0, 3.0, -3.0, 99.0])
    assert chi_weight(S2, y) == pytest.approx((1.0 + np.abs(y)) ** (-0.5), rel=1e-15)


def test_chi_mass_triangle_closed_form():
    rep = integrability_mass(builtin_currents(S2)["triangle"], S2)
    exact = (16.0 * math.sqrt(2.0) - 20.0) / 3.0
    assert rep.converged
    assert rep.chi_mass == pytest.approx(exact, abs=1e-10)


def test_chi_mass_cauchy_frozen_value():
    rep = integrability_mass(builtin_currents(S2)["cauchy"], S2)
    assert rep.converged
    assert rep.chi_mass == pytest.approx(CHI_CAUCHY_SQUARE, abs=1e-9)


def test_chi_mass_algebraic_closed_forms():
    rep = integrability_mass(builtin_currents(S2)["algebraic"], S2)
    assert rep.converged
    assert rep.chi_mass == pytest.approx(2.0, abs=1e-9)
    rep = integrability_mass(default_current(S4, algebraic_profile(exponent=0.3)), S4)
    assert rep.converged
    assert rep.chi_mass == pytest.approx(40.0, abs=1e-7)


def test_chi_mass_slow_tail_fails_loudly():
    # exponent 1/gamma + 0.03 leaves 2 DBL_MAX^-0.03 / 0.03 = 3.8e-8 of the mass
    # 2/0.03 past the double range, above the default target of 6.7e-9
    with pytest.raises(QuadratureError) as exc:
        integrability_mass(default_current(S4, algebraic_profile(exponent=1.0 / S4.gamma + 0.03)), S4)
    assert abs(exc.value.best.value - 2.0 / 0.03) <= exc.value.best.error_estimate


def test_one_dimensional_quadratures_raise_no_warnings():
    # the tail chart sends nodes up to |y| ~ 1e308; no integrand of the
    # library may overflow there, and nodes past the double range are dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poisson_eval(ones, 0.3, 0.7).value == pytest.approx(1.0, abs=1e-9)
        assert poisson_eval(cauchy_profile().evaluate, 0.5, 2.0).value == pytest.approx(
            cauchy_profile().extension(0.5, 2.0), abs=1e-9
        )
        for name in ("triangle", "cauchy", "algebraic"):
            assert integrability_mass(builtin_currents(S4)[name], S4).converged
        assert exp_moment_oracle(3.0) == pytest.approx(1.75, abs=1e-12)


def test_chi_mass_zero_current():
    rep = integrability_mass(builtin_currents(S2)["zero"], S2)
    assert rep.chi_mass == 0.0
    assert rep.converged


def test_slow_decay_marks_divergence():
    # exponent 0.3 <= 1/gamma = 1/2: only a windowed lower bound is reported
    rep = integrability_mass(default_current(S2, algebraic_profile(exponent=0.3)), S2, window=1e4)
    assert not rep.converged
    assert rep.window == 1e4
    bigger = integrability_mass(default_current(S2, algebraic_profile(exponent=0.3)), S2, window=1e5)
    assert bigger.chi_mass > rep.chi_mass  # truly divergent: grows with the window


def test_chi_mass_linear_in_weights_and_atoms():
    tp, cp = triangle_profile(), cauchy_profile()
    two = CurrentSpec(atoms=(0.1, 0.2), profiles=(tp, cp), weights=(2.0, 3.0))
    a = integrability_mass(CurrentSpec(atoms=(0.1,), profiles=(tp,), weights=(2.0,)), S2)
    b = integrability_mass(CurrentSpec(atoms=(0.2,), profiles=(cp,), weights=(3.0,)), S2)
    both = integrability_mass(two, S2)
    assert both.chi_mass == pytest.approx(a.chi_mass + b.chi_mass, rel=1e-10)
    y = np.linspace(-3, 3, 11)
    assert np.allclose(two.aggregate_boundary(y), 2.0 * tp.evaluate(y) + 3.0 * cp.evaluate(y))


def test_effective_profiles_merge_shared_identity():
    cp = cauchy_profile()
    spec = CurrentSpec(atoms=(0.1, 0.2, 0.3), profiles=(cp, cp, triangle_profile()), weights=(1.0, 2.0, 4.0))
    merged = spec.effective_profiles()
    assert len(merged) == 2
    weights = {prof.label: w for prof, w in merged}
    assert weights["cauchy"] == 3.0
    assert weights["triangle"] == 4.0


def test_leaf_density_composes_power_map():
    spec = builtin_currents(S2)["cauchy"]
    # (1+i)^2 = 2i, so the density equals the extension at (0, 2)
    got = float(leaf_density(spec, S2, 0, 1.0 + 1.0j))
    expect = float(profile_extension(cauchy_profile(), 0.0, 2.0))
    assert got == pytest.approx(expect, rel=1e-12)


def test_default_current_uses_mid_annulus_atom():
    spec = default_current(S2)
    assert spec.atoms == (complex(math.exp(-math.pi)),)
    spec.validate_against(S2)
    for spec in builtin_currents(S4).values():
        spec.validate_against(S4)


def test_validation_rejections():
    tp, cp = triangle_profile(), cauchy_profile()
    with pytest.raises(ValueError):
        CurrentSpec(atoms=(), profiles=())
    with pytest.raises(ValueError):
        CurrentSpec(atoms=(0.5,), profiles=(tp, cp))
    with pytest.raises(ValueError):
        CurrentSpec(atoms=(0.5,), profiles=(tp,), weights=(-1.0,))
    with pytest.raises(ValueError):
        CurrentSpec(atoms=(0j,), profiles=(tp,))
    with pytest.raises(ValueError):
        CurrentSpec(atoms=(1.5 + 0j,), profiles=(cp,)).validate_against(S2)
    with pytest.raises(ValueError):
        BoundaryProfile(label="", evaluate=lambda y: np.ones_like(y), decay_exponent=1.0)
    with pytest.raises(ValueError):
        BoundaryProfile(
            label="neg",
            evaluate=lambda y: -np.ones_like(np.asarray(y, dtype=float)),
            decay_exponent=1.0,
        )
    with pytest.raises(ValueError):
        # declared decay faster than the actual tail is rejected by sampling
        BoundaryProfile(
            label="overdeclared",
            evaluate=lambda y: (1.0 + np.abs(np.asarray(y, dtype=float))) ** -1.0,
            decay_exponent=2.0,
        )
    with pytest.raises(ValueError):
        triangle_profile(half_width=0.0)
    with pytest.raises(ValueError):
        cauchy_profile(scale=-1.0)
    with pytest.raises(ValueError):
        algebraic_profile(exponent=0.0)
    with pytest.raises(ValueError):
        poisson_eval(ones, 0.0, -1.0)
