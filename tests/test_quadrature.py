"""Certified-quadrature tests against closed-form integrals.

Every expected value below has an independent derivation:

* ``int_{s0}^inf x e^{2 s0 - 2 x} dx = s0/2 + 1/4`` (integration by parts).
* ``int_0^pi sin = 2``.
* For ``f(t, v) = e^{2 - 2 min(t,v)} e^{-t-v}`` on ``{min(t,v) >= 1}``,
  symmetry in (t, v) gives ``2 e^2 int_1^inf e^{-4t} dt = e^{-2}/2``.
* For ``f(t, v) = e^{2 - 2 min(t,v)} / max(t,v)^3`` the same split gives
  ``e^2 int_1^inf e^{-2t} t^{-2} dt = e^2 E_2(2)`` with the standard
  exponential integral ``E_2``.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expn

from leafcurrent.quadrature import (
    DecayDescriptor,
    QuadratureError,
    Tolerance,
    _truncate_corner,
    integrate_1d,
    integrate_2d,
)

TIGHT = Tolerance(rel_tol=1e-10, abs_tol=1e-12, max_evals=2_000_000)
TOL_2D = Tolerance(rel_tol=1e-9, abs_tol=1e-11, max_evals=4_000_000)
EXP_DECAY = DecayDescriptor(exp_rate=1.5, alg_rate=2.5)


@pytest.mark.parametrize("s0", [1.0, 2.0, 10.0])
def test_exponential_moment_closed_form(s0):
    res = integrate_1d(lambda x: x * np.exp(2 * s0 - 2 * x), s0, math.inf, tol=TIGHT)
    assert res.value == pytest.approx(s0 / 2 + 0.25, abs=1e-8)
    assert res.error_estimate < 1e-8
    assert abs(res.value - (s0 / 2 + 0.25)) <= res.error_estimate


def test_sine_arch():
    res = integrate_1d(np.sin, 0.0, math.pi, tol=TIGHT)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert abs(res.value - 2.0) <= res.error_estimate


def test_break_points_kink():
    res = integrate_1d(np.abs, -1.0, 1.0, tol=TIGHT, break_points=[0.0])
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert abs(res.value - 1.0) <= res.error_estimate


def test_cauchy_density_normalizes():
    # int_R  V / (V^2 + (y - U)^2) dy / pi = 1 for any V > 0
    U, V = 0.7, 2.3

    def f(y):
        r = np.hypot(y - U, V)
        return (V / r) / r / math.pi

    res = integrate_1d(f, -math.inf, math.inf, tol=TIGHT, break_points=[U])
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert abs(res.value - 1.0) <= res.error_estimate


@pytest.mark.parametrize("a, b, sign", [(0.0, math.inf, 1.0), (-math.inf, 0.0, -1.0)])
def test_slow_algebraic_tail(a, b, sign):
    # int_0^inf (1 + x)^-1.05 dx = 1/0.05: the tail chart x = expm1((1-w)/w)
    # still resolves a tail this slow, on either half-line
    res = integrate_1d(lambda x: (1.0 + sign * x) ** -1.05, a, b, tol=TIGHT)
    assert abs(res.value - 20.0) <= res.error_estimate <= 1e-9


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-6, 1e-4])
def test_tail_mass_past_the_double_range_is_in_the_estimate(rel_tol):
    # int_0^inf (1 + x)^-1.03 dx = 1/0.03, of which 1.9e-8 lies past x = DBL_MAX
    # where the chart drops its nodes: the estimate covers it, and a target
    # below it raises (1e-8 relative is 3.3e-7 here)
    tol = Tolerance(rel_tol=rel_tol, abs_tol=1e-10)
    try:
        res = integrate_1d(lambda x: (1.0 + x) ** -1.03, 0.0, math.inf, tol=tol)
    except QuadratureError as exc:
        res = exc.best
    assert abs(res.value - 1.0 / 0.03) <= res.error_estimate


def test_1d_evaluations_count_the_points_received():
    received = []

    def f(x):
        received.append(x)
        return (1.0 + x) ** -1.05

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_1d(f, 0.0, math.inf, tol=TIGHT)
    points = np.concatenate(received)
    assert res.evaluations == points.size
    # the tail chart reaches far up the double range; the nodes past it were
    # not passed on, so the count is not a whole number of 40-node panels
    assert np.isfinite(points).all() and points.max() > 1e250
    assert res.evaluations % 40 != 0


def test_1d_budget_exhaustion_raises_with_best_estimate():
    def f(x):
        return 1e-3 / (1e-6 + (x - 0.3) ** 2)

    with pytest.raises(QuadratureError, match="budget") as exc:
        integrate_1d(f, 0.0, 1.0, tol=Tolerance(rel_tol=1e-10, abs_tol=1e-12, max_evals=100))
    best = exc.value.best
    assert best.evaluations > 100
    assert best.value > 0.0 and best.error_estimate > 0.0


def test_1d_nan_integrand_fails_fast():
    def f(x):
        return np.where((x > 0.3) & (x < 0.4), np.nan, np.sin(x))

    with pytest.raises(ValueError, match="non-finite"):
        integrate_1d(f, 0.0, 1.0, tol=TIGHT)


def test_2d_exponential_closed_form():
    sizes = []

    def f(t, v):
        sizes.append(np.size(t))
        return np.exp(2.0 - 2.0 * np.minimum(t, v)) * np.exp(-t - v)

    res = integrate_2d(f, 1.0, EXP_DECAY, TOL_2D)
    exact = math.exp(-2.0) / 2.0
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert abs(res.value - exact) <= 10 * max(res.error_estimate, 1e-12)
    # panels are scored in stacks of at most 16 (16 x 320 points per call)
    assert max(sizes) <= 5120
    assert sum(sizes) == res.evaluations


def test_2d_algebraic_closed_form():
    def f(t, v):
        return np.exp(2.0 - 2.0 * np.minimum(t, v)) / np.maximum(t, v) ** 3

    res = integrate_2d(f, 1.0, DecayDescriptor(exp_rate=1.9, alg_rate=3.0), TOL_2D)
    exact = math.exp(2.0) * expn(2, 2)
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_2d_zero_integrand():
    res = integrate_2d(lambda t, v: np.zeros_like(t), 1.0, EXP_DECAY, TOL_2D)
    assert res.value == 0.0
    assert res.error_estimate == 0.0


def test_2d_error_estimate_covers_tail_truncation():
    # Halving the requested tolerance must not move the value by more than
    # the certified error estimate of the looser run.
    def f(t, v):
        m = np.minimum(t, v)
        return np.exp(2.0 - 2.0 * m) / (1.0 + np.maximum(t, v)) ** 2.5

    loose = integrate_2d(f, 1.0, DecayDescriptor(exp_rate=1.9, alg_rate=2.5), Tolerance(1e-6, 1e-8, 4_000_000))
    tight = integrate_2d(f, 1.0, DecayDescriptor(exp_rate=1.9, alg_rate=2.5), Tolerance(1e-8, 1e-10, 4_000_000))
    assert abs(loose.value - tight.value) <= loose.error_estimate + tight.error_estimate


def test_budget_exhaustion_raises_with_best_estimate():
    def f(t, v):
        return np.exp(2.0 - 2.0 * np.minimum(t, v)) * np.exp(-t - v)

    with pytest.raises(QuadratureError) as exc:
        integrate_2d(f, 1.0, EXP_DECAY, Tolerance(rel_tol=1e-14, abs_tol=1e-16, max_evals=3000))
    best = exc.value.best
    assert best is not None
    assert best.value == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-2)


@pytest.mark.parametrize("target, levels", [(1e-4, 9), (1e-10, 22), (1e-16, 36)])
def test_truncation_probe_calls_the_integrand_once_per_doubling_level(target, levels):
    shapes = []

    def f(t, v):
        shapes.append(np.shape(t))
        return np.exp(2.0 - 2.0 * np.minimum(t, v)) / (1.0 + np.maximum(t, v)) ** 2.5

    m_cut, x_cut, tail_exp, tail_alg = _truncate_corner(
        f, 1.0, DecayDescriptor(exp_rate=1.9, alg_rate=2.5), target, 11.0, 12.0
    )
    assert x_cut == 12.0 * 2.0 ** (levels - 1)
    # each call samples both orientations: 2 x 12 depths x 14 maxima
    assert shapes == [(24, 14)] * levels
    assert tail_alg <= 0.25 * target and tail_exp <= 0.25 * target


def test_nan_integrand_fails_fast():
    calls = []

    def f(t, v):
        calls.append(np.size(t))
        out = np.exp(2.0 - 2.0 * np.minimum(t, v)) * np.exp(-t - v)
        return np.where((t > 3.0) & (t < 4.0), np.nan, out)

    # a programming fault, not a budget shortfall: neither a QuadratureError
    # nor a refinement that splits every panel until the budget is gone
    with pytest.raises(ValueError, match="non-finite"):
        integrate_2d(f, 1.0, EXP_DECAY, Tolerance(rel_tol=1e-8, abs_tol=1e-10, max_evals=2_000_000))
    assert sum(calls) < 100_000


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_tol=-1e-8)
    with pytest.raises(ValueError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(max_evals=10)
    with pytest.raises(ValueError):
        DecayDescriptor(exp_rate=0.0, alg_rate=2.0)
    with pytest.raises(ValueError):
        DecayDescriptor(exp_rate=1.0, alg_rate=1.0)
