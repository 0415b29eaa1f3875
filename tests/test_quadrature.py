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
    res = integrate_1d(lambda x: x * math.exp(2 * s0 - 2 * x), s0, math.inf, tol=TIGHT)
    assert res.value == pytest.approx(s0 / 2 + 0.25, abs=1e-8)
    assert res.error_estimate < 1e-8


def test_sine_arch():
    res = integrate_1d(math.sin, 0.0, math.pi, tol=TIGHT)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_break_points_kink():
    res = integrate_1d(abs, -1.0, 1.0, tol=TIGHT, break_points=[0.0])
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_cauchy_density_normalizes():
    # int_R  V / (V^2 + (y - U)^2) dy / pi = 1 for any V > 0
    U, V = 0.7, 2.3

    def f(y):
        return V / (V * V + (y - U) ** 2) / math.pi

    res = integrate_1d(f, -math.inf, math.inf, tol=TIGHT, break_points=[U])
    assert res.value == pytest.approx(1.0, abs=1e-9)


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
