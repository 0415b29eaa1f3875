"""Tests for the decay-kernel layer.

Oracles used here, in order of authority:

* Closed form at ratio ``i`` (``gamma = 2``), centre line ``y = 0``: the
  square map turns the kernel integrand into an exact exponential integral,
  ``K_s(0) = e^{2s} E_1(2s)``.  The identity behind it:
  ``(t^2 - v^2)^2 + 4 t^2 v^2 = (t^2 + v^2)^2``, after which the inner
  integral is elementary.  Frozen decimals below were evaluated through
  ``scipy.special.exp1`` at 15 significant digits.
* Dense midpoint Riemann sum with Richardson extrapolation in the step and
  an analytic strip correction for the truncated tails, valid for the same
  ratio at any ``y``.  Entirely independent of the adaptive panel code path.
* The strip-crossing equation at ``gamma = 2`` is quadratic, so the crossing
  has the closed form ``sqrt(y + v^2)``, exact in double precision.
"""

import math

import numpy as np
import pytest

from leafcurrent import kernels
from leafcurrent.geometry import normalize_singularity, power_polar
from leafcurrent.kernels import (
    REGIMES,
    EmptyRegimeError,
    NoRootError,
    RegimeThresholds,
    bound_envelope,
    case_decay_slope,
    classify_regime,
    exp_moment_oracle,
    kernel_K,
    kernel_report,
    kernel_uv_form,
    poisson_density,
    power_real_residual,
    regime_comparator,
    regime_constant_sampler,
    rho_solver,
    scale_factor,
)
from leafcurrent.quadrature import QuadratureError, QuadResult, Tolerance

RATIO_SQUARE = normalize_singularity(1, 1j)  # gamma = 2
RATIO_SHALLOW = normalize_singularity(1, 1 + 1j)  # gamma = 4/3
RATIO_STEEP = normalize_singularity(1, -1 + 1j)  # gamma = 4

# e^{2s} E_1(2s) at s = 1, 2, 4, 8 (scipy.special.exp1, 15 digits)
EXP_INTEGRAL_VALUES = {
    1.0: 0.361328616888223,
    2.0: 0.206345649901056,
    4.0: 0.112279639253499,
    8.0: 0.0590081036085564,
}


# ---------------------------------------------------------------------------
# Closed-form and dense-grid oracles
# ---------------------------------------------------------------------------


def test_exp_moment_oracle_closed_form():
    for s0 in (1.0, 2.0, 10.0):
        assert abs(exp_moment_oracle(s0) - (s0 / 2.0 + 0.25)) <= 1e-8


def test_exp_moment_oracle_rejects_small_start():
    with pytest.raises(ValueError):
        exp_moment_oracle(0.5)


def test_kernel_matches_exponential_integral():
    for s, expected in EXP_INTEGRAL_VALUES.items():
        got = kernel_K(RATIO_SQUARE, s, 0.0)
        assert got.value == pytest.approx(expected, rel=1e-6)
        # the attached error estimate must be honest (cover the true error)
        assert abs(got.value - expected) <= 5.0 * got.error_estimate + 1e-12


def test_kernel_matches_dense_riemann_sum():
    """Midpoint Riemann + Richardson + analytic strip tails, ratio i, y = 5.

    The truncated strips ``{t > T}`` and ``{v > T}`` each contribute
    ``int e^{2s-2v} v/(T^2+v^2) dv ~ (s/2 + 1/4)/T^2`` at this ratio, so the
    correction is ``2 (s/2 + 1/4)/T^2`` up to ``O(y^2/T^4)``.
    """
    s, y, T = 1.0, 5.0, 60.0

    def riemann(h: float) -> float:
        n = int(round((T - s) / h))
        grid = s + (np.arange(n) + 0.5) * h
        total = 0.0
        for i0 in range(0, n, 600):
            tt = grid[i0 : i0 + 600][:, None]
            vv = grid[None, :]
            U, V = power_polar(tt + 1j * vv, 2.0)
            w = np.exp(2.0 * s - 2.0 * np.minimum(tt, vv))
            total += float(np.sum(w * V / (V * V + (y - U) ** 2)))
        return total * h * h

    coarse, fine = riemann(0.05), riemann(0.025)
    oracle = (4.0 * fine - coarse) / 3.0 + 2.0 * (s / 2.0 + 0.25) / T**2
    got = kernel_K(RATIO_SQUARE, s, y)
    assert got.value == pytest.approx(oracle, rel=5e-5)
    assert got.value == pytest.approx(0.283092839704, rel=1e-5)


# Regression pins at the configuration's tolerance, from the heap-based panel
# refinement that preceded round-based refinement: value and evaluation count.
CONFIG_TOL = Tolerance(rel_tol=1e-8, abs_tol=1e-10, max_evals=2_000_000)
PINNED_KERNEL = [
    (RATIO_SQUARE, 1.0, 0.0, 0.36132861651663034, 581712),
    (RATIO_SQUARE, 8.0, 10.0, 0.058949520492463006, 337872),
    (RATIO_SHALLOW, 64.0, -1000.0, 0.16315855091063736, 153408),
    (RATIO_STEEP, 8.0, 10.0, 3.867243666390427e-05, 54192),
]


@pytest.mark.parametrize("sing, s, y, value, evaluations", PINNED_KERNEL)
def test_kernel_matches_pinned_values(sing, s, y, value, evaluations):
    got = kernel_K(sing, s, y, CONFIG_TOL)
    assert got.value == pytest.approx(value, rel=1e-12)
    assert got.evaluations <= evaluations


# Bitwise pins of the explicit-tolerance path on the kernel-sweep cells (3
# ratios x s in {1, 8, 64} x y in {0, 10, -1000}): value, error estimate and
# evaluation count.  A rewrite of the truncation probe or of the integrand's
# arithmetic that is meant to be exact must not move a bit.
BITWISE_KERNEL = [
    (RATIO_SQUARE, 1.0, 0.0, 0.36132861651663073, 3.6173778043111635e-09, 581712),
    (RATIO_SQUARE, 1.0, 10.0, 0.22511528329517966, 2.25250369323415e-09, 403792),
    (RATIO_SQUARE, 1.0, -1000.0, 0.024833304306186632, 2.444869009455715e-10, 95312),
    (RATIO_SQUARE, 8.0, 0.0, 0.05900810354394558, 6.146030496989221e-10, 337872),
    (RATIO_SQUARE, 8.0, 10.0, 0.05894952049246304, 6.123959200537147e-10, 337872),
    (RATIO_SQUARE, 8.0, -1000.0, 0.02442657334683567, 2.6434212385138873e-10, 143952),
    (RATIO_SQUARE, 64.0, 0.0, 0.007752396827652411, 9.188791514948761e-11, 182352),
    (RATIO_SQUARE, 64.0, 10.0, 0.007752394586253527, 9.188781248488503e-11, 182352),
    (RATIO_SQUARE, 64.0, -1000.0, 0.007730161204405299, 9.085302520638405e-11, 182352),
    (RATIO_SHALLOW, 1.0, 0.0, 0.9121958922479628, 9.106412201074529e-09, 626336),
    (RATIO_SHALLOW, 1.0, 10.0, 0.6244003718236584, 6.1637314045642836e-09, 248096),
    (RATIO_SHALLOW, 1.0, -1000.0, 0.14851276554624412, 1.263388807439511e-09, 125856),
    (RATIO_SHALLOW, 8.0, 0.0, 0.5023685672126997, 5.021592171806225e-09, 363968),
    (RATIO_SHALLOW, 8.0, 10.0, 0.47909817007966626, 4.790887048646932e-09, 306368),
    (RATIO_SHALLOW, 8.0, -1000.0, 0.1502568269710481, 1.3339244076234047e-09, 131648),
    (RATIO_SHALLOW, 64.0, 0.0, 0.25546958283991267, 2.552985995000973e-09, 213568),
    (RATIO_SHALLOW, 64.0, 10.0, 0.2549103126993741, 2.5744347794145567e-09, 211008),
    (RATIO_SHALLOW, 64.0, -1000.0, 0.16315855091063747, 1.6524658384808982e-09, 153408),
    (RATIO_STEEP, 1.0, 0.0, 0.01039067089735136, 1.2146234529237106e-10, 502192),
    (RATIO_STEEP, 1.0, 10.0, 0.009890491436518519, 1.164770369871972e-10, 495792),
    (RATIO_STEEP, 1.0, -1000.0, 0.0017810877300607664, 6.677220214186336e-11, 203312),
    (RATIO_STEEP, 8.0, 0.0, 3.8672997200162836e-05, 6.924934294685225e-11, 54192),
    (RATIO_STEEP, 8.0, 10.0, 3.867243666390426e-05, 6.92476829017299e-11, 54192),
    (RATIO_STEEP, 8.0, -1000.0, 3.872849538721417e-05, 6.941388813420568e-11, 54192),
    (RATIO_STEEP, 64.0, 0.0, 8.698390662472807e-08, 1.346240932056561e-11, 32736),
    (RATIO_STEEP, 64.0, 10.0, 8.698390626489207e-08, 1.346240927210692e-11, 32736),
    (RATIO_STEEP, 64.0, -1000.0, 8.698394260823084e-08, 1.346241416719646e-11, 32736),
]


@pytest.mark.parametrize("sing, s, y, value, error, evaluations", BITWISE_KERNEL)
def test_kernel_explicit_tolerance_is_bitwise_pinned(sing, s, y, value, error, evaluations):
    got = kernel_K(sing, s, y, CONFIG_TOL)
    assert (got.value, got.error_estimate, got.evaluations) == (value, error, evaluations)


def _count_passes(monkeypatch):
    counts = []
    real = kernels.integrate_2d

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(kernels, "integrate_2d", counted)
    return counts


def test_kernel_default_is_one_pass(monkeypatch):
    counts = _count_passes(monkeypatch)
    got = kernel_K(RATIO_SQUARE, 2.0, 10.0)
    assert len(counts) == 1
    assert got.evaluations == counts[0]
    assert got.error_estimate <= 2e-6 * got.value


def test_kernel_default_takes_a_second_pass_when_the_envelope_overshoots(monkeypatch):
    # an envelope 1e4 times too large puts the first pass's absolute floor
    # above 1e-6 K, so a second pass must restore the relative target
    plain = kernel_K(RATIO_SQUARE, 2.0, 10.0)
    counts = _count_passes(monkeypatch)
    real_envelope = kernels.bound_envelope
    monkeypatch.setattr(kernels, "bound_envelope", lambda *args: 1e4 * real_envelope(*args))
    got = kernel_K(RATIO_SQUARE, 2.0, 10.0)
    assert len(counts) == 2
    assert got.evaluations == sum(counts)
    assert got.value == pytest.approx(plain.value, rel=1e-6)
    assert got.error_estimate <= 2e-6 * got.value


def test_kernel_two_coordinate_routes_agree():
    cases = [
        (RATIO_SQUARE, 1.0, 0.0),
        (RATIO_SQUARE, 4.0, 100.0),
        (RATIO_SHALLOW, 4.0, 100.0),
        (RATIO_SHALLOW, 2.0, -30.0),
        (RATIO_STEEP, 1.0, 0.0),
        (RATIO_STEEP, 8.0, 1000.0),
    ]
    for sing, s, y in cases:
        panel = kernel_K(sing, s, y).value
        nested = kernel_uv_form(sing, s, y)
        assert nested == pytest.approx(panel, rel=1e-5)


def test_kernel_even_in_height_for_vertical_ratio():
    # ratio i swaps the two separatrices under reflection, so the kernel is
    # even in y
    for y in (10.0, 100.0):
        plus = kernel_K(RATIO_SQUARE, 2.0, y).value
        minus = kernel_K(RATIO_SQUARE, 2.0, -y).value
        assert plus == pytest.approx(minus, rel=1e-6)


def test_kernel_tighter_tolerance_is_consistent():
    base = kernel_K(RATIO_STEEP, 2.0, 10.0)
    tight = kernel_K(
        RATIO_STEEP,
        2.0,
        10.0,
        tol=Tolerance(rel_tol=1e-8, abs_tol=1e-10 * base.value, max_evals=20_000_000),
    )
    assert tight.value == pytest.approx(base.value, rel=1e-6)


def test_kernel_requires_positive_start():
    with pytest.raises(ValueError):
        kernel_K(RATIO_SQUARE, 0.0, 1.0)
    with pytest.raises(ValueError):
        kernel_uv_form(RATIO_SQUARE, -1.0, 1.0)


@pytest.mark.parametrize("s, y", [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)])
def test_kernel_rejects_non_finite_inputs(monkeypatch, s, y):
    # rejected before any quadrature: unchecked, an infinite depth exhausts
    # the evaluation budget and surfaces as a failed cell, an infinite height
    # gives 0.0 and a NaN height a misleading tolerance error
    counts = _count_passes(monkeypatch)
    with pytest.raises(ValueError, match="finite"):
        kernel_K(RATIO_SQUARE, s, y)
    with pytest.raises(ValueError, match="finite"):
        kernel_K(RATIO_SQUARE, s, y, CONFIG_TOL)
    assert counts == []


# ---------------------------------------------------------------------------
# Envelope and report
# ---------------------------------------------------------------------------


def test_bound_envelope_two_pieces():
    sing = RATIO_SQUARE
    # small s: the min(...) clamps at one
    assert bound_envelope(sing, 1.0, 99.0) == pytest.approx((1.0 + 99.0) ** (-0.5))
    # large s: algebraic decay (Y/s)^{gamma-1} kicks in
    y, s = 99.0, 100.0
    Y = 10.0
    expected = (1.0 + y) ** (-0.5) * (Y / s)
    assert bound_envelope(sing, s, y) == pytest.approx(expected)


def test_kernel_report_bounded_constant():
    report = kernel_report(
        RATIO_SQUARE, s_grid=(1.0, 4.0, 16.0, 64.0), y_grid=(0.0, -10.0, 10.0, 1000.0)
    )
    assert not report.failed_cells
    assert 0.05 < report.empirical_c < 10.0
    assert all(c.K > 0.0 for c in report.cells)


def test_kernel_report_refinement_drift_small():
    report = kernel_report(RATIO_SQUARE, s_grid=(2.0, 8.0), y_grid=(0.0, 100.0), refine=True)
    assert report.refinement_drift is not None
    assert report.refinement_drift < 0.10
    assert report.refined_empirical_c is not None


def test_kernel_report_flags_quadrature_failures_and_raises_bugs(monkeypatch):
    def fake_kernel(sing, s, y, tol=None):
        if y == 10.0:
            raise QuadratureError("budget gone", best=QuadResult(0.0, 1.0, 100))
        return QuadResult(1.0, 1e-9, 100)

    monkeypatch.setattr("leafcurrent.kernels.kernel_K", fake_kernel)
    report = kernel_report(RATIO_SQUARE, s_grid=(2.0,), y_grid=(0.0, 10.0))
    (failed,) = report.failed_cells
    assert (failed.y, failed.ok, failed.message) == (10.0, False, "budget gone")
    assert math.isnan(failed.K)
    assert failed.evaluations == 100  # the failed call's spent budget

    def broken_kernel(sing, s, y, tol=None):
        raise TypeError("programming error")

    monkeypatch.setattr("leafcurrent.kernels.kernel_K", broken_kernel)
    with pytest.raises(TypeError, match="programming error"):
        kernel_report(RATIO_SQUARE, s_grid=(2.0,), y_grid=(0.0, 10.0))


def test_kernel_report_cells_count_their_evaluations():
    # the kernel-sweep cells at lambda = i: kernel_K's relative default
    # takes fewer integrand evaluations than the config tolerance
    grids = (1.0, 8.0, 64.0), (0.0, 10.0, -1000.0)
    default = kernel_report(RATIO_SQUARE, *grids)
    explicit = kernel_report(RATIO_SQUARE, *grids, tol=Tolerance(1e-8, 1e-10, 2_000_000))
    for report in (default, explicit):
        assert len(report.cells) == 9 and all(c.evaluations > 0 for c in report.cells)
    assert default.cells[0].evaluations == kernel_K(RATIO_SQUARE, 1.0, -1000.0).evaluations
    assert sum(c.evaluations for c in default.cells) < sum(c.evaluations for c in explicit.cells)


def test_kernel_report_refinement_reuses_coarse_cells(monkeypatch):
    calls = []

    def counting_kernel(sing, s, y, tol=None):
        calls.append((s, y))
        return QuadResult(1.0 / (1.0 + s + abs(y)), 1e-9, 100)

    monkeypatch.setattr("leafcurrent.kernels.kernel_K", counting_kernel)
    report = kernel_report(RATIO_SQUARE, s_grid=(1.0, 4.0, 16.0), y_grid=(-10.0, 0.0, 10.0), refine=True)
    fine = {(s, y) for s in (1.0, 2.0, 4.0, 8.0, 16.0) for y in (-10.0, -5.0, 0.0, 5.0, 10.0)}
    assert sorted(calls) == sorted(fine)
    assert report.refinement_drift is not None


def test_kernel_report_validates_grids():
    with pytest.raises(ValueError):
        kernel_report(RATIO_SQUARE, s_grid=(), y_grid=(0.0,))
    with pytest.raises(ValueError):
        kernel_report(RATIO_SQUARE, s_grid=(-1.0, 2.0), y_grid=(0.0,))


def test_centre_line_decay_slope():
    slope, values = case_decay_slope(RATIO_SQUARE, (8.0, 16.0, 32.0, 64.0, 128.0))
    # K_s(0) = e^{2s} E_1(2s) ~ 1/(2s), so the log-log slope sits just above -1
    assert -1.01 <= slope <= -0.85
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Regime classification and comparability bands
# ---------------------------------------------------------------------------


def test_regimes_tuple():
    assert set(REGIMES) == {
        "part1-radius",
        "part1-height",
        "far",
        "near-origin",
        "diagonal",
        "boundary-strip",
    }


def test_classify_regime_examples():
    sing = RATIO_SQUARE
    y = 1023.0  # scale Y = 32
    assert classify_regime(sing, 400.0, 400.0, 99.0) == "far"
    assert classify_regime(sing, 2.0, 2.0, 99.0) == "near-origin"
    assert classify_regime(sing, 10.0, 10.0, 99.0, RegimeThresholds(c2=2.0)) == "diagonal"
    assert classify_regime(sing, 1.0, 32.0, y) == "boundary-strip"
    # min between Y/c3 and Y/c2 with max between Y/c2 and c2 Y: no hypothesis
    assert classify_regime(sing, 4.0, 64.0, y) == "unclassified"


def test_classify_regime_requires_interior_points():
    with pytest.raises(ValueError):
        classify_regime(RATIO_SQUARE, 0.5, 10.0, 3.0)


def test_far_comparator_formula():
    got = regime_comparator(RATIO_SQUARE, "far", 2.0, 400.0, 99.0)
    assert got == pytest.approx(2.0 / 400.0**3)
    with pytest.raises(ValueError):
        regime_comparator(RATIO_SQUARE, "no-such-regime", 2.0, 400.0, 99.0)


@pytest.mark.parametrize("sing", [RATIO_SQUARE, RATIO_SHALLOW, RATIO_STEEP])
def test_regime_bands_are_comparability_bands(sing):
    # the two-sided constants legitimately widen like c2^gamma (the image of
    # the window [Y/c2, c2 Y] under the power map spans a factor c2^{2 gamma}),
    # so the cap only guards against outright degeneracy; sharpness is the
    # job of the threshold-doubling drift check
    regimes = ["part1-radius", "part1-height", "far", "near-origin", "diagonal"]
    for regime in regimes:
        band = regime_constant_sampler(sing, regime, sample_count=2_000, seed=7)
        assert band.sample_count == 2_000
        assert 0.0 < band.inf_ratio <= band.sup_ratio < math.inf
        assert band.sup_ratio / band.inf_ratio < 1e6


@pytest.mark.parametrize(
    "sing,y_max",
    [(RATIO_SQUARE, 1e4), (RATIO_SHALLOW, 1e4), (RATIO_STEEP, 1e7)],
)
def test_boundary_strip_band(sing, y_max):
    band = regime_constant_sampler(sing, "boundary-strip", sample_count=500, seed=3, y_max=y_max)
    assert 0.0 < band.inf_ratio <= band.sup_ratio < math.inf
    assert band.sup_ratio / band.inf_ratio < 1e4


def test_boundary_strip_infeasible_at_steep_ratio_defaults():
    # the strip needs (1+|y|)^{1/4} >= c3, i.e. |y| >= 65535, beyond the
    # default height window
    with pytest.raises(EmptyRegimeError):
        regime_constant_sampler(RATIO_STEEP, "boundary-strip", sample_count=500, seed=0)


def test_near_origin_infeasible_when_heights_too_small():
    with pytest.raises(EmptyRegimeError):
        regime_constant_sampler(RATIO_STEEP, "near-origin", sample_count=500, seed=0, y_max=100.0)


def test_sampler_validates_inputs():
    with pytest.raises(ValueError):
        regime_constant_sampler(RATIO_SQUARE, "far", sample_count=50)
    with pytest.raises(ValueError):
        regime_constant_sampler(RATIO_SQUARE, "no-such-regime")


def test_sampler_seeded_reproducibility():
    one = regime_constant_sampler(RATIO_SQUARE, "diagonal", sample_count=400, seed=11)
    two = regime_constant_sampler(RATIO_SQUARE, "diagonal", sample_count=400, seed=11)
    other = regime_constant_sampler(RATIO_SQUARE, "diagonal", sample_count=400, seed=12)
    assert (one.sup_ratio, one.inf_ratio) == (two.sup_ratio, two.inf_ratio)
    assert (one.sup_ratio, one.inf_ratio) != (other.sup_ratio, other.inf_ratio)


# (sup_ratio, inf_ratio) at RATIO_SQUARE, seed 7, 2,000 samples, recorded
# from the scalar one-sample-at-a-time sampler; the batched sampler must
# reproduce them exactly, since its rng calls and arithmetic are the same
PINNED_BANDS = {
    4.0: {
        "part1-radius": (0.9999988488667763, 0.5006121861200467),
        "part1-height": (0.5000000000000295, 0.49999999999997147),
        "far": (2.2553712032606303, 0.5081949864390356),
        "near-origin": (1.1351005893407375, 0.8923108572864701),
        "diagonal": (1.8486170739436047, 0.008467120307534323),
        "boundary-strip": (0.5155231422226095, 0.31992638203048823),
    },
    8.0: {
        "part1-radius": (0.9999988488667763, 0.5006121861200467),
        "part1-height": (0.5000000000000295, 0.49999999999997147),
        "far": (2.058998841040827, 0.5092194550185121),
        "near-origin": (1.0314648884947517, 0.9722753980630249),
        "diagonal": (2.87736311754489, 0.0006572763309613432),
        "boundary-strip": (0.5069605610478048, 0.19791510704009826),
    },
}


def test_sampler_stream_is_pinned():
    for thresholds in (RegimeThresholds(), RegimeThresholds().doubled()):
        for regime in REGIMES:
            band = regime_constant_sampler(RATIO_SQUARE, regime, 2_000, seed=7, thresholds=thresholds)
            assert (band.sup_ratio, band.inf_ratio) == PINNED_BANDS[thresholds.c2][regime], regime
    steep = regime_constant_sampler(RATIO_STEEP, "boundary-strip", 2_000, seed=7, y_max=1e7)
    assert (steep.sup_ratio, steep.inf_ratio) == (0.2719506815897222, 0.03417064574619013)


def test_regime_functions_on_arrays_match_scalar_calls():
    rng = np.random.default_rng(5)
    v = np.exp(rng.uniform(0.0, 4.0, 300))
    t = np.exp(rng.uniform(0.0, 4.0, 300))
    y = rng.choice((-1.0, 1.0), 300) * np.exp(rng.uniform(0.0, 9.0, 300))
    for sing in (RATIO_SQUARE, RATIO_SHALLOW, RATIO_STEEP):
        dens = poisson_density(sing, v, t, y)
        assert dens.tolist() == [float(poisson_density(sing, *p)) for p in zip(v, t, y)]
        for regime in ("far", "near-origin", "diagonal"):
            comp = regime_comparator(sing, regime, v, t, y)
            assert comp.tolist() == [regime_comparator(sing, regime, *p) for p in zip(v, t, y)]
    got = regime_comparator(RATIO_SQUARE, "diagonal", 2.0, 3.0, 99.0)
    assert type(got) is float and got == 0.01


def test_thresholds_validate_and_double():
    with pytest.raises(ValueError):
        RegimeThresholds(c2=1.0)
    with pytest.raises(ValueError):
        RegimeThresholds(c2=4.0, c3=4.0)
    doubled = RegimeThresholds().doubled()
    assert (doubled.c2, doubled.c3) == (8.0, 32.0)


# ---------------------------------------------------------------------------
# Strip-crossing solver
# ---------------------------------------------------------------------------


def test_crossing_quadratic_closed_form():
    # gamma = 2: Re((u+iv)^2) = u^2 - v^2 = y, so the crossing sits at
    # u = sqrt(y + v^2) exactly
    for y, v in ((899.0, 1.0), (1000.0, 1.5), (255.0, 1.0)):
        got = rho_solver(RATIO_SQUARE, y, v)
        assert got == pytest.approx(math.sqrt(y + v * v), abs=1e-9)


def test_crossing_residual_contract():
    for sing, ys in ((RATIO_SQUARE, (255.0, 1000.0, 9999.0)), (RATIO_SHALLOW, (41.0, 1000.0))):
        for y in ys:
            Y = float(scale_factor(sing, y))
            for v in (1.0, min(1.3, Y / 16.0)):
                if v < 1.0:
                    continue
                rho = rho_solver(sing, y, v)
                u = (rho - sing.a * v) / sing.b
                assert abs(power_real_residual(sing, u, v, y)) <= 1e-10


def test_crossing_residual_floor_steep_ratio():
    """At gamma = 4 the feasible heights start at 65535 and the double-
    precision quantisation of the root already moves the residual by
    ``gamma rho^{gamma-1} ulp(u)``, so the contract scales with that floor."""
    sing = RATIO_STEEP
    for y in (65536.0, 1e6, 1e7):
        rho = rho_solver(sing, y, 1.0)
        u = (rho - sing.a * 1.0) / sing.b
        slope = sing.gamma * math.hypot(u, 1.0) ** (sing.gamma - 1.0)
        floor = max(1e-10, slope * math.ulp(u))
        assert abs(power_real_residual(sing, u, 1.0, y)) <= floor
    # at the low end of the feasible range the generic contract itself holds
    rho = rho_solver(sing, 65536.0, 1.0)
    u = (rho - sing.a * 1.0) / sing.b
    assert abs(power_real_residual(sing, u, 1.0, 65536.0)) <= 1e-10


def test_crossing_monotone_in_height():
    roots = [rho_solver(RATIO_SQUARE, y, 1.0) for y in (255.0, 500.0, 1000.0, 5000.0)]
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_crossing_on_arrays_matches_scalar_calls():
    # one code path for both forms: every element of an array call equals
    # the scalar call on it exactly (no ulp of slack is needed)
    rng = np.random.default_rng(11)
    for sing in (RATIO_SQUARE, RATIO_SHALLOW, RATIO_STEEP):
        y = np.exp(rng.uniform(math.log(16.0**sing.gamma), math.log(1e8), 400))
        width = scale_factor(sing, y) / 16.0  # the largest v the strip allows
        v = np.exp(rng.uniform(0.0, np.log(width)))
        v[:20], v[20:40] = 1.0, width[20:40]
        rho = rho_solver(sing, y, v)
        scalar = [rho_solver(sing, float(a), float(b)) for a, b in zip(y, v)]
        assert all(type(r) is float for r in scalar)
        assert rho.tolist() == scalar
    # one infeasible element fails the whole call, as it fails its scalar call
    y = np.array([255.0, 1000.0, -1023.0])
    with pytest.raises(NoRootError):
        rho_solver(RATIO_SQUARE, y, np.ones(3))
    with pytest.raises(ValueError):
        rho_solver(RATIO_SQUARE, np.array([255.0, 1023.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        rho_solver(RATIO_SQUARE, np.array([255.0, 99.0]), np.array([1.0, 5.0]))


def test_crossing_rejections():
    # negative height: the real part starts at zero on the monotone ray
    with pytest.raises(NoRootError):
        rho_solver(RATIO_SQUARE, -1023.0, 1.0)
    with pytest.raises(ValueError):
        rho_solver(RATIO_SQUARE, 1023.0, 0.5)  # v below one
    with pytest.raises(ValueError):
        rho_solver(RATIO_SQUARE, 99.0, 5.0)  # v above the strip width


def test_power_real_residual_exact_point():
    assert abs(power_real_residual(RATIO_SQUARE, 2.0, 1.0, 3.0)) <= 1e-15


# ---------------------------------------------------------------------------
# Density and scaling helpers
# ---------------------------------------------------------------------------


def test_poisson_density_matches_direct_formula():
    sing = RATIO_SHALLOW
    v, t, y = 3.0, 5.0, 7.0
    u = (t - sing.a * v) / sing.b
    U, V = power_polar(complex(u, v), sing.gamma)
    expected = float(V) / (float(V) ** 2 + (y - float(U)) ** 2)
    assert poisson_density(sing, v, t, y) == pytest.approx(expected, rel=1e-14)


def test_poisson_density_vectorized_positive():
    sing = RATIO_SQUARE
    v = np.linspace(1.0, 40.0, 25)
    t = np.linspace(2.0, 80.0, 25)
    out = poisson_density(sing, v, t, 12.0)
    assert out.shape == v.shape
    assert np.all(out > 0.0)


def test_scale_factor_values():
    assert float(scale_factor(RATIO_SQUARE, 99.0)) == pytest.approx(10.0)
    assert float(scale_factor(RATIO_STEEP, -15.0)) == pytest.approx(2.0)
    arr = scale_factor(RATIO_SQUARE, np.array([0.0, 3.0]))
    assert arr == pytest.approx([1.0, 2.0])

