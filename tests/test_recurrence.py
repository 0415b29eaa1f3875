"""Tests for the leafwise hyperbolic-recurrence layer.

Oracles:

* the dense polar Riemann sum for the normalization integral at small
  horizon (frozen below at ``R = 1``), and ``mpmath`` on its closed form
  ``4 pi [log cosh(R/2) - sinh^2(R/2) log tanh(R/2)]`` at every horizon;
* the analytic limit of its linear deviation: ``M_R - 2 pi R`` converges to
  ``-2 pi (2 log 2 - 1)``, since ``int_0^inf (1 - sinh t log coth(t/2)) dt
  = 2 log 2 - 1``; the computed deviation matches that constant to 4e-14
  already at ``R = 10``, far beyond the source's "bounded" claim;
* a centred finite difference of the covering map for the metric factor;
* exact degenerate cases (engulfing ball, zero test function, circle of
  hyperbolic radius zero).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from leafcurrent import recurrence
from leafcurrent.geometry import (
    SectorDomainError,
    leaf_point,
    normalize_singularity,
    sector_point,
)
from leafcurrent.recurrence import (
    DEFAULT_MAX_HORIZON,
    LeafUniformization,
    M_of_R,
    RecurrenceReport,
    circle_average,
    circle_factor,
    eta_local,
    m_aR_pushforward,
    poincare_distance_disc,
    poincare_distance_halfplane,
    recurrence_report,
    s_of_t,
    t_of_s,
    uniformize_leaf,
    visibility_N,
    visibility_rows,
)

RATIO_SQUARE = normalize_singularity(1, 1j)  # gamma = 2
RATIO_SHALLOW = normalize_singularity(1, 1 + 1j)  # gamma = 4/3
ALPHA = complex(math.exp(-math.pi * RATIO_SQUARE.b))

# 4e6-point midpoint rule on 8 pi int_0^{tanh(1/2)} rho log(1/rho) (1-rho^2)^{-2} drho
DENSE_M_AT_ONE = 4.143465143820931

# lim (M_R - 2 pi R) = -2 pi (2 log 2 - 1)
DEVIATION_LIMIT = -2.0 * math.pi * (2.0 * math.log(2.0) - 1.0)


def square_uniformization(tau: float = math.log(2.0)) -> LeafUniformization:
    """Leaf through the mid-annulus atom, centred at the point with v = t = tau."""
    zeta = complex((tau - RATIO_SQUARE.a * tau) / RATIO_SQUARE.b, tau)
    return uniformize_leaf(RATIO_SQUARE, ALPHA, zeta)


# ---------------------------------------------------------------------------
# Radius maps and distances
# ---------------------------------------------------------------------------


def test_s_of_t_pinned_values():
    assert s_of_t(0.0) == 0.0
    assert s_of_t(math.log(3.0)) == pytest.approx(0.5, abs=1e-15)


def test_radius_maps_roundtrip():
    for t in (1e-3, 0.3, 1.0, 7.0):
        s = s_of_t(t)
        assert 0.0 <= s < 1.0
        assert t_of_s(s) == pytest.approx(t, abs=1e-12)
        assert math.log((1.0 + s) / (1.0 - s)) == pytest.approx(t, abs=1e-12)
    # near the horizon cap the roundtrip is limited by the conditioning of
    # atanh: d t / d s ~ 1/(1 - s) ~ e^t/2, so ~3e-8 absolute at t = 20
    assert t_of_s(s_of_t(20.0)) == pytest.approx(20.0, abs=1e-7)


def test_radius_maps_vectorized_and_validated():
    ts = np.array([0.0, 1.0, 2.0])
    assert np.allclose(t_of_s(s_of_t(ts)), ts, atol=1e-12)
    with pytest.raises(ValueError):
        s_of_t(-1.0)
    with pytest.raises(ValueError):
        t_of_s(1.0)
    with pytest.raises(ValueError):
        t_of_s(-0.1)


def test_disc_distance_matches_radius_formula():
    for s in (0.1, 0.5, 0.9, 0.99):
        assert poincare_distance_disc(0.0, s) == pytest.approx(
            math.log((1.0 + s) / (1.0 - s)), abs=1e-12
        )
    with pytest.raises(ValueError):
        poincare_distance_disc(0.0, 1.0)
    with pytest.raises(ValueError):
        poincare_distance_halfplane(1j, 1.0 + 0j)


# ---------------------------------------------------------------------------
# Uniformization
# ---------------------------------------------------------------------------


def test_center_recovers_base_point():
    uni = square_uniformization()
    p = uni.at(0.0)
    assert abs(p.z - uni.base_point.z) < 1e-10
    assert abs(p.w - uni.base_point.w) < 1e-10


def test_uniformization_accepts_equivalent_base_descriptions():
    tau = math.log(2.0)
    zeta = complex(tau, tau)
    by_complex = uniformize_leaf(RATIO_SQUARE, ALPHA, zeta)
    by_sector = uniformize_leaf(RATIO_SQUARE, ALPHA, sector_point(RATIO_SQUARE, zeta))
    by_leaf = uniformize_leaf(
        RATIO_SQUARE, ALPHA, leaf_point(RATIO_SQUARE, ALPHA, zeta)
    )
    assert by_complex.halfplane_base == by_sector.halfplane_base
    assert by_leaf.halfplane_base == pytest.approx(by_complex.halfplane_base, rel=1e-12)


def test_uniformization_rejects_bad_bases():
    with pytest.raises(SectorDomainError):
        uniformize_leaf(RATIO_SQUARE, ALPHA, complex(1.0, -0.5))
    with pytest.raises(ValueError):
        uniformize_leaf(RATIO_SQUARE, 0.0, complex(1.0, 1.0))
    good = leaf_point(RATIO_SQUARE, ALPHA, complex(1.0, 1.0))
    with pytest.raises(ValueError):
        uniformize_leaf(RATIO_SQUARE, ALPHA * 1j, good)  # different atom
    # same moduli, broken phase: not on the leaf
    from leafcurrent.geometry import LeafPoint

    off_leaf = LeafPoint(z=good.z * complex(math.cos(0.3), math.sin(0.3)), w=good.w, alpha=ALPHA)
    with pytest.raises(ValueError):
        uniformize_leaf(RATIO_SQUARE, ALPHA, off_leaf)


def test_uniformization_is_hyperbolic_isometry():
    uni = square_uniformization()
    for xi in (0.3, 0.5j, -0.2 + 0.4j, 0.9, -0.95j):
        d_disc = poincare_distance_disc(0.0, xi)
        d_half = poincare_distance_halfplane(
            uni.halfplane_base, complex(uni.halfplane_at(xi))
        )
        assert d_half == pytest.approx(d_disc, abs=1e-10)


def test_radial_limits_reach_the_bidisc_boundary():
    uni = square_uniformization()
    for theta in (0.4, 1.5, 2.8, 4.0, 5.6):
        mods = []
        for s in (0.9, 0.99, 0.999, 0.99999):
            p = uni.at(s * complex(math.cos(theta), math.sin(theta)))
            mods.append(max(abs(p.z), abs(p.w)))
        assert mods == sorted(mods)
        assert mods[-1] > 0.999


def test_disc_parameter_must_stay_inside():
    uni = square_uniformization()
    with pytest.raises(ValueError):
        uni.at(1.0)
    with pytest.raises(ValueError):
        uni.at(1.2j)


def test_rotation_composes_and_fixes_center():
    uni = square_uniformization()
    rot = uni.rotated(0.4).rotated(0.3)
    assert rot.rotation == pytest.approx(0.7)
    assert abs(rot.at(0.0).z - uni.at(0.0).z) < 1e-14


# ---------------------------------------------------------------------------
# Circle averages
# ---------------------------------------------------------------------------


def test_degenerate_circle_reports_base_membership():
    uni = square_uniformization()
    assert circle_average(uni, 0, 10.0, 0.0) == 1.0
    assert circle_average(uni, 0, 1e-9, 0.0) == 0.0
    near = uni.base_point
    assert circle_average(uni, near, 1e-6, 0.0) == 1.0


def test_circle_average_bounds_and_validation():
    uni = square_uniformization()
    for t in (0.5, 2.0, 8.0):
        val = circle_average(uni, 0, 0.4, t)
        assert 0.0 <= val <= 1.0
    with pytest.raises(ValueError):
        circle_average(uni, 0, -0.1, 1.0)
    with pytest.raises(ValueError):
        circle_average(uni, 0, 0.4, -1.0)
    with pytest.raises(ValueError):
        circle_average(uni, 0, 0.4, 1.0, n_theta=4)
    with pytest.raises(TypeError):
        circle_average(uni, "origin", 0.4, 1.0)


def test_circle_average_is_rotation_invariant_on_dense_grids():
    uni = square_uniformization()
    base = circle_average(uni, 0, 0.5, 3.0, n_theta=4096)
    rotated = circle_average(uni.rotated(0.7), 0, 0.5, 3.0, n_theta=4096)
    assert abs(base - rotated) <= 16.0 / 4096


def test_circle_average_monte_carlo_is_seeded_and_close_to_grid():
    uni = square_uniformization()
    grid = circle_average(uni, 0, 0.5, 3.0, n_theta=8192)
    mc1 = circle_average(uni, 0, 0.5, 3.0, n_theta=8192, rng=np.random.default_rng(7))
    mc2 = circle_average(uni, 0, 0.5, 3.0, n_theta=8192, rng=np.random.default_rng(7))
    assert mc1 == mc2
    assert abs(mc1 - grid) < 0.02


# ---------------------------------------------------------------------------
# Visibility
# ---------------------------------------------------------------------------


def test_engulfing_ball_gives_visibility_one():
    uni = square_uniformization()
    assert visibility_N(uni, 0, 3.0, 20.0) == 1.0


def test_visibility_is_monotone_in_ball_radius():
    uni = square_uniformization()
    values = [visibility_N(uni, 0, r, 15.0) for r in (0.05, 0.1, 0.2, 0.5)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)


def test_visibility_horizon_guard():
    uni = square_uniformization()
    with pytest.raises(ValueError):
        visibility_N(uni, 0, 0.5, DEFAULT_MAX_HORIZON + 1.0)
    with pytest.raises(ValueError):
        visibility_N(uni, 0, 0.5, 0.0)
    # explicit override raises the cap
    assert visibility_N(uni, 0, 3.0, 30.0, max_horizon=40.0) == 1.0


@pytest.mark.parametrize("n_theta", [0, 1, 7])
def test_visibility_needs_eight_angular_nodes(n_theta):
    uni = square_uniformization()
    with pytest.raises(ValueError, match="angular"):
        visibility_N(uni, 0, 0.5, 5.0, n_theta=n_theta)
    with pytest.raises(ValueError, match="angular"):
        visibility_rows(uni, 0, (0.5, 0.25), 5.0, n_theta=n_theta)


R_GRID_12 = tuple(2.0**-k for k in range(1, 13))


def _counting_ambient_at(monkeypatch) -> list:
    """Patch ``ambient_at`` to record every array of disc points it is given."""
    seen = []
    real_ambient_at = LeafUniformization.ambient_at

    def counted(self, xi):
        seen.append(np.array(xi))
        return real_ambient_at(self, xi)

    monkeypatch.setattr(LeafUniformization, "ambient_at", counted)
    return seen


def test_visibility_rows_make_one_covering_pass_per_target(monkeypatch):
    # every (t, theta) node reaches the covering map exactly once, in blocks
    # of whole circles (the last one partial at n_t = 21), and the number of
    # radii adds no pass
    uni = square_uniformization()
    seen = _counting_ambient_at(monkeypatch)
    midpoints = (np.arange(256) + 0.5) * (2.0 * math.pi / 256)
    for n_t in (16, 21):
        ts = np.linspace(0.0, 20.0, n_t)
        for seed in (None, 3):
            thetas = midpoints if seed is None else np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (n_t, 256))
            nodes = s_of_t(ts)[:, None] * np.exp(1j * thetas)
            for r_grid in (R_GRID_12, R_GRID_12[:1]):
                seen.clear()
                rng = None if seed is None else np.random.default_rng(seed)
                rows = visibility_rows(uni, 0, r_grid, 20.0, n_t=n_t, n_theta=256, rng=rng)
                assert len(rows) == len(r_grid)
                assert all(xi.ndim == 2 and xi.shape[1] == 256 for xi in seen)
                assert sum(len(xi) for xi in seen) == n_t
                assert np.array_equal(np.concatenate(seen), nodes)


def test_visibility_blocks_bound_the_peak_memory(monkeypatch):
    uni = square_uniformization()

    def peak() -> int:
        tracemalloc.start()
        try:
            visibility_rows(uni, 0, R_GRID_12, 20.0, n_t=64, n_theta=4096, rng=np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = peak()
    monkeypatch.setattr(recurrence, "_ROW_BLOCK", 64)  # one block: the whole grid at once
    whole = peak()
    assert blocked < whole / 3


def test_visibility_rows_match_the_per_radius_loop_on_fixed_angles():
    uni = square_uniformization()
    rows = visibility_rows(uni, 0, R_GRID_12, 20.0, n_t=32, n_theta=1024)
    loop = [visibility_N(uni, 0, r, 20.0, n_t=32, n_theta=1024) for r in R_GRID_12]
    assert [n for _, n, _ in rows] == loop
    with pytest.raises(ValueError):
        visibility_rows(uni, 0, (0.5, 0.0), 20.0)


def test_seeded_visibility_rows_share_one_draw():
    uni = square_uniformization()
    kwargs = dict(n_t=32, n_theta=1024)
    rows = visibility_rows(uni, 0, R_GRID_12, 20.0, rng=np.random.default_rng(11), **kwargs)
    values = [n for _, n, _ in rows]
    assert values == sorted(values, reverse=True)  # nonincreasing as r shrinks
    assert values[-1] > 0.0
    assert values[0] == visibility_N(uni, 0, R_GRID_12[0], 20.0, rng=np.random.default_rng(11), **kwargs)
    for k in (0, 5):
        single = visibility_rows(uni, 0, [0.1], 20.0, rng=np.random.default_rng(k), **kwargs)[0][1]
        assert single == visibility_N(uni, 0, 0.1, 20.0, rng=np.random.default_rng(k), **kwargs)


# ---------------------------------------------------------------------------
# Normalization integral
# ---------------------------------------------------------------------------


def test_normalization_matches_dense_polar_oracle():
    res = M_of_R(1.0)
    assert res.value == pytest.approx(DENSE_M_AT_ONE, rel=1e-6)
    # actual agreement is ~5e-14; keep a modest guard against regression
    assert res.value == pytest.approx(DENSE_M_AT_ONE, rel=1e-10)


def test_normalization_positive_and_increasing():
    values = [M_of_R(R).value for R in (0.25, 1.0, 4.0, 12.0)]
    assert all(v > 0.0 for v in values)
    assert values == sorted(values)
    with pytest.raises(ValueError):
        M_of_R(0.0)


def _mpmath_M(R, mpmath):
    """``M_R`` from its closed form in ``mpmath``, and the precision it ran at.

    ``tanh(R/2)`` is ``1 - 2 e^{-R}``: at a fixed 50 digits it rounds to 1
    past ``R ~ 100``, so the precision grows with ``R``; ``cosh(R/2)`` is
    ``1 + R^2/8``, so it grows as ``R`` shrinks too.
    """
    dps = int(0.44 * R + 2.0 * max(0.0, -math.log10(R))) + 30
    with mpmath.workdps(dps):
        t = mpmath.mpf(R) / 2
        return 4 * mpmath.pi * (mpmath.log(mpmath.cosh(t)) - mpmath.sinh(t) ** 2 * mpmath.log(mpmath.tanh(t))), dps


@pytest.mark.parametrize("R", [1e-8, 1e-3, 0.25, 1.0, 4.0, 5.0, 10.0, 12.5, 15.0, 17.5, 20.0, 25.0, 100.0, 800.0])
def test_normalization_is_within_one_ulp_of_mpmath(R):
    mpmath = pytest.importorskip("mpmath")
    res = M_of_R(R)
    exact, dps = _mpmath_M(R, mpmath)
    nearest = float(exact)  # the correctly rounded M_R
    assert res.evaluations == 0
    assert abs(res.value - nearest) <= math.ulp(nearest)
    with mpmath.workdps(dps):
        assert abs(mpmath.mpf(res.value) - exact) <= res.error_estimate


def test_normalization_rejects_non_finite_horizons():
    for R in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            M_of_R(R)


def test_normalization_deviation_reaches_analytic_limit():
    radii = list(range(10, 21, 2))
    devs = [M_of_R(float(R)).value - 2.0 * math.pi * R for R in radii]
    assert max(devs) - min(devs) < 1.0  # the boundedness claim, with huge slack
    for R, dev in zip(radii, devs):
        # remainder of the limit: 2 pi int_R^inf (1 - circle_factor) dt
        # = (2 pi / 3) e^{-2R} (1 + o(1))
        remainder = 2.0 * math.pi * math.exp(-2.0 * R) + 1e-11
        assert dev == pytest.approx(DEVIATION_LIMIT, abs=remainder)


# ---------------------------------------------------------------------------
# Pushforward measures
# ---------------------------------------------------------------------------


def test_pushforward_is_a_probability_measure():
    uni = square_uniformization()
    for R in (5.0, 20.0):
        mass = m_aR_pushforward(uni, R, lambda z, w: np.ones(z.shape))
        assert mass == pytest.approx(1.0, abs=1e-3)
    assert m_aR_pushforward(uni, 10.0, lambda z, w: np.zeros(z.shape)) == 0.0


def test_pushforward_validation():
    uni = square_uniformization()
    with pytest.raises(ValueError):
        m_aR_pushforward(uni, 0.0, lambda z, w: np.ones(z.shape))
    with pytest.raises(ValueError):
        m_aR_pushforward(uni, 30.0, lambda z, w: np.ones(z.shape))
    with pytest.raises(ValueError):
        m_aR_pushforward(uni, 5.0, lambda z, w: 1.0)


def test_pushforward_ball_mass_approaches_visibility():
    uni = square_uniformization()

    def ball(z, w):
        return (np.hypot(np.abs(z), np.abs(w)) < 0.3).astype(float)

    gaps = []
    for R in (5.0, 10.0, 20.0):
        m = m_aR_pushforward(uni, R, ball)
        n = visibility_N(uni, 0, 0.3, R, n_t=512, n_theta=512)
        gaps.append(abs(m - n))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


# ---------------------------------------------------------------------------
# Circle factor
# ---------------------------------------------------------------------------


def test_circle_factor_positive_and_tends_to_one():
    assert circle_factor(1.0) > 0.0
    # the true gap at t = 10 is (2/3) e^{-20} (1 + o(1)) ~ 1.4e-9
    assert abs(circle_factor(10.0) - 1.0) < 6.2e-9
    assert circle_factor(700.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        circle_factor(0.0)


# circle_factor's bits on the report path (t <= 25), both branches
CIRCLE_FACTOR_BITS = {
    1e-3: "0x1.f22201485d28ep-8",
    0.5: "0x1.7757d73bf9d3fp-1",
    1.0: "0x1.d07a0a1c46f34p-1",
    5.0: "0x1.fffc08695ac0ap-1",
    10.0: "0x1.fffffff432512p-1",
    19.5: "0x1.fffffffffffffp-1",
    20.0: "0x1.0000000000000p+0",
    25.0: "0x1.0000000000000p+0",
}


def test_circle_factor_bits_are_pinned_on_the_report_path():
    ts = np.array(list(CIRCLE_FACTOR_BITS))
    assert [v.hex() for v in circle_factor(ts)] == list(CIRCLE_FACTOR_BITS.values())
    assert [circle_factor(float(t)).hex() for t in ts] == list(CIRCLE_FACTOR_BITS.values())


def test_circle_factor_is_silent_once_sinh_overflows():
    # at t = 800, e^-t underflows and sinh(t) overflows: the discarded
    # direct branch must not leak an inf * 0 warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert circle_factor(800.0) == 1.0
        assert list(circle_factor(np.array([25.0, 800.0]))) == [1.0, 1.0]


def test_circle_factor_series_branch_is_continuous():
    assert circle_factor(19.999999) == pytest.approx(circle_factor(20.000001), abs=1e-12)


def test_circle_factor_true_decay_rate_is_two():
    # sinh(t) log(coth(t/2)) = 1 - (2/3) e^{-2t} - (2/15) e^{-4t} - ...: the
    # e^{-t} terms of the two factors cancel exactly, so the observed rate
    # is e^{-2t}
    ts = np.linspace(5.0, 15.0, 41)
    slope = float(np.polyfit(ts, np.log(np.abs(circle_factor(ts) - 1.0)), 1)[0])
    assert slope == pytest.approx(-2.0, abs=0.01)


@pytest.mark.xfail(
    strict=True,
    reason="the quoted e^{-t} convergence rate is an upper estimate, not the "
    "exact rate: the e^{-t} terms cancel and |circle_factor - 1| decays "
    "like e^{-2t}, so the slope is -2, outside -1 +- 0.1",
)
def test_circle_factor_decay_fit_slope_minus_one():
    ts = np.linspace(5.0, 15.0, 41)
    slope = float(np.polyfit(ts, np.log(np.abs(circle_factor(ts) - 1.0)), 1)[0])
    assert abs(slope - (-1.0)) <= 0.1


# ---------------------------------------------------------------------------
# Metric factor
# ---------------------------------------------------------------------------


def test_eta_positive_interior():
    assert eta_local(square_uniformization()) > 0.0
    assert eta_local(square_uniformization(tau=5.0)) > 0.0


def test_eta_matches_finite_difference_derivative():
    for uni in (square_uniformization(), square_uniformization(tau=3.0)):
        h = 1e-6
        plus, minus = uni.at(h), uni.at(-h)
        fd = math.hypot(abs(plus.z - minus.z), abs(plus.w - minus.w)) / (2.0 * h)
        assert fd == pytest.approx(2.0 * eta_local(uni), rel=1e-6)


def test_eta_matches_finite_difference_on_shallow_ratio():
    tau = 2.0
    zeta = complex((tau - RATIO_SHALLOW.a * tau) / RATIO_SHALLOW.b, tau)
    alpha = complex(math.exp(-math.pi * RATIO_SHALLOW.b))
    uni = uniformize_leaf(RATIO_SHALLOW, alpha, zeta)
    h = 1e-6
    plus, minus = uni.at(h), uni.at(-h)
    fd = math.hypot(abs(plus.z - minus.z), abs(plus.w - minus.w)) / (2.0 * h)
    assert fd == pytest.approx(2.0 * eta_local(uni), rel=1e-6)


def test_eta_tracks_norm_times_log_near_singularity():
    # along the diagonal ray v = t the ratio eta / (s (1 + |log s|)) stays in
    # a narrow two-sided band for s in [1e-6, 1e-2]
    ratios = []
    for tau in np.linspace(5.0, 14.0, 10):
        uni = square_uniformization(tau=float(tau))
        s = uni.base_point.norm
        assert 1e-7 < s < 2e-2
        ratios.append(eta_local(uni) / (s * (1.0 + abs(math.log(s)))))
    assert min(ratios) > 0.5
    assert max(ratios) / min(ratios) < 2.0


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def test_report_assembles_fixed_order_tables():
    uni = square_uniformization()
    rep = recurrence_report(
        uni,
        r_grid=(0.5, 0.25),
        R_grid=(5.0, 10.0),
        horizon=10.0,
        n_t=64,
        n_theta=256,
    )
    assert isinstance(rep, RecurrenceReport)
    assert [row[0] for row in rep.visibility_rows] == [0.5, 0.25]
    for r, n, weighted in rep.visibility_rows:
        assert 0.0 <= n <= 1.0
        assert weighted == pytest.approx(n * abs(math.log(r)))
    for R, m_val, dev, mass in rep.horizon_rows:
        assert m_val > 0.0
        assert dev == pytest.approx(m_val - 2.0 * math.pi * R)
        assert mass == pytest.approx(1.0, abs=1e-3)
    assert rep.decay_fit == pytest.approx(-2.0, abs=0.01)


def test_horizon_row_mass_is_the_pushforward_of_one():
    uni = square_uniformization()
    rep = recurrence_report(uni, r_grid=(0.5,), R_grid=(5.0, 12.5, 20.0), horizon=5.0, n_t=16, n_theta=64)
    for R, m_val, _, mass in rep.horizon_rows:
        assert m_val == M_of_R(R).value
        assert mass == m_aR_pushforward(uni, R, lambda z, w: np.ones(z.shape))
    for R in (0.0, DEFAULT_MAX_HORIZON + 1.0):
        with pytest.raises(ValueError, match="horizon"):
            recurrence_report(uni, r_grid=(0.5,), R_grid=(R,), horizon=5.0, n_t=16, n_theta=64)


def test_report_runs_no_quadrature(monkeypatch):
    # M_R is a closed form: no stage of the report reaches the 1D engine
    from leafcurrent import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_1d called")

    monkeypatch.setattr(quadrature, "integrate_1d", refuse)
    monkeypatch.setattr(recurrence, "integrate_1d", refuse, raising=False)
    uni = square_uniformization()
    rep = recurrence_report(uni, r_grid=(0.5,), R_grid=(5.0, 20.0), horizon=5.0, n_t=16, n_theta=64)
    assert [row[1] for row in rep.horizon_rows] == [M_of_R(5.0).value, M_of_R(20.0).value]


def test_report_maps_only_the_visibility_nodes(monkeypatch):
    # the horizon rows' mass of the constant 1 needs no covering map
    uni = square_uniformization()
    seen = _counting_ambient_at(monkeypatch)
    rep = recurrence_report(uni, r_grid=(0.5, 0.25), R_grid=(5.0, 20.0), horizon=10.0, n_t=16, n_theta=256)
    assert len(rep.horizon_rows) == 2
    assert sum(xi.size for xi in seen) == 16 * 256
