"""Tests for the ball-mass layer.

The decisive oracle is a dense-grid 2D Riemann sum over the leaf-coordinate
region, refined in three steps that each removed a bias the plain truncated
sum carries:

* membership handled per column through the exact ball boundary (an
  indicator sampled on a grid converges only at first order);
* the strip ``v`` beyond the box carries an algebraically decaying harmonic
  extension (``~ v^{-3}`` for the compact bump at ``gamma = 2``) whose
  integral against the surviving exponential weight was added in closed
  moment form;
* the strip ``t`` beyond the box is *not* exponentially small: along the
  ball boundary the other coordinate stays near ``-log r``, so the
  ``e^{-2v}`` term survives and the column decays only like ``t^{-3}``.
  Both strips contribute about ``1e-4`` — 0.3% of the total — and the
  frozen values below include them, Richardson-extrapolated in the mesh.

For the non-orthogonal ratios the oracle keeps an indicator box but adds the
same two strip corrections through nested adaptive quadrature; its accuracy
is mesh-noise limited near ``2e-4`` relative.
"""

import json
import math

import numpy as np
import pytest

from leafcurrent import mass
from leafcurrent.cli import run_command
from leafcurrent.currents import (
    CurrentSpec,
    algebraic_profile,
    builtin_currents,
    cauchy_profile,
    default_current,
    triangle_profile,
)
from leafcurrent.geometry import normalize_singularity
from leafcurrent.mass import (
    MassProfile,
    bound_G_via_kernel,
    default_r_grid,
    g_profile,
    mass_F,
    mass_profile,
    mass_upper_intermediate,
    profile_decay_slope,
)
from leafcurrent.quadrature import QuadratureError, QuadResult, Tolerance

RATIO_SQUARE = normalize_singularity(1, 1j)  # gamma = 2
RATIO_SHALLOW = normalize_singularity(1, 1 + 1j)  # gamma = 4/3
RATIO_STEEP = normalize_singularity(1, -1 + 1j)  # gamma = 4

# Dense-grid oracle values for the unit triangle bump at r = 1/2 (see module
# docstring for their construction); relative accuracy ~2e-5 for the square
# ratio, ~2e-4 for the other two.
DENSE_ORACLE_HALF = {
    "square": 0.063167071496,
    "shallow": 0.18903977,
    "steep": 0.00326606,
}

# Regression pins: values this implementation produced when first validated
# against the dense oracles above.
PINNED_HALF = {
    "square": 0.06316578975097698,
    "shallow": 0.1890229502087623,
    "steep": 0.0032655133357143416,
}


# Regression pins for the cauchy current at lambda = i, carried over from the
# earlier nested scalar-quadrature route (relative tolerance 1e-8).
PINNED_CAUCHY_SQUARE = {
    2.0**-2: 0.030994725290759653,
    2.0**-12: 6.7331010591521155e-09,
}

RATIOS = {"square": RATIO_SQUARE, "shallow": RATIO_SHALLOW, "steep": RATIO_STEEP}


def triangle_current(sing):
    return builtin_currents(sing)["triangle"]


# ---------------------------------------------------------------------------
# mass_F
# ---------------------------------------------------------------------------


def test_zero_current_has_zero_mass():
    res = mass_F(builtin_currents(RATIO_SQUARE)["zero"], RATIO_SQUARE, 0.5)
    assert res.value == 0.0
    assert res.error_estimate == 0.0


def test_mass_rejects_radius_outside_unit_interval():
    cur = triangle_current(RATIO_SQUARE)
    for r in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            mass_F(cur, RATIO_SQUARE, r)


def test_mass_rejects_radius_below_the_smallest_supported_one():
    # mass_F's default floor 1e-16 r^2 underflows to 0 near r = 1e-154; the
    # radius is rejected up front with the limit named, for every mass route
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    deep = math.exp(-360.0)
    calls = (
        lambda: mass_F(cur, RATIO_SQUARE, deep),
        lambda: mass_upper_intermediate(cur, RATIO_SQUARE, deep),
        lambda: mass_profile(cur, RATIO_SQUARE, (0.5, deep)),
        lambda: bound_G_via_kernel(cur, RATIO_SQUARE, deep),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"smallest supported radius {mass._MIN_RADIUS:.4g}"):
            call()
    # at the limit both routes keep their default relative accuracy
    for fn, rel in ((mass_F, 1e-8), (mass_upper_intermediate, 1e-7)):
        res = fn(cur, RATIO_SQUARE, mass._MIN_RADIUS)
        assert 0.0 < res.error_estimate <= rel * res.value


def test_mass_is_linear_in_transverse_weight():
    prof = cauchy_profile()
    atom = complex(math.exp(-math.pi * RATIO_SQUARE.b))
    single = CurrentSpec(atoms=(atom,), profiles=(prof,), weights=(1.0,))
    double = CurrentSpec(atoms=(atom,), profiles=(prof,), weights=(2.0,))
    f1 = mass_F(single, RATIO_SQUARE, 0.5).value
    f2 = mass_F(double, RATIO_SQUARE, 0.5).value
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)


def test_mass_aggregates_equal_profiles_across_atoms():
    # moduli on a leaf do not depend on the atom, so two unit-weight copies
    # of one profile equal a single copy at weight two
    prof = cauchy_profile()
    a1 = complex(math.exp(-math.pi * RATIO_SQUARE.b))
    a2 = a1 * complex(math.cos(1.0), math.sin(1.0))
    pair = CurrentSpec(atoms=(a1, a2), profiles=(prof, prof), weights=(1.0, 1.0))
    double = CurrentSpec(atoms=(a1,), profiles=(prof,), weights=(2.0,))
    assert mass_F(pair, RATIO_SQUARE, 0.5).value == mass_F(double, RATIO_SQUARE, 0.5).value


@pytest.mark.parametrize(
    "label, sing",
    [("square", RATIO_SQUARE), ("shallow", RATIO_SHALLOW), ("steep", RATIO_STEEP)],
)
def test_triangle_mass_matches_dense_oracle(label, sing):
    value = mass_F(triangle_current(sing), sing, 0.5).value
    oracle = DENSE_ORACLE_HALF[label]
    tol = 0.02 if label == "square" else 5e-3
    assert value == pytest.approx(oracle, rel=tol)
    assert value == pytest.approx(PINNED_HALF[label], rel=1e-6)


@pytest.mark.parametrize("r", sorted(PINNED_CAUCHY_SQUARE))
def test_cauchy_mass_matches_pinned_values(r):
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    # abs=0: approx's default abs=1e-12 would let F ~ 7e-9 at r = 2^-12 drift by 1.5e-4
    assert mass_F(cur, RATIO_SQUARE, r).value == pytest.approx(PINNED_CAUCHY_SQUARE[r], rel=1e-8, abs=0.0)


# Bitwise pins of the default-tolerance mass at lambda = i: value, error
# estimate and evaluation count.  A rewrite of the truncation probe, of the
# panel refinement or of the integrand's arithmetic that is meant to be exact
# must not move a bit.
BITWISE_MASS_SQUARE = [
    ("triangle", 0.25, 0.01026921700445361, 3.505645397118713e-11, 104736),
    ("triangle", 0.000244140625, 2.147758882755213e-09, 4.343323830555966e-18, 107936),
    ("cauchy", 0.25, 0.030994725290729424, 1.1640077920755358e-10, 108272),
    ("cauchy", 0.000244140625, 6.733101059190947e-09, 1.3571992800538098e-17, 111472),
    ("algebraic", 0.25, 0.033390635537027695, 1.312740780378163e-10, 108272),
    ("algebraic", 0.000244140625, 8.21138155973223e-09, 1.5960551019425116e-17, 111472),
]


@pytest.mark.parametrize("current, r, value, error, evaluations", BITWISE_MASS_SQUARE)
def test_mass_is_bitwise_pinned(current, r, value, error, evaluations):
    got = mass_F(builtin_currents(RATIO_SQUARE)[current], RATIO_SQUARE, r)
    assert (got.value, got.error_estimate, got.evaluations) == (value, error, evaluations)


@pytest.mark.parametrize("label", sorted(RATIOS))
@pytest.mark.parametrize("current", ["cauchy", "triangle", "algebraic"])
@pytest.mark.parametrize("r", [0.5, 2.0**-12])
def test_mass_error_estimate_covers_tight_tolerance_error(label, current, r):
    sing = RATIOS[label]
    spec = builtin_currents(sing)[current]
    res = mass_F(spec, sing, r)
    tight = mass_F(
        spec, sing, r, tol=Tolerance(rel_tol=1e-12, abs_tol=1e-20 * r * r, max_evals=4_000_000)
    )
    assert tight.error_estimate < res.error_estimate
    assert res.error_estimate >= abs(res.value - tight.value)


# mass_F at Tolerance(1e-12, 1e-22 r^2, 20_000_000) on the (x, m) panel
# engine that preceded the corner pullback, an independent route: its error
# bars read at most 1.02e-12 of F.  The default mass_F on the pullback
# agrees with every value to 6e-14; that engine's own default was 1.5e-11 to
# 1.8e-10 off.
TIGHT_MASS = {
    ("square", "cauchy", 0.5): 0.18207786298588352,
    ("square", "cauchy", 2.0**-12): 6.733101059190937e-09,
    ("square", "triangle", 0.5): 0.06316578975096966,
    ("square", "triangle", 2.0**-12): 2.14775888275524e-09,
    ("square", "algebraic", 0.5): 0.18492123797265625,
    ("square", "algebraic", 2.0**-12): 8.211381559732222e-09,
    ("shallow", "cauchy", 0.5): 0.5500499246832435,
    ("shallow", "cauchy", 2.0**-12): 7.445173771142832e-08,
    ("shallow", "triangle", 0.5): 0.18902295020882467,
    ("shallow", "triangle", 2.0**-12): 2.3852146058000245e-08,
    ("shallow", "algebraic", 0.5): 0.5878517375458746,
    ("shallow", "algebraic", 2.0**-12): 8.87219819235448e-08,
    ("steep", "cauchy", 0.5): 0.01015972011804272,
    ("steep", "cauchy", 2.0**-12): 5.575858064342575e-12,
    ("steep", "triangle", 0.5): 0.003265513335736703,
    ("steep", "triangle", 2.0**-12): 1.7748552123014387e-12,
    ("steep", "algebraic", 0.5): 0.011775818519275602,
    ("steep", "algebraic", 2.0**-12): 7.087830315497797e-12,
}


@pytest.mark.parametrize("label, current, r", sorted(TIGHT_MASS))
def test_default_mass_matches_the_tight_earlier_engine(label, current, r):
    sing = RATIOS[label]
    got = mass_F(builtin_currents(sing)[current], sing, r).value
    assert got == pytest.approx(TIGHT_MASS[label, current, r], rel=1e-12, abs=0.0)


def test_mass_budget_exhaustion_raises_with_best_estimate():
    # the best estimate describes the returned quantity: weighted by the
    # transverse measure, and for the upper bound scaled by its front factor
    atom = complex(math.exp(-math.pi * RATIO_SQUARE.b))
    triple = CurrentSpec(atoms=(atom,), profiles=(cauchy_profile(),), weights=(3.0,))
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    starved = Tolerance(rel_tol=1e-12, abs_tol=1e-20, max_evals=100)
    for fn in (mass_F, mass_upper_intermediate):
        for spec in (cur, triple):
            with pytest.raises(QuadratureError) as info:
                fn(spec, RATIO_SQUARE, 0.5, tol=starved)
            best = info.value.best
            assert best is not None
            assert best.evaluations > 100
            assert best.value == pytest.approx(fn(spec, RATIO_SQUARE, 0.5).value, rel=1e-3)


def test_mass_of_too_slowly_decaying_profile_is_reported_divergent():
    # beta = 0.3 <= 1/gamma = 0.5: the boundary integrability functional
    # diverges, so the current has infinite mass near the origin
    cur = default_current(RATIO_SQUARE, algebraic_profile(exponent=0.3))
    with pytest.raises(QuadratureError, match="diverges"):
        mass_F(cur, RATIO_SQUARE, 0.5)


def test_mass_whose_tail_misses_its_target_raises(tmp_path, capsys):
    # beta = 0.9 barely beats 1/gamma = 0.75: the algebraic rate gamma beta =
    # 1.2 leaves a tail bound near 1.2e-5 after the max cut's 80 doublings,
    # far above the target, which once came back as a normal result
    cur = default_current(RATIO_SHALLOW, algebraic_profile(exponent=0.9))
    r = math.exp(-2.0)
    with pytest.raises(QuadratureError, match="tail bound") as info:
        mass_F(cur, RATIO_SHALLOW, r)
    best = info.value.best
    assert best.value == pytest.approx(0.2121, rel=1e-3)
    assert best.error_estimate > 1e-6 and best.evaluations > 0
    # the CLI reports the shortfall: exit 1, the failure in the warnings
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "singularity": [[[1.0, 0.0], [1.0, 1.0]]],
        "current": {"family": "algebraic", "exponent": 0.9},
        "grids": {"rGrid": [r]},
    }))
    assert run_command(["profile", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    warnings = json.loads((tmp_path / "out" / "metadata.json").read_text())["warnings"]
    assert any("mass profile algebraic" in w and "tail bound" in w for w in warnings)


def test_square_ratio_mass_is_within_two_permille_of_oracle():
    # the stated acceptance tolerance is 2%; the implementation actually
    # lands at 2e-5 of the corrected dense grid — keep a tighter guard so a
    # silent regression toward the 2% edge is caught early
    value = mass_F(triangle_current(RATIO_SQUARE), RATIO_SQUARE, 0.5).value
    assert value == pytest.approx(DENSE_ORACLE_HALF["square"], rel=2e-3)


# ---------------------------------------------------------------------------
# intermediate upper bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.5, 2.0**-4])
def test_intermediate_bound_dominates_mass(r):
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    f = mass_F(cur, RATIO_SQUARE, r).value
    ub = mass_upper_intermediate(cur, RATIO_SQUARE, r).value
    assert 0.0 < f <= ub


def test_intermediate_bound_dominates_mass_steep_ratio():
    cur = triangle_current(RATIO_STEEP)
    f = mass_F(cur, RATIO_STEEP, 0.5).value
    ub = mass_upper_intermediate(cur, RATIO_STEEP, 0.5).value
    assert 0.0 < f <= ub


def test_intermediate_bound_of_too_slowly_decaying_profile_is_reported_divergent():
    # the bound's integrand decays no faster than mass_F's, so it diverges too
    cur = default_current(RATIO_SQUARE, algebraic_profile(exponent=0.3))
    with pytest.raises(QuadratureError, match="diverges"):
        mass_upper_intermediate(cur, RATIO_SQUARE, 0.5)


@pytest.mark.parametrize("abs_tol", [1e-5, 1e-6, 1e-7])
def test_intermediate_bound_absolute_tolerance_targets_the_returned_value(abs_tol):
    # with the relative target out of reach, the absolute one decides; it
    # applies to the bound itself, front factor (1+|lam|)^2 2/b = 8 included
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    res = mass_upper_intermediate(
        cur, RATIO_SQUARE, 0.25, Tolerance(rel_tol=1e-15, abs_tol=abs_tol, max_evals=4_000_000)
    )
    assert res.error_estimate <= abs_tol


def test_intermediate_bound_is_the_kernel_weighted_boundary_mass():
    # Fubini: int H K_s dy = pi e^{2s} (1/b) iint_{min >= s} ext e^{-2 min},
    # so bound_G_via_kernel's default (exact) right member is
    # pi * upper / (2 (1+|lam|)^2 r^2), and refining the per-node y rule
    # converges to it
    sing, r = RATIO_SQUARE, 2.0**-2
    cur = default_current(sing, cauchy_profile())
    upper = mass_upper_intermediate(cur, sing, r).value
    _, exact = bound_G_via_kernel(cur, sing, r)
    assert exact == math.pi * upper / (2.0 * (1.0 + abs(sing.lam)) ** 2 * r * r)
    gap_8, gap_16 = (
        abs(bound_G_via_kernel(cur, sing, r, y_order=n)[1] / exact - 1.0) for n in (8, 16)
    )
    assert gap_16 < 1e-6
    assert gap_16 <= gap_8 / 10.0


def test_exact_boundary_mass_keeps_the_tail_the_y_window_drops():
    # the per-node route cuts a decaying profile at |y| = 10^6; for the
    # algebraic one (H ~ |y|^-3/2) the exact route keeps the mass beyond
    # that window, about 1.9e-6 of the total
    sing, r = RATIO_SQUARE, 2.0**-2
    cur = builtin_currents(sing)["algebraic"]
    _, exact = bound_G_via_kernel(cur, sing, r)
    _, windowed = bound_G_via_kernel(cur, sing, r, y_order=16)
    assert 1e-6 < exact / windowed - 1.0 < 1e-5


# ---------------------------------------------------------------------------
# mass_profile
# ---------------------------------------------------------------------------


def test_default_r_grid_is_geometric_and_decreasing():
    grid = default_r_grid()
    assert len(grid) == 12
    assert grid[0] == 0.5
    assert grid[-1] == 2.0**-12
    assert all(hi / lo == pytest.approx(2.0) for hi, lo in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        default_r_grid(0)


def test_profile_of_zero_current_is_identically_zero():
    prof = mass_profile(
        builtin_currents(RATIO_SQUARE)["zero"], RATIO_SQUARE, default_r_grid(4)
    )
    assert prof.F == (0.0,) * 4
    assert prof.G == (0.0,) * 4
    assert prof.lelong_estimate == 0.0
    assert prof.monotone_violations == ()


def test_profile_validates_grid():
    cur = triangle_current(RATIO_SQUARE)
    with pytest.raises(ValueError):
        mass_profile(cur, RATIO_SQUARE, ())
    with pytest.raises(ValueError):
        mass_profile(cur, RATIO_SQUARE, (0.25, 0.5))
    with pytest.raises(ValueError):
        mass_profile(cur, RATIO_SQUARE, (0.5, 0.5))
    with pytest.raises(ValueError):
        mass_profile(cur, RATIO_SQUARE, (1.5, 0.5))


@pytest.fixture(scope="module")
def cauchy_profile_6():
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    return mass_profile(cur, RATIO_SQUARE, default_r_grid(6))


def test_profile_mass_is_nondecreasing_in_radius(cauchy_profile_6):
    prof = cauchy_profile_6
    assert all(hi >= lo for hi, lo in zip(prof.F, prof.F[1:]))


def test_profile_density_monotone_in_radius(cauchy_profile_6):
    prof = cauchy_profile_6
    assert prof.monotone_violations == ()
    # G actually decreases strictly here, far beyond the error estimates
    assert all(hi > lo for hi, lo in zip(prof.G, prof.G[1:]))


def test_profile_reports_terminal_density_and_fit(cauchy_profile_6):
    prof = cauchy_profile_6
    assert prof.lelong_estimate == prof.G[-1]
    assert math.isfinite(prof.extrapolation_intercept)
    assert math.isfinite(prof.extrapolation_slope)
    # vanishing density: the fit against |log r|^{1-gamma} extrapolates to a
    # small intercept compared to the observed G range
    assert abs(prof.extrapolation_intercept) < 0.5 * prof.G[0]


def test_profile_decay_slope_near_one_minus_gamma(cauchy_profile_6):
    # expected slope -(gamma - 1) = -1; a six-level grid is still feeling
    # finite-radius corrections, so only a coarse window is asserted here
    slope = profile_decay_slope(cauchy_profile_6)
    assert -1.35 < slope < -0.6


def test_profile_decay_slope_needs_two_points(cauchy_profile_6):
    with pytest.raises(ValueError):
        profile_decay_slope(cauchy_profile_6, min_log_r=100.0)


# ---------------------------------------------------------------------------
# g_profile
# ---------------------------------------------------------------------------


def test_g_profile_matches_kernel_times_weight():
    # at y = 0 the weight is 1, so g equals the kernel itself; the frozen
    # decimal is the closed-form exponential-integral value at s = 1
    assert g_profile(RATIO_SQUARE, 1.0, 0.0) == pytest.approx(0.361328616888223, rel=1e-6)


def test_g_profile_decays_in_s():
    g1 = g_profile(RATIO_SQUARE, 1.0, 0.0)
    g128 = g_profile(RATIO_SQUARE, 128.0, 0.0)
    assert g128 < 0.05 * g1


def test_g_profile_nonnegative_and_bounded():
    values = [
        g_profile(RATIO_SQUARE, s, y)
        for s in (1.0, 8.0, 64.0)
        for y in (0.0, -2.0, 2.0, 50.0)
    ]
    assert all(v >= 0.0 for v in values)
    assert max(values) < 2.0


# ---------------------------------------------------------------------------
# bound_G_via_kernel
# ---------------------------------------------------------------------------


def test_bound_for_zero_current_is_zero_pair():
    lhs, rhs = bound_G_via_kernel(builtin_currents(RATIO_SQUARE)["zero"], RATIO_SQUARE, 0.5)
    assert (lhs, rhs) == (0.0, 0.0)


def test_bound_rejects_radius_outside_unit_interval():
    with pytest.raises(ValueError):
        bound_G_via_kernel(triangle_current(RATIO_SQUARE), RATIO_SQUARE, 1.0)


def test_bound_pair_is_positive_with_moderate_ratio():
    lhs, rhs = bound_G_via_kernel(triangle_current(RATIO_SQUARE), RATIO_SQUARE, 0.5, y_order=8)
    assert lhs > 0.0 and rhs > 0.0
    assert 0.0 < lhs / rhs < 10.0


def test_bound_with_explicit_tolerance_targets_G_like_mass_profile(monkeypatch):
    # an explicit tolerance targets G = F/r^2: its absolute part is scaled by
    # r^2 before mass_F, as in mass_profile; the right member is made cheap
    monkeypatch.setattr(mass, "kernel_K", lambda *args: QuadResult(1.0, 0.0, 0))
    cur = builtin_currents(RATIO_SQUARE)["cauchy"]
    r, tol = 2.0**-12, Tolerance(rel_tol=1e-8, abs_tol=1e-10, max_evals=2_000_000)
    lhs, _ = bound_G_via_kernel(cur, RATIO_SQUARE, r, tol=tol, y_order=2)
    assert lhs == mass_profile(cur, RATIO_SQUARE, [r], tol=tol).G[0]


def test_bound_scales_bilinearly_in_profile_height():
    tall = default_current(RATIO_SQUARE, triangle_profile(height=2.0))
    unit = triangle_current(RATIO_SQUARE)
    l1, r1 = bound_G_via_kernel(unit, RATIO_SQUARE, 0.5, y_order=8)
    l2, r2 = bound_G_via_kernel(tall, RATIO_SQUARE, 0.5, y_order=8)
    assert l2 == pytest.approx(2.0 * l1, rel=1e-6)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-6)
    assert l2 / r2 == pytest.approx(l1 / r1, rel=1e-6)


# ---------------------------------------------------------------------------
# profile dataclass contract
# ---------------------------------------------------------------------------


def test_profile_is_immutable(cauchy_profile_6):
    assert isinstance(cauchy_profile_6, MassProfile)
    with pytest.raises(AttributeError):
        cauchy_profile_6.lelong_estimate = 0.0


def test_explicit_profile_tolerance_targets_G():
    # the absolute target of an explicit tolerance applies to G = F/r^2, so
    # the smallest radius keeps its relative accuracy
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    grid = (2.0**-2, 2.0**-12)
    explicit = mass_profile(cur, RATIO_SQUARE, grid, tol=Tolerance(1e-8, 1e-10, 2_000_000))
    default = mass_profile(cur, RATIO_SQUARE, grid)
    assert explicit.G == pytest.approx(default.G, rel=1e-7)


def test_explicit_tolerance_is_honoured():
    cur = default_current(RATIO_SQUARE, cauchy_profile())
    loose = mass_F(cur, RATIO_SQUARE, 0.5, tol=Tolerance(rel_tol=1e-5, abs_tol=1e-9, max_evals=500_000))
    tight = mass_F(cur, RATIO_SQUARE, 0.5)
    assert loose.value == pytest.approx(tight.value, rel=1e-4)
    assert loose.evaluations < tight.evaluations
