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
* 30-digit ``mpmath`` values of the diagonal integral that ``kernel_K``
  evaluates (:func:`_mpmath_kernel`: ``mpmath.quad`` with ``mpmath.hyp2f1``,
  break points where the hypergeometric argument passes the unit circle).
  The tables below were frozen from it; a test recomputes the pins and
  checks it against the closed form ``e^{2s} E_1(2s)``.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from leafcurrent import kernels, quadrature
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
from leafcurrent.quadrature import QuadratureError, QuadResult, Tolerance, integrate_1d

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


def test_exp_moment_oracle_integrand_stays_finite_at_the_double_range(monkeypatch):
    # integrate_1d's tail chart may hand the integrand nodes up to ~1e308,
    # where 2x overflows; elsewhere the integrand keeps its bits
    seen = []
    monkeypatch.setattr(kernels, "integrate_1d", lambda f, *args, **kw: seen.append(f) or integrate_1d(f, *args, **kw))
    for s0 in (1.0, 37.5):
        exp_moment_oracle(s0)
        x = s0 + np.linspace(0.0, 1000.0, 4001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert seen[-1](np.array([1e308, np.finfo(float).max])).tolist() == [0.0, 0.0]
            assert np.array_equal(seen[-1](x), x * np.exp(2.0 * s0 - 2.0 * x))


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


def _mpmath_kernel(sing, s: float, y: float, dps: int = 30):
    """``K_s(y)`` at ``dps`` digits from the same 1D integral as ``kernel_K``:
    ``(1/b) int_s^inf e^{2s-2m} [b Im Phi(z_m) + Im(Phi(z_m)/c)] dm`` with
    ``Phi(z) = -z^{1-gamma}/(gamma-1) 2F1(1, 1-1/gamma; 2-1/gamma; y z^-gamma)``,
    ``z_m = m ((1-a)/b + i)`` and ``c = -a/b + i``; ``gamma`` is recomputed at
    ``dps`` digits from the exact doubles ``a`` and ``b``.  The integrand is
    scaled by ``|z_s|^{gamma-1}``: ``mpmath.quad`` stops on an absolute
    error, which would leave a tiny ``K`` (1e-32 at ``gamma = 9``) only
    8 digits."""
    with mpmath.workdps(dps):
        a, b, s, y = (mpmath.mpf(v) for v in (sing.a, sing.b, s, y))
        gamma = mpmath.pi / mpmath.atan2(b, -a)
        theta = mpmath.atan2(1, (1 - a) / b)
        radius = abs(mpmath.mpc((1 - a) / b, 1))
        c = mpmath.mpc(-a / b, 1)

        def f(x):
            r = (s + x) * radius
            turn = y * r**-gamma * mpmath.expj(-gamma * theta)
            phi = -((1 + x / s) ** (1 - gamma)) * mpmath.expj((1 - gamma) * theta) / (gamma - 1)
            phi *= mpmath.hyp2f1(1, 1 - 1 / gamma, 2 - 1 / gamma, turn)
            return mpmath.exp(-2 * x) * (b * phi.imag + (phi / c).imag) / b

        points = [mpmath.mpf(p) for p in (0, 0.5, 2, 8, 24, 60)]
        # the integrand peaks where |y z_m^-gamma| passes 1: break around it
        peak = abs(y) ** (1 / gamma) / radius - s
        if y != 0 and 0 < peak < 60:
            width = max(mpmath.mpf("0.02") * (s + peak), mpmath.mpf("1e-3"))
            points += [p for p in (peak + k * width for k in (-8, -2, -0.5, 0, 0.5, 2, 8)) if 0 < p < 60]
        return mpmath.quad(f, sorted(set(points)) + [mpmath.inf]) * (s * radius) ** (1 - gamma)


CONFIG_TOL = Tolerance(rel_tol=1e-8, abs_tol=1e-10, max_evals=2_000_000)
# _mpmath_kernel at 20 digits on four cells of the configuration's tolerance
PINNED_KERNEL = [
    (RATIO_SQUARE, 1.0, 0.0, "0.3613286168882225847"),
    (RATIO_SQUARE, 8.0, 10.0, "0.05894952055684589432"),
    (RATIO_SHALLOW, 64.0, -1000.0, "0.16315855105589951603"),
    (RATIO_STEEP, 8.0, 10.0, "0.000038672442928841218339"),
]


@pytest.mark.parametrize("sing, s, y, reference", PINNED_KERNEL)
def test_kernel_matches_pinned_values(sing, s, y, reference):
    got = kernel_K(sing, s, y, CONFIG_TOL)
    assert got.value == pytest.approx(float(reference), rel=1e-13, abs=0.0)


def test_mpmath_oracle_reproduces_the_closed_form_and_the_pins():
    # at ratio i on the centre line the integral is e^{2s} E_1(2s)
    with mpmath.workdps(30):
        exact = mpmath.exp(4) * mpmath.e1(4)
        assert abs(_mpmath_kernel(RATIO_SQUARE, 2.0, 0.0) / exact - 1) < 1e-25
        for sing, s, y, reference in PINNED_KERNEL:
            assert abs(_mpmath_kernel(sing, s, y) / mpmath.mpf(reference) - 1) < 1e-19


RATIOS = {
    "i": RATIO_SQUARE,
    "1+i": RATIO_SHALLOW,
    "-1+i": RATIO_STEEP,
    "5+0.2i": normalize_singularity(1, 5 + 0.2j),  # gamma = 1.013, the argument hugs the cut
    "0.1+0.1i": normalize_singularity(1, 0.1 + 0.1j),  # gamma = 4/3
    "0.3+2i": normalize_singularity(1, 0.3 + 2j),  # gamma = 1.827
}

# _mpmath_kernel where the hypergeometric argument y z_m^-gamma starts on the
# unit circle: s = |y|^{1/gamma} / |(1-a)/b + i|
MPMATH_UNIT_CIRCLE = [
    ("i", 70.71067811865474, 10000.0, "0.0061054296764790184591"),
    ("i", 70.71067811865474, -10000.0, "0.0061054296764790184591"),
    ("1+i", 1000.0, 10000.0, "0.093887457366686639459"),
    ("1+i", 1000.0, -10000.0, "0.095412027518779973979"),
    ("-1+i", 4.47213595499958, 10000.0, "0.00016193179912783199672"),
    ("-1+i", 4.47213595499958, -10000.0, "0.00019453449922648769163"),
    ("5+0.2i", 444.14560433613514, 10000.0, "1.3651552144190738711"),
    ("5+0.2i", 444.14560433613514, -10000.0, "0.94461535652093302888"),
    ("0.1+0.1i", 110.43152607484653, 10000.0, "0.80755456473180759455"),
    ("0.1+0.1i", 110.43152607484653, -10000.0, "0.6388298925293005804"),
    ("0.3+2i", 146.04254558068493, 10000.0, "0.0080856636911262350351"),
    ("0.3+2i", 146.04254558068493, -10000.0, "0.0096595315969868615674"),
]

# _mpmath_kernel at s = 8 with |y| = 1e6, and at y = -1e4 with s at 0.5 and
# 0.9 of its unit-circle depth, where the argument starts outside the circle
MPMATH_WIDE = [
    ("i", 8.0, 1000000.0, "0.00078539774956411897494"),
    ("i", 8.0, -1000000.0, "0.00078539774956411897494"),
    ("i", 35.35533905932737, -10000.0, "0.0075548862378830638773"),
    ("i", 63.639610306789265, -10000.0, "0.0064569292746092334733"),
    ("1+i", 8.0, 1000000.0, "0.037252580990921567426"),
    ("1+i", 8.0, -1000000.0, "0.026345180235588426701"),
    ("1+i", 500.0, -10000.0, "0.094187263469052732561"),
    ("1+i", 900.0, -10000.0, "0.096144168832220784391"),
    ("-1+i", 8.0, 1000000.0, "9.9454134494485539976e-6"),
    ("-1+i", 8.0, -1000000.0, "0.000010515721148579558592"),
    ("-1+i", 2.23606797749979, -10000.0, "0.00032707694155582494271"),
    ("-1+i", 4.024922359499622, -10000.0, "0.00023745505226897918374"),
    ("5+0.2i", 8.0, 1000000.0, "1.300776606085462698"),
    ("5+0.2i", 8.0, -1000000.0, "0.2599523423964527296"),
    ("5+0.2i", 222.07280216806757, -10000.0, "0.29145397434402997381"),
    ("5+0.2i", 399.7310439025216, -10000.0, "0.34814015059006088843"),
    ("0.1+0.1i", 8.0, 1000000.0, "0.03746298779841870052"),
    ("0.1+0.1i", 8.0, -1000000.0, "0.26322233420156823512"),
    ("0.1+0.1i", 55.215763037423265, -10000.0, "0.71669193455222937513"),
    ("0.1+0.1i", 99.38837346736187, -10000.0, "0.65215205883454218165"),
    ("0.3+2i", 8.0, 1000000.0, "0.0016517132164942913338"),
    ("0.3+2i", 8.0, -1000000.0, "0.00082151817390304267003"),
    ("0.3+2i", 73.02127279034246, -10000.0, "0.0092235433263073921178"),
    ("0.3+2i", 131.43829102261645, -10000.0, "0.0099351699697941077147"),
]


@pytest.mark.parametrize("ratio, s, y, reference", MPMATH_UNIT_CIRCLE)
def test_kernel_matches_mpmath_where_the_argument_meets_the_unit_circle(ratio, s, y, reference):
    got = kernel_K(RATIOS[ratio], s, y)
    gap = abs(got.value - float(reference))
    assert gap <= 1e-13 * float(reference)
    assert gap <= got.error_estimate


@pytest.mark.parametrize("ratio, s, y, reference", MPMATH_WIDE)
def test_kernel_error_bar_covers_the_mpmath_error(ratio, s, y, reference):
    # among them lambda = 1+i, s = 8, y = -1e6, where the bar of the 2D
    # default this route replaced was 1.9x too small
    got = kernel_K(RATIOS[ratio], s, y)
    assert abs(got.value - float(reference)) <= got.error_estimate


@pytest.mark.parametrize("sing", [RATIO_SQUARE, RATIO_SHALLOW, RATIO_STEEP])
def test_kernel_approaches_its_asymptotic_constant(sing):
    # s^{gamma-1} K_s(y) -> C_K = (b Im kappa + Im(kappa/c)) / (2b) with
    # kappa = -((1-a)/b + i)^{1-gamma} / (gamma-1), at the rate 1/s
    a, b, gamma = sing.a, sing.b, sing.gamma
    kappa = -complex((1.0 - a) / b, 1.0) ** (1.0 - gamma) / (gamma - 1.0)
    c_k = (b * kappa.imag + (kappa / complex(-a / b, 1.0)).imag) / (2.0 * b)
    for s in (2.0**10, 2.0**20):
        for y in (0.0, 10.0, -10.0):
            scaled = s ** (gamma - 1.0) * kernel_K(sing, s, y).value
            assert s * abs(scaled / c_k - 1.0) <= 2.0


# Bitwise pins of the explicit-tolerance path on the kernel-sweep cells (3
# ratios x s in {1, 8, 64} x y in {0, 10, -1000}): value, error estimate and
# evaluation count.  A rewrite of the panel rule or of the integrand's
# arithmetic that is meant to be exact must not move a bit.  Each row leads
# with the value and error estimate that the retired 2D route gave at the
# same tolerance; the 1D value must lie inside that error bar.
BITWISE_KERNEL = [
    (RATIO_SQUARE, 1.0, 0.0, 0.36132861651663073, 3.6173778043111635e-09, 0.3613286168882226, 1.0727151806202605e-14, 480),
    (RATIO_SQUARE, 1.0, 10.0, 0.22511528329517966, 2.25250369323415e-09, 0.2251152835243368, 7.459174417002124e-15, 480),
    (RATIO_SQUARE, 1.0, -1000.0, 0.024833304306186632, 2.444869009455715e-10, 0.02483330432954995, 1.0148608756977224e-15, 480),
    (RATIO_SQUARE, 8.0, 0.0, 0.05900810354394558, 6.146030496989221e-10, 0.05900810360855643, 2.02523170800015e-15, 480),
    (RATIO_SQUARE, 8.0, 10.0, 0.05894952049246304, 6.123959200537147e-10, 0.05894952055684588, 2.025513982441877e-15, 480),
    (RATIO_SQUARE, 8.0, -1000.0, 0.02442657334683567, 2.6434212385138873e-10, 0.02442657337843843, 1.0092573041441441e-15, 480),
    (RATIO_SQUARE, 64.0, 0.0, 0.007752396827652411, 9.188791514948761e-11, 0.0077523968387448235, 3.0532313978887477e-16, 480),
    (RATIO_SQUARE, 64.0, 10.0, 0.007752394586253527, 9.188781248488503e-11, 0.007752394597345927, 3.0540777281786817e-16, 480),
    (RATIO_SQUARE, 64.0, -1000.0, 0.007730161204405299, 9.085302520638405e-11, 0.007730161215386005, 3.0509813486288025e-16, 480),
    (RATIO_SHALLOW, 1.0, 0.0, 0.9121958922479628, 9.106412201074529e-09, 0.9121958931850012, 4.189561094390573e-14, 480),
    (RATIO_SHALLOW, 1.0, 10.0, 0.6244003718236584, 6.1637314045642836e-09, 0.624400372421522, 2.7743805774796516e-14, 480),
    (RATIO_SHALLOW, 1.0, -1000.0, 0.14851276554624412, 1.263388807439511e-09, 0.1485127656659962, 9.298383951392797e-15, 480),
    (RATIO_SHALLOW, 8.0, 0.0, 0.5023685672126997, 5.021592171806225e-09, 0.5023685677193156, 2.573278450950657e-14, 480),
    (RATIO_SHALLOW, 8.0, 10.0, 0.47909817007966626, 4.790887048646932e-09, 0.47909817056511117, 2.414731404629612e-14, 480),
    (RATIO_SHALLOW, 8.0, -1000.0, 0.1502568269710481, 1.3339244076234047e-09, 0.15025682705737153, 1.0362072503148799e-14, 480),
    (RATIO_SHALLOW, 64.0, 0.0, 0.25546958283991267, 2.552985995000973e-09, 0.2554695831178805, 1.4634142707849553e-14, 480),
    (RATIO_SHALLOW, 64.0, 10.0, 0.2549103126993741, 2.5744347794145567e-09, 0.25491031297915956, 1.461231288252672e-14, 480),
    (RATIO_SHALLOW, 64.0, -1000.0, 0.16315855091063747, 1.6524658384808982e-09, 0.1631585510558995, 1.1529841103147663e-14, 480),
    (RATIO_STEEP, 1.0, 0.0, 0.01039067089735136, 1.2146234529237106e-10, 0.010390670909567442, 3.2924061148807013e-16, 480),
    (RATIO_STEEP, 1.0, 10.0, 0.009890491436518519, 1.164770369871972e-10, 0.009890491448209937, 3.1858260668492684e-16, 480),
    (RATIO_STEEP, 1.0, -1000.0, 0.0017810877300607664, 6.677220214186336e-11, 0.0017810877364922404, 8.815952360300034e-17, 480),
    (RATIO_STEEP, 8.0, 0.0, 3.8672997200162836e-05, 6.924934294685225e-11, 3.867300346526738e-05, 1.5188102332792659e-18, 480),
    (RATIO_STEEP, 8.0, 10.0, 3.867243666390426e-05, 6.92476829017299e-11, 3.867244292884122e-05, 1.5137596728279436e-18, 480),
    (RATIO_STEEP, 8.0, -1000.0, 3.872849538721417e-05, 6.941388813420568e-11, 3.8728501668927366e-05, 1.5157565545757079e-18, 480),
    (RATIO_STEEP, 64.0, 0.0, 8.698390662472807e-08, 1.346240932056561e-11, 8.698619951695501e-08, 4.0946386036252465e-21, 480),
    (RATIO_STEEP, 64.0, 10.0, 8.698390626489207e-08, 1.346240927210692e-11, 8.698619915710152e-08, 4.100432036869509e-21, 480),
    (RATIO_STEEP, 64.0, -1000.0, 8.698394260823084e-08, 1.346241416719646e-11, 8.69862355022073e-08, 4.0985945429003984e-21, 480),
]


@pytest.mark.parametrize("sing, s, y, value_2d, error_2d, value, error, evaluations", BITWISE_KERNEL)
def test_kernel_explicit_tolerance_is_bitwise_pinned(sing, s, y, value_2d, error_2d, value, error, evaluations):
    got = kernel_K(sing, s, y, CONFIG_TOL)
    assert (got.value, got.error_estimate, got.evaluations) == (value, error, evaluations)
    assert abs(got.value - value_2d) <= error_2d


@pytest.mark.parametrize("sing, s, y, value_2d", [row[:4] for row in BITWISE_KERNEL])
def test_kernel_uv_form_is_the_retired_2d_route(sing, s, y, value_2d):
    # at an explicit tolerance the cross-check runs the integrand and engine
    # call of kernel_K's retired 2D route unchanged
    assert kernel_uv_form(sing, s, y, CONFIG_TOL) == value_2d


def test_kernel_never_calls_the_2d_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel_K called integrate_2d")

    monkeypatch.setattr(quadrature, "integrate_2d", forbidden)
    assert not hasattr(kernels, "integrate_2d")
    for tol in (None, CONFIG_TOL):
        got = kernel_K(RATIO_SQUARE, 2.0, 10.0, tol)
        assert got.evaluations == 480  # the 12 initial panels, 16 + 24 nodes each
        assert got.error_estimate <= 1e-13 * got.value


def test_kernel_explicit_tolerance_raises_with_best_estimate():
    plain = kernel_K(RATIO_SQUARE, 2.0, 10.0)
    # a target below the rounding floor cannot be met
    with pytest.raises(QuadratureError) as info:
        kernel_K(RATIO_SQUARE, 2.0, 10.0, Tolerance(1e-16, 1e-300, 100_000))
    assert info.value.best.value == plain.value
    assert info.value.best.error_estimate > 1e-16 * plain.value
    # a budget below the initial panels
    with pytest.raises(QuadratureError, match="budget") as info:
        kernel_K(RATIO_SQUARE, 2.0, 10.0, Tolerance(1e-8, 1e-10, 100))
    assert info.value.best.evaluations == 480


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


@pytest.mark.parametrize("s", [1e8, 1e17, 1e120])
def test_kernel_uv_form_rejects_depths_past_its_panels(monkeypatch, s):
    # the corner engine's panels sit at absolute (t, v): past s = 1e7 the
    # cross-check misses its target, runs out of budget or returns a wrong
    # value, so it refuses before evaluating anything
    monkeypatch.setattr(quadrature, "integrate_2d", lambda *args: pytest.fail("integrate_2d called"))
    for tol in (None, CONFIG_TOL):
        with pytest.raises(ValueError, match="s <= 1e7"):
            kernel_uv_form(RATIO_SQUARE, s, 0.0, tol)


@pytest.mark.parametrize("ratio", [1j, 1 + 1j, -1 + 1j, 5 + 0.2j, 0.3 + 2j])
def test_kernel_uv_form_holds_at_its_deepest_depth(ratio):
    sing = normalize_singularity(1, ratio)
    for y in (0.0, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0, 1e3, -1e3, 1e4, -1e4):
        panel = kernel_K(sing, 1e7, y).value
        assert kernel_uv_form(sing, 1e7, y) == pytest.approx(panel, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("s, y", [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)])
def test_kernel_rejects_non_finite_inputs(monkeypatch, s, y):
    # rejected before the integrand is evaluated: unchecked, an infinite
    # depth or height makes a non-finite integrand
    calls = []
    real = kernels.hyp2f1
    monkeypatch.setattr(kernels, "hyp2f1", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(quadrature, "integrate_2d", lambda *args: calls.append(args))
    for route in (kernel_K, kernel_uv_form):
        with pytest.raises(ValueError, match="finite"):
            route(RATIO_SQUARE, s, y)
        with pytest.raises(ValueError, match="finite"):
            route(RATIO_SQUARE, s, y, CONFIG_TOL)
    assert calls == []


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


def test_all_failed_kernel_sweep_raises_a_quadrature_error(monkeypatch):
    # a sweep with no successful cell is a quadrature failure, carrying the
    # evaluations of every failed call
    def starved_kernel(sing, s, y, tol=None):
        raise QuadratureError("budget gone", best=QuadResult(0.0, 1.0, 100))

    monkeypatch.setattr("leafcurrent.kernels.kernel_K", starved_kernel)
    with pytest.raises(QuadratureError, match="all kernel cells failed") as info:
        kernel_report(RATIO_SQUARE, s_grid=(2.0, 8.0), y_grid=(0.0, 10.0))
    assert info.value.best.evaluations == 4 * 100
    assert math.isnan(info.value.best.value) and math.isnan(info.value.best.error_estimate)


def test_kernel_report_cells_count_their_evaluations():
    # the kernel-sweep cells at lambda = i: the default and the config
    # tolerance both stop at the initial panels, so their counts match
    grids = (1.0, 8.0, 64.0), (0.0, 10.0, -1000.0)
    default = kernel_report(RATIO_SQUARE, *grids)
    explicit = kernel_report(RATIO_SQUARE, *grids, tol=Tolerance(1e-8, 1e-10, 2_000_000))
    for report in (default, explicit):
        assert len(report.cells) == 9 and all(c.evaluations > 0 for c in report.cells)
    assert default.cells[0].evaluations == kernel_K(RATIO_SQUARE, 1.0, -1000.0).evaluations
    assert [c.evaluations for c in default.cells] == [c.evaluations for c in explicit.cells]


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


def _reference_draws(sing, regime, sample_count, seed, thresholds, y_max):
    """``(v, t, y)`` of a height regime, drawn one sample at a time by scalar
    generator calls: the definition of the draws that the sampler replays in
    bulk from raw words.  ``seed`` is anything ``np.random.default_rng`` takes."""
    c2, c3 = thresholds.c2, thresholds.c3
    gamma = sing.gamma
    rng = np.random.default_rng(seed)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    y_lo = 1.0
    if regime in ("near-origin", "boundary-strip"):
        y_lo = max(1.0, (c2 if regime == "near-origin" else c3) ** gamma)
        if y_lo >= y_max:
            raise EmptyRegimeError(regime)
    inv_gamma = 1.0 / gamma
    vs, ts, ys = np.empty(sample_count), np.empty(sample_count), np.empty(sample_count)
    for k in range(sample_count):
        if regime == "boundary-strip":
            y = math.exp(uniform(math.log(y_lo), math.log(y_max)))
        else:
            mag = float(np.exp(uniform(math.log(y_lo), math.log(y_max))))
            y = mag if rng.integers(0, 2) else -mag
        Y = (1.0 + abs(y)) ** inv_gamma
        if regime == "far":
            lo = max(1.0, c2 * Y)
            mx = lo * math.exp(uniform(0.0, math.log(10.0)))
            mn = math.exp(uniform(0.0, math.log(mx)))
        elif regime == "near-origin":
            mx = math.exp(uniform(0.0, math.log(Y / c2)))
            mn = math.exp(uniform(0.0, math.log(mx))) if mx > 1.0 else 1.0
        elif regime == "diagonal":
            hi = c2 * Y
            mn = math.exp(uniform(math.log(max(1.0, Y / c2)), math.log(hi)))
            mx = math.exp(uniform(math.log(mn), math.log(hi)))
        else:
            mn = math.exp(uniform(0.0, math.log(Y / c3)))
            hi = c2 * Y
            mx = math.exp(uniform(math.log(max(Y / c2, mn)), math.log(hi)))
            vs[k], ts[k], ys[k] = mn, mx, y
            continue
        vs[k], ts[k], ys[k] = (mn, mx, y) if rng.random() < 0.5 else (mx, mn, y)
    return vs, ts, ys


def _reference_band(sing, regime, draws, thresholds):
    vs, ts, ys = draws
    ratios = poisson_density(sing, vs, ts, ys) / regime_comparator(sing, regime, vs, ts, ys, thresholds)
    return float(np.max(ratios)), float(np.min(ratios))


HEIGHT_REGIMES = ("far", "near-origin", "diagonal", "boundary-strip")
REPLAY_RATIOS = [normalize_singularity(1, lam) for lam in (1j, 1 + 1j, 2 + 1j, 0.5 + 2j, -0.5 + 1j)]


@pytest.mark.parametrize("sing", [*REPLAY_RATIOS, RATIO_STEEP], ids=lambda s: f"gamma={s.gamma:.4g}")
def test_bulk_bands_equal_the_scalar_draws(sing):
    for regime in HEIGHT_REGIMES:
        for thresholds in (RegimeThresholds(), RegimeThresholds().doubled()):
            for seed in (0, 1, 7, 20250819):
                for y_max in (1e4, 1e7):
                    try:
                        reference = _reference_draws(sing, regime, 2_500, seed, thresholds, y_max)
                    except EmptyRegimeError:
                        with pytest.raises(EmptyRegimeError):
                            regime_constant_sampler(sing, regime, 2_500, seed, thresholds, y_max)
                        continue
                    # the scalar loop draws sample by sample, so its first n
                    # samples do not depend on sample_count; odd counts end on
                    # a sample that opens a fresh sign word
                    for n in (2_000, 2_001, 2_500):
                        band = regime_constant_sampler(sing, regime, n, seed, thresholds, y_max)
                        want = _reference_band(sing, regime, [a[:n] for a in reference], thresholds)
                        assert (band.sup_ratio, band.inf_ratio) == want, (regime, thresholds, seed, y_max, n)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_emitting(word: int, position: int) -> np.random.PCG64:
    """A PCG64 whose raw output number ``position`` (from 0) is ``word``.

    PCG64 steps its 128-bit state ``s -> s * multiplier + inc`` and outputs
    ``rotr64(hi(s) ^ lo(s), s >> 122)`` of the new state; a state with top six
    bits zero outputs ``hi ^ lo`` unrotated, and the steps before it are undone
    with the multiplier's inverse.
    """
    bitgen = np.random.PCG64(0)
    inc = bitgen.state["state"]["inc"]
    hi = 0x0123456789ABCDEF
    state = (hi << 64) | (hi ^ word)
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(position + 1):
        state = ((state - inc) * inverse) & _MASK128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return bitgen


@pytest.mark.parametrize("sample", [3, 6])
def test_skipped_near_origin_draw_is_replayed(sample):
    # the word of sample k's mx draw while no sample before it skipped: four
    # words a sample, one more sign word on each even sample, and mx after
    # the height and the sign
    position = 4 * sample + (sample + 1) // 2 + 1 + (sample % 2 == 0)
    word = 0x5A5  # word >> 11 == 0, so rng.random() == 0.0 and mx == exp(0.0) == 1
    assert _pcg64_emitting(word, position).random_raw(position + 1)[-1] == word
    thresholds = RegimeThresholds()
    reference = _reference_draws(RATIO_SQUARE, "near-origin", 2_001, _pcg64_emitting(word, position), thresholds, 1e4)
    assert (reference[0][sample], reference[1][sample]) == (1.0, 1.0)  # the mn draw was skipped
    y_lo = thresholds.c2**RATIO_SQUARE.gamma
    rng = np.random.default_rng(_pcg64_emitting(word, position))
    replayed = kernels._replay_draws(RATIO_SQUARE, "near-origin", rng, 2_001, y_lo, 1e4, thresholds)
    assert [a.tobytes() for a in replayed] == [a.tobytes() for a in reference]
    band = regime_constant_sampler(RATIO_SQUARE, "near-origin", 2_001, _pcg64_emitting(word, position), thresholds)
    assert (band.sup_ratio, band.inf_ratio) == _reference_band(RATIO_SQUARE, "near-origin", reference, thresholds)


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

