"""The singular kernel, its decay bound, and the five-regime Poisson estimate.

For a normalized singularity with eigenvalue ``a + ib`` and ``gamma`` the
half-plane power, the kernel is

    ``K_s(y) = (1/b) int_{min(t,v) >= s} e^{2s - 2 min(t,v)}
               V / (V^2 + (y - U)^2) dt dv``

with ``U + iV = ((t - a v)/b + i v)^gamma``; the factor ``1/b`` is the
Jacobian of ``(u, v) -> (t, v)``, ``t = b u + a v``.  The Poisson factor is
``-Im 1/(zeta^gamma - y)``, holomorphic in ``zeta``, so integrating the
non-``min`` variable first on each side of the diagonal ``t = v`` leaves one
1D integral of a closed-form hypergeometric function; :func:`kernel_K`
evaluates that.  :func:`kernel_uv_form`, its cross-check, runs the 2D
integral itself on the corner engine
:func:`~leafcurrent.quadrature.integrate_2d`.  The certified decay envelope is

    ``(1 + |y|)^{1/gamma - 1} min(1, ((1 + |y|)^{1/gamma} / s)^{gamma - 1})``

and ``bound ratio = K / envelope`` is the empirical constant of the estimate.
The module attribute ``hyp2f1`` is :func:`~leafcurrent.currents._hyp2f1`,
which imports ``scipy.special`` on its first call: only :func:`kernel_K` loads
it, and the regime machinery below never does.

The regime machinery quantifies the Poisson density ``V/(V^2 + (y-U)^2)``
against elementary comparators on five hypothesis sets parametrized by
thresholds ``c2 < c3``; part 1 is threshold-free, parts 2-5 partition (up to
boundaries) configurations by how ``max(v, t)`` compares with the scale
``(1 + |y|)^{1/gamma}``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .currents import _hyp2f1 as hyp2f1
from .geometry import Singularity, power_polar, power_polar_uv
from .quadrature import QuadratureError, QuadResult, Tolerance, integrate_1d

__all__ = [
    "RegimeThresholds",
    "RegimeBand",
    "KernelCell",
    "KernelReport",
    "EmptyRegimeError",
    "NoRootError",
    "REGIMES",
    "scale_factor",
    "bound_envelope",
    "poisson_density",
    "kernel_K",
    "kernel_uv_form",
    "kernel_report",
    "classify_regime",
    "regime_comparator",
    "regime_constant_sampler",
    "rho_solver",
    "power_real_residual",
    "exp_moment_oracle",
    "case_decay_slope",
]

REGIMES = (
    "part1-radius",
    "part1-height",
    "far",
    "near-origin",
    "diagonal",
    "boundary-strip",
)


class EmptyRegimeError(ValueError):
    """The hypothesis set of a regime is empty for the given thresholds."""


class NoRootError(RuntimeError):
    """The level equation Re((u+iv)^gamma) = y has no root on the ray."""


@dataclass(frozen=True)
class RegimeThresholds:
    """Comparability thresholds ``1 < c2 < c3`` of the regime hypotheses."""

    c2: float = 4.0
    c3: float = 16.0

    def __post_init__(self) -> None:
        if not (self.c2 > 1.0 and self.c3 > self.c2):
            raise ValueError("thresholds must satisfy 1 < c2 < c3")

    def doubled(self) -> "RegimeThresholds":
        return RegimeThresholds(c2=2.0 * self.c2, c3=2.0 * self.c3)


# Powers go through np.float_power: its float64 loop calls the C library's pow,
# as ``**`` does on scalars, so array forms keep the scalar bits; numpy's array
# power (SVML on AVX-512 builds) differs from pow in the last bit on about 5%.
def scale_factor(sing: Singularity, y) -> np.ndarray:
    """Comparability scale ``(1 + |y|)^{1/gamma}``."""
    return np.float_power(1.0 + np.abs(np.asarray(y, dtype=float)), 1.0 / sing.gamma)


def bound_envelope(sing: Singularity, s: float, y: float) -> float:
    """Certified decay envelope of ``K_s(y)`` (finite, positive)."""
    Y = float(scale_factor(sing, y))
    head = (1.0 + abs(y)) ** (1.0 / sing.gamma - 1.0)
    return head * min(1.0, (Y / s) ** (sing.gamma - 1.0))


def _sector_power(sing: Singularity, v, t):
    """``(U, V)`` of ``(u + iv)^gamma`` at sector coordinates ``(v, t)``:
    :func:`power_polar`'s operations with ``np.float_power`` for the power."""
    u = (t - sing.a * v) / sing.b
    rho = np.hypot(u, v)
    theta = np.arctan2(v, u)
    rg = np.float_power(rho, sing.gamma)
    return rg * np.cos(sing.gamma * theta), rg * np.sin(sing.gamma * theta)


def poisson_density(sing: Singularity, v, t, y):
    """Poisson value ``V / (V^2 + (y - U)^2)`` at the sector point with
    coordinates ``(v, t)`` (vectorized; arrays give the scalar form's bits)."""
    U, V = _sector_power(sing, np.asarray(v, dtype=float), np.asarray(t, dtype=float))
    return V / (V * V + np.float_power(np.asarray(y, dtype=float) - U, 2.0))


# kernel_K integrates in x = m - s over [0, 40], starting from panels that are
# narrow where the weight e^{-2x} is large.  Past x = 40 the weight is below e^-80.
_DIAG_EDGES = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0, 14.0, 22.0, 40.0])
_DIAG_SPAN = float(_DIAG_EDGES[-1])
_KERNEL_MAX_EVALS = 200_000


def kernel_K(sing: Singularity, s: float, y: float, tol: Tolerance | None = None) -> QuadResult:
    """Certified value of the singular kernel ``K_s(y)``, as one 1D integral.

    Splitting the corner at the diagonal ``t = v`` and integrating the
    non-``min`` variable first, along a straight line in ``zeta``, gives

        ``K_s(y) = (1/b) int_s^inf e^{2s-2m} [b Im Phi(z_m) + Im(Phi(z_m)/c)] dm``

    with ``z_m = m ((1-a)/b + i)``, ``c = -a/b + i`` and
    ``Phi(z) = -int_z^inf dw/(w^gamma - y)
    = -z^{1-gamma}/(gamma-1) 2F1(1, 1-1/gamma; 2-1/gamma; y z^-gamma)``.
    ``z_m^gamma`` stays in the open upper half plane, so the hypergeometric
    argument never meets the cut ``[1, inf)``.

    The integral runs in ``x = m - s`` over ``[0, 40]``, from twelve panels
    narrow near 0, on the bisection loop shared with
    :func:`~leafcurrent.quadrature.integrate_1d` (``quadrature._bisect``): its
    target is ``max(rel_tol |K|, abs_tol)``, or the rounding floor when no
    tolerance is given, and the error estimate adds the tail past ``x = 40``.

    The floor is the integral of ``e^{2s-2m} (b |Phi| + |Phi/c|) / b``, the
    magnitudes before their imaginary parts cancel, times ``eps (64 + 4 gamma
    (|log |z_m|| + pi))``: ``hyp2f1``'s own error plus the rounding of
    ``gamma``, which ``|z_m|^{1-gamma}`` amplifies.  The tail bound is a
    proof, not a probe: along the radial ray ``|w^gamma - y| >= |w|^gamma
    sin(gamma theta)``, ``theta = arg z_m``, so ``|Phi(z_m)| <=
    |z_m|^{1-gamma} / ((gamma-1) sin(gamma theta))`` for every real ``y``.

    Near ``gamma = 1`` the floor, not the rule, sets the bar: at
    ``lambda = 5+0.2i`` (``gamma = 1.013``) it is 6e-13 to 3.5e-12 of ``K``
    on the default ``(s, y)`` grid.
    ``hyp2f1`` is within 46 eps of ``mpmath`` there, and the cancellation of
    the imaginary parts scales that by about 30.

    An explicit ``tol`` raises :class:`QuadratureError` (with ``best``) when
    the error estimate exceeds its target or the evaluations exceed
    ``max_evals``; without one, only a budget of 200,000 evaluations can
    fail.  ``s`` and ``y`` must be finite.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("s must be positive and finite")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    a, b, gamma = sing.a, sing.b, sing.gamma
    theta = math.atan2(1.0, (1.0 - a) / b)
    radius = abs(complex((1.0 - a) / b, 1.0))
    c = complex(-a / b, 1.0)
    beta = 1.0 - 1.0 / gamma
    # the integrand is e^{-2x} |z_m|^{1-gamma} Im(front 2F1), and
    # e^{-2x} |z_m|^{1-gamma} |2F1| scale is its magnitude before Im
    front = -cmath.exp(1j * (1.0 - gamma) * theta) * (1.0 + 1.0 / (b * c)) / (gamma - 1.0)
    scale = (1.0 + 1.0 / (b * abs(c))) / (gamma - 1.0)
    turn = y * cmath.exp(-1j * gamma * theta)

    def integrand(centre, offset):
        x = centre + offset
        r = (s + x) * radius
        hyper = hyp2f1(1.0, beta, 1.0 + beta, turn * r**-gamma)
        weight = np.exp(-2.0 * x) * r ** (1.0 - gamma)
        # rounding floor in eps per unit of magnitude: scipy's hyp2f1 stays
        # within 46 eps of mpmath on the rays y z_m^-gamma sweeps, and the
        # double gamma's rounding (2 eps gamma, counted twice) is amplified
        # by |log |z_m|| + pi through |z_m|^{1-gamma} and the phases
        digits = 64.0 + 4.0 * gamma * (np.abs(np.log(r[:, 16:])) + math.pi)
        size = weight[:, 16:] * np.abs(hyper[:, 16:]) * (scale * quadrature._EPS) * digits
        return weight * (front * hyper).imag, size, x.size

    far = radius * (s + _DIAG_SPAN)
    tail = 0.5 * math.exp(-2.0 * _DIAG_SPAN) * scale * far ** (1.0 - gamma) / math.sin(gamma * theta)
    budget = _KERNEL_MAX_EVALS if tol is None else tol.max_evals
    return quadrature._bisect(integrand, _DIAG_EDGES, tol, budget, tail)


def kernel_uv_form(sing: Singularity, s: float, y: float, tol: Tolerance | None = None) -> float:
    """Independent route: ``K_s(y)`` as the defining 2D integral.

        ``K_s(y) = (1/b) int_{min(t,v) >= s} e^{2s - 2 min(t,v)}
                   V / (V^2 + (y - U)^2) dt dv``

    with ``U + iV = ((t - a v)/b + i v)^gamma``, integrated in ``(t, v)``
    (``t = b u + a v``, so ``1/b`` is the Jacobian) by
    :func:`~leafcurrent.quadrature.integrate_2d`.  It shares no code with
    :func:`kernel_K`, whose cross-check it is.  The default tolerance is
    ``Tolerance(1e-9, 1e-11 * bound_envelope(s, y), 4_000_000)``; an explicit
    ``tol`` goes to the engine unchanged, and there the value is bit for bit
    that of ``kernel_K``'s retired 2D route.  ``s`` and ``y`` must be finite.

    The engine's panels sit at absolute ``(t, v)``: past ``s = 1e7`` the route
    silently misses its target or fails, so deeper ``s`` raises
    :class:`ValueError` before any evaluation.  At ``s = 1e7`` it agrees with
    :func:`kernel_K` to 1.8e-10 on the default ``yGrid`` at ``lambda = i, 1+i,
    -1+i, 5+0.2i, 0.3+2i``; other ratios were not measured there.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("s must be positive and finite")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    if s > 1e7:
        raise ValueError(f"kernel_uv_form supports depths s <= 1e7, got s = {s:.6g}")
    a, b, gamma = sing.a, sing.b, sing.gamma

    def integrand(t, v):
        U, V = power_polar_uv((t - a * v) / b, v, gamma)
        m = np.minimum(t, v)
        return np.exp(2.0 * s - 2.0 * m) * V / (V * V + (y - U) ** 2) / b

    if tol is None:
        tol = Tolerance(rel_tol=1e-9, abs_tol=1e-11 * bound_envelope(sing, s, y), max_evals=4_000_000)
    return quadrature.integrate_2d(integrand, s, gamma + 1.0, tol).value


def exp_moment_oracle(s0: float, tol: Tolerance | None = None) -> float:
    """Quadrature of ``int_{s0}^inf s e^{2 s0 - 2 s} ds`` (equals s0/2 + 1/4)."""
    if s0 < 1.0:
        raise ValueError("s0 must be at least 1")
    tol = tol or Tolerance(rel_tol=1e-10, abs_tol=1e-12, max_evals=500_000)
    # e^{-1600} and e^{2 s0 - 2x} are both 0 wherever the clamp acts, and the
    # clamp keeps 2x from overflowing at the tail chart's farthest nodes
    return integrate_1d(lambda x: x * np.exp(2.0 * np.maximum(s0 - x, -800.0)), s0, math.inf, tol=tol).value


# ---------------------------------------------------------------------------
# Regime classification and empirical bands
# ---------------------------------------------------------------------------


def classify_regime(
    sing: Singularity,
    v: float,
    t: float,
    y: float,
    thresholds: RegimeThresholds | None = None,
) -> str:
    """Name of the regime hypothesis satisfied at ``(v, t, y)``.

    Requires ``min(v, t) >= 1``.  Hypotheses are checked in the estimate's
    order (far, near-origin, diagonal, boundary-strip); configurations
    matching none are ``"unclassified"`` - the parts are hypotheses, not a
    partition of the quadrant.
    """
    thresholds = thresholds or RegimeThresholds()
    mn, mx = (v, t) if v <= t else (t, v)
    if mn < 1.0:
        raise ValueError("classification requires min(v, t) >= 1")
    Y = float(scale_factor(sing, y))
    c2, c3 = thresholds.c2, thresholds.c3
    if mx >= c2 * Y:
        return "far"
    if mx <= Y / c2:
        return "near-origin"
    if mn >= Y / c2 and mx <= c2 * Y:
        return "diagonal"
    if mn <= Y / c3 and Y / c2 <= mx <= c2 * Y:
        return "boundary-strip"
    return "unclassified"


def regime_comparator(
    sing: Singularity,
    regime: str,
    v,
    t,
    y,
    thresholds: RegimeThresholds | None = None,
):
    """Elementary comparator the Poisson value is squeezed against.

    Elementwise on arrays, with the same bits as scalar calls; a scalar call
    returns a ``float``.
    """
    thresholds = thresholds or RegimeThresholds()
    mn, mx = np.minimum(v, t), np.maximum(v, t)
    if regime == "far":
        out = mn / np.float_power(mx, sing.gamma + 1.0)
    elif regime == "near-origin":
        _, V = _sector_power(sing, v, t)
        out = V / np.float_power(1.0 + abs(y), 2.0)
    elif regime == "diagonal":
        out = 1.0 / (1.0 + abs(y))
    elif regime == "boundary-strip":
        rho = rho_solver(sing, y, mn, thresholds=thresholds)
        head = np.float_power(1.0 + abs(y), 1.0 / sing.gamma - 1.0)
        out = head * mn / (mn * mn + np.float_power(mx - rho, 2.0))
    else:
        raise ValueError(f"no comparator for regime {regime!r}")
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class RegimeBand:
    """Extreme ratios of Poisson value to comparator over a seeded sample."""

    regime: str
    sup_ratio: float
    inf_ratio: float
    sample_count: int


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.log``) elementwise through the C library.

    numpy's SIMD ``exp`` and ``log`` (AVX-512 builds) differ from libm in the
    last bit for some inputs, and the sampler's draws are defined through libm.
    """
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _replay_draws(
    sing: Singularity,
    regime: str,
    rng: np.random.Generator,
    sample_count: int,
    y_lo: float,
    y_max: float,
    thresholds: RegimeThresholds,
):
    """Sample arrays ``(v, t, y)`` of one height regime, replayed from raw words.

    One ``random_raw`` call takes every word the samples can use; the draws
    read from them are those of :func:`regime_constant_sampler`'s docstring,
    in its order.  A near-origin sample whose ``mx`` is 1 makes no ``mn``
    draw, which moves every later sample one word back; each such sample is
    found in order and the layout redone from it.
    """
    c2, c3 = thresholds.c2, thresholds.c3
    signed = regime != "boundary-strip"
    words = rng.bit_generator.random_raw((4 * sample_count + (sample_count + 1) // 2) if signed else 3 * sample_count)
    unit = (words >> 11) * 2.0**-53  # rng.random() of each word
    k = np.arange(sample_count)
    even = k % 2 == 0

    def uniform(lo, hi, at):  # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random()
        return lo + (hi - lo) * unit[at]

    def exp_uniform(lo, hi, at):
        return _libm(math.exp, uniform(lo, hi, at))

    def draws(skipped):
        at = (4 if signed else 3) * k - (np.cumsum(skipped) - skipped)  # each sample's height word
        if signed:
            at += (k + 1) // 2  # the sign words of the even samples before this one
            sign_word = words[at[k - k % 2] + 1]
            sign = np.where(even, sign_word >> 31, sign_word >> 63) & 1
            mag = np.exp(uniform(math.log(y_lo), math.log(y_max), at))
            y = np.where(sign == 1, mag, -mag)
            at = at + 1 + even
        else:
            y = exp_uniform(math.log(y_lo), math.log(y_max), at)
            at = at + 1
        Y = scale_factor(sing, y)
        if regime == "far":
            mx = np.maximum(1.0, c2 * Y) * exp_uniform(0.0, math.log(10.0), at)
            mn = exp_uniform(0.0, _libm(math.log, mx), at + 1)
        elif regime == "near-origin":
            mx = exp_uniform(0.0, _libm(math.log, Y / c2), at)
            mn = np.where(skipped, 1.0, exp_uniform(0.0, _libm(math.log, mx), at + 1))
        elif regime == "diagonal":
            hi = _libm(math.log, c2 * Y)
            mn = exp_uniform(_libm(math.log, np.maximum(1.0, Y / c2)), hi, at)
            mx = exp_uniform(_libm(math.log, mn), hi, at + 1)
        else:
            mn = exp_uniform(0.0, _libm(math.log, Y / c3), at)
            mx = exp_uniform(_libm(math.log, np.maximum(Y / c2, mn)), _libm(math.log, c2 * Y), at + 1)
        return mn, mx, y, at + 2 - skipped

    skipped = np.zeros(sample_count, dtype=bool)
    while True:
        mn, mx, y, swap_at = draws(skipped)
        fresh = np.flatnonzero(~(mx > 1.0) & ~skipped) if regime == "near-origin" else ()
        if len(fresh) == 0:
            break
        skipped[fresh[0]] = True
    if not signed:
        # the comparator's rho is defined on the v <= t branch with y > 0
        # (the level equation has its root there); the reflection swapping
        # the sector's boundary rays flips the sign of U and exchanges the
        # branches, so positive y on this branch covers both cases
        return mn, mx, y
    keep = unit[swap_at] < 0.5
    return np.where(keep, mn, mx), np.where(keep, mx, mn), y


def regime_constant_sampler(
    sing: Singularity,
    regime: str,
    sample_count: int = 10_000,
    seed: int = 0,
    thresholds: RegimeThresholds | None = None,
    y_max: float = 1e4,
) -> RegimeBand:
    """Empirical two-sided band for one regime of the Poisson estimate.

    Draws ``(v, t, y)`` uniformly (log scales) from the regime's hypothesis
    set intersected with ``min(v, t) >= 1`` and ``|y| <= y_max``, and returns
    the extreme ratios of the exact Poisson value to the comparator.  For the
    two threshold-free part-1 identities the "ratio" is the identity's middle
    expression itself.

    The sequence of draws from ``np.random.default_rng(seed)`` is part of the
    output contract: the bands of a seed stay the same only while the same
    draws are made in the same order.  A draw is one uniform double
    ``lo + (hi - lo) * rng.random()`` (the bits of ``rng.uniform(lo, hi)``),
    one sign ``rng.integers(0, 2)``, or, for the part-1 identities, one array
    of ``sample_count`` uniform doubles.  A height regime draws one sample at
    a time: the height (a log-uniform magnitude and a sign, or on the
    boundary strip a positive height), then ``mx`` and ``mn`` (``mn`` and
    ``mx`` on the diagonal and the strip), then, off the strip, one double
    that decides which of them is ``v``.  The near-origin ``mn`` draw is
    skipped when ``mx == 1``.  The draws go through libm's ``exp``, ``log``
    and ``pow``, except numpy's ``exp`` for a signed height's magnitude.

    That order is replayed from one ``rng.bit_generator.random_raw`` call
    rather than made call by call.  A double is ``(word >> 11) * 2**-53``,
    one word each.  A sign is bit 31 of a fresh word and the next sign bit
    63 of that same word, which ``Generator.integers`` keeps buffered; so a
    pair of signed samples takes 9 words, 5 then 4, and a strip sample 3.
    The skipped draw moves every later sample one word back.  numpy does not
    promise a ``Generator``'s stream across releases (NEP 19): this layout
    is that of the declared floor ``numpy>=2.0``, and the tests hold it
    against the scalar calls.  The density, the comparator and its
    level-crossing root are then evaluated once on the whole sample.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    thresholds = thresholds or RegimeThresholds()
    c2, c3 = thresholds.c2, thresholds.c3
    gamma = sing.gamma
    rng = np.random.default_rng(seed)

    if regime in ("part1-radius", "part1-height"):
        v = np.exp(rng.uniform(0.0, math.log(1e3), sample_count))
        t = np.exp(rng.uniform(0.0, math.log(1e3), sample_count))
        u = (t - sing.a * v) / sing.b
        U, V = power_polar(u + 1j * v, gamma)
        mn, mx = np.minimum(v, t), np.maximum(v, t)
        if regime == "part1-radius":
            ratios = mx**gamma / np.hypot(U, V)
        else:
            ratios = mx ** (gamma - 1.0) * mn / V
    elif regime in ("far", "near-origin", "diagonal", "boundary-strip"):
        y_lo = 1.0
        if regime in ("near-origin", "boundary-strip"):
            # max <= Y/c2 with max >= 1 requires Y >= c2; min <= Y/c3 with
            # min >= 1 requires Y >= c3
            y_lo = max(1.0, (c2 if regime == "near-origin" else c3) ** gamma)
            if y_lo >= y_max:
                raise EmptyRegimeError(f"{regime} regime empty: needs |y| >= {y_lo:g} > y_max={y_max:g}")
        vs, ts, ys = _replay_draws(sing, regime, rng, sample_count, y_lo, y_max, thresholds)
        ratios = poisson_density(sing, vs, ts, ys) / regime_comparator(sing, regime, vs, ts, ys, thresholds)
    else:
        raise ValueError(f"unknown regime {regime!r}")

    sup_ratio = float(np.max(ratios))
    inf_ratio = float(np.min(ratios))
    if not (math.isfinite(sup_ratio) and inf_ratio > 0.0):
        raise RuntimeError(f"regime {regime!r} produced a degenerate band [{inf_ratio}, {sup_ratio}]")
    return RegimeBand(
        regime=regime,
        sup_ratio=sup_ratio,
        inf_ratio=inf_ratio,
        sample_count=sample_count,
    )


# ---------------------------------------------------------------------------
# The level-line root rho(y, v)
# ---------------------------------------------------------------------------

_LONG = np.longdouble
_ROOT_MAX_STEPS = 200


def power_real_residual(sing: Singularity, u, v, y):
    """``Re((u + iv)^gamma) - y`` evaluated in extended precision (elementwise
    on arrays; a scalar call returns a ``float``)."""
    ul, vl = np.asarray(u, dtype=_LONG), np.asarray(v, dtype=_LONG)
    rho = np.hypot(ul, vl)
    theta = np.arctan2(vl, ul)
    out = (rho ** _LONG(sing.gamma) * np.cos(_LONG(sing.gamma) * theta) - np.asarray(y, dtype=_LONG)).astype(float)
    return float(out) if out.ndim == 0 else out


def _first(mask: np.ndarray, *arrays) -> tuple:
    """Values at the first true element of ``mask``, for error messages."""
    k = int(np.flatnonzero(mask)[0])
    return tuple(float(a[k]) for a in arrays)


def rho_solver(
    sing: Singularity,
    y,
    v,
    thresholds: RegimeThresholds | None = None,
):
    """Solve ``Re((u + iv)^gamma) = y`` along the level line of ``v`` and
    return ``rho = b u + a v`` (the ``t`` coordinate of the crossing).

    Implements the branch where ``v`` is the smaller coordinate (``v <= t``);
    the swapped configuration follows by relabeling the inputs.  From
    ``u_lo = v / tan(pi/(2 gamma))``, where ``gamma arg(u + iv) = pi/2``, the
    real part ``|tau|^gamma cos(gamma arg tau)`` is increasing and convex in
    ``u``.  So the root is bracketed by doubling from there, located by
    Newton steps that fall back to bisection whenever they leave the bracket,
    and polished against the extended-precision residual down to the
    floating floor.

    ``y`` and ``v`` may be arrays (broadcast together): every element takes
    the same path as a scalar call, and the call raises ``ValueError`` or
    :class:`NoRootError` if any element fails.  A scalar call returns a
    ``float``.
    """
    thresholds = thresholds or RegimeThresholds()
    scalar = np.ndim(y) == 0 and np.ndim(v) == 0
    y, v = np.broadcast_arrays(np.atleast_1d(np.asarray(y, dtype=float)), np.atleast_1d(np.asarray(v, dtype=float)))
    below = ~(v >= 1.0)
    if below.any():
        raise ValueError(f"rho_solver requires v >= 1, got v={_first(below, v)[0]:g}")
    Y = scale_factor(sing, y)
    wide = v > Y / thresholds.c3
    if wide.any():
        width, got = _first(wide, Y / thresholds.c3, v)
        raise ValueError(f"rho_solver requires v <= (1+|y|)^(1/gamma)/c3 = {width:g}, got v={got:g}")
    gamma = sing.gamma

    def level(u):
        """``Re((u+iv)^gamma) - y`` and its derivative in ``u``."""
        rho_abs = np.hypot(u, v)
        theta = np.arctan2(v, u)
        value = rho_abs**gamma * np.cos(gamma * theta) - y
        return value, gamma * rho_abs ** (gamma - 1.0) * np.cos((gamma - 1.0) * theta)

    u_lo = np.maximum(v / math.tan(math.pi / (2.0 * gamma)) if gamma > 1.0 else v, 1e-12)
    early = level(u_lo)[0] > 0.0
    if early.any():
        y0, v0 = _first(early, y, v)
        raise NoRootError(
            f"Re((u+iv)^gamma) already exceeds y={y0:g} at the start of the "
            f"monotone ray (v={v0:g}); no root on the v <= t branch"
        )
    u_hi = np.maximum(np.maximum(2.0 * u_lo, 2.0 * Y), 2.0)
    for _ in range(_ROOT_MAX_STEPS):
        short = ~(level(u_hi)[0] > 0.0)
        if not short.any():
            break
        u_hi = np.where(short, 2.0 * u_hi, u_hi)
    else:
        raise NoRootError("no sign change found for y={:g}, v={:g}".format(*_first(short, y, v)))

    # Newton from the upper end; an element stops moving once converged, so
    # its root does not depend on the other elements of the batch
    u = u_hi
    active = np.ones(u.shape, dtype=bool)
    for _ in range(_ROOT_MAX_STEPS):
        value, slope = level(u)
        u_lo = np.where(value <= 0.0, u, u_lo)
        u_hi = np.where(value > 0.0, u, u_hi)
        step = value / slope
        newton = u - step
        inside = (newton >= u_lo) & (newton <= u_hi)
        converged = (inside & (np.abs(step) <= 1e-13 + 8.9e-16 * np.abs(u))) | (u_hi - u_lo <= 1e-13)
        u = np.where(active, np.where(inside, newton, 0.5 * (u_lo + u_hi)), u)
        active &= ~converged
        if not active.any():
            break
    else:
        raise NoRootError("level crossing did not converge for y={:g}, v={:g}".format(*_first(active, y, v)))

    # safeguarded Newton polish against the extended-precision residual
    residual = power_real_residual(sing, u, v, y)
    active = np.ones(u.shape, dtype=bool)
    for _ in range(4):
        slope = level(u)[1]
        active &= (slope > 0.0) & np.isfinite(slope)
        cand = u - residual / slope
        cand_residual = power_real_residual(sing, cand, v, y)
        active &= np.abs(cand_residual) < np.abs(residual)
        u = np.where(active, cand, u)
        residual = np.where(active, cand_residual, residual)
        if not active.any():
            break

    rho = sing.b * u + sing.a * v
    outside = ~((rho >= Y / thresholds.c2 - 1e-9) & (rho <= thresholds.c2 * Y + 1e-9))
    if outside.any():
        rho0, Y0 = _first(outside, rho, Y)
        raise NoRootError(
            f"root found but rho={rho0:g} violates the comparability band "
            f"[{Y0 / thresholds.c2:g}, {thresholds.c2 * Y0:g}]; thresholds too small"
        )
    return float(rho[0]) if scalar else rho


# ---------------------------------------------------------------------------
# The main bound report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelCell:
    s: float
    y: float
    K: float
    K_err: float
    bound_ratio: float
    ok: bool
    message: str = ""
    # integrand evaluations of the cell's kernel_K call, a failed one's included
    evaluations: int = 0


@dataclass(frozen=True)
class KernelReport:
    cells: tuple[KernelCell, ...]
    empirical_c: float
    refinement_drift: float | None
    refined_empirical_c: float | None

    @property
    def failed_cells(self) -> tuple[KernelCell, ...]:
        return tuple(c for c in self.cells if not c.ok)


def _refine_grid(grid: list[float]) -> list[float]:
    """Insert midpoints: geometric between same-sign neighbors, arithmetic
    across (or at) zero."""
    ys = sorted(set(grid))
    out = list(ys)
    for a, b in zip(ys, ys[1:]):
        if a > 0 and b > 0:
            out.append(math.sqrt(a * b))
        elif a < 0 and b < 0:
            out.append(-math.sqrt(a * b))
        else:
            out.append(0.5 * (a + b))
    return sorted(set(out))


def _evaluate_grid(sing, points, tol) -> list[KernelCell]:
    cells = []
    for s, y in points:
        env = bound_envelope(sing, s, y)
        try:
            res = kernel_K(sing, s, y, tol)
            cells.append(
                KernelCell(
                    s=s, y=y, K=res.value, K_err=res.error_estimate, bound_ratio=res.value / env, ok=True,
                    evaluations=res.evaluations,
                )
            )
        except QuadratureError as err:  # keep the sweep alive; flag the cell
            cells.append(
                KernelCell(
                    s=s, y=y, K=math.nan, K_err=math.nan, bound_ratio=math.nan, ok=False, message=str(err),
                    evaluations=err.best.evaluations,
                )
            )
    return cells


def kernel_report(
    sing: Singularity,
    s_grid,
    y_grid,
    tol: Tolerance | None = None,
    refine: bool = False,
) -> KernelReport:
    """Sweep ``K_s(y)`` over a grid and certify the decay-bound ratio.

    ``empirical_c`` is the sup of ``bound_ratio`` over successful cells.
    With ``refine=True`` both grids are refined by a factor 2 (midpoint
    insertion) and the relative change of the sup is reported as
    ``refinement_drift``; the refined grids contain the coarse ones, whose
    cells are reused rather than recomputed.  Failed cells are flagged,
    never dropped silently; when every cell fails the sweep raises
    :class:`QuadratureError`, whose ``best`` counts the evaluations spent.
    """
    s_grid = sorted(float(s) for s in s_grid)
    y_grid = sorted(float(y) for y in y_grid)
    if not s_grid or not y_grid:
        raise ValueError("grids must be nonempty")
    if s_grid[0] <= 0:
        raise ValueError("s values must be positive")
    cells = _evaluate_grid(sing, [(s, y) for s in s_grid for y in y_grid], tol)
    ratios = [c.bound_ratio for c in cells if c.ok]
    if not ratios:
        spent = sum(c.evaluations for c in cells)
        raise QuadratureError("all kernel cells failed", best=QuadResult(math.nan, math.nan, spent))
    empirical_c = max(ratios)

    drift = None
    refined_c = None
    if refine:
        coarse = {(c.s, c.y) for c in cells}
        fine = [(s, y) for s in _refine_grid(s_grid) for y in _refine_grid(y_grid) if (s, y) not in coarse]
        fine_ratios = [c.bound_ratio for c in _evaluate_grid(sing, fine, tol) if c.ok]
        refined_c = max([empirical_c, *fine_ratios])
        drift = abs(refined_c - empirical_c) / empirical_c
    return KernelReport(
        cells=tuple(cells),
        empirical_c=empirical_c,
        refinement_drift=drift,
        refined_empirical_c=refined_c,
    )


def case_decay_slope(sing: Singularity, s_values, y: float = 0.0, tol: Tolerance | None = None):
    """Least-squares slope of ``log K_s(y)`` against ``log s``.

    In the regime ``s >> (1+|y|)^{1/gamma}`` the kernel decays like
    ``s^{1 - gamma}``, so the fitted slope should settle near ``1 - gamma``
    (slightly above it at finite ``s``).  Returns ``(slope, values)``.
    """
    s_values = sorted(float(s) for s in s_values)
    if len(s_values) < 2:
        raise ValueError("need at least two s values")
    ks = [kernel_K(sing, s, y, tol).value for s in s_values]
    logs = np.log(np.asarray(s_values))
    logk = np.log(np.asarray(ks))
    slope = float(np.polyfit(logs, logk, 1)[0])
    return slope, ks
