"""Euclidean mass of a directed current near the singular point.

``mass_F`` integrates the leaf density of a current against the leaf area
element over the portion of each leaf lying inside the Euclidean ball of
radius ``r``; the normalized profile ``G(r) = F(r)/r^2`` is nonincreasing as
``r`` shrinks and its limit is the density (Lelong number) of the current at
the origin.  ``bound_G_via_kernel`` pairs the directly computed ``G`` with
the kernel-weighted boundary integral that dominates it, and ``g_profile``
rescales the kernel into the bounded family whose pointwise decay drives the
dominated-convergence argument for that limit.

Ball membership on a leaf is exact: in leaf coordinates the squared distance
to the origin is ``e^{-2v} + e^{-2t}``, so the region of integration is the
set where that quantity is at most ``r^2``, a curved quadrant asymptotic to
the corner ``{min(v, t) >= s}``, ``s = -log r``.  ``mass_F`` pulls it back
onto that corner exactly: with ``q(X) = e^{-2(X - s)}/2``, the chart
``t = T - log(1 - q(V))/2``, ``v = V - log(1 - q(T))/2`` maps
``{min(T, V) >= s}`` onto the ball.  In the variables ``(e^{-2T}, e^{-2V})``
it is the smooth bijection ``(a, b) -> (a (1 - b/2r^2), b (1 - a/2r^2))`` of
the square ``[0, r^2]^2`` onto the triangle ``a + b <= r^2``, and its
Jacobian ``1 - q(T) q(V) / ((1 - q(T)) (1 - q(V)))`` vanishes only at the
corner point, and only linearly.  So ``mass_F`` and
``mass_upper_intermediate`` run on the one corner-domain panel engine,
:func:`~leafcurrent.quadrature.integrate_2d`, and differ only in the
factor they integrate the extension against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .currents import BoundaryProfile, CurrentSpec, profile_extension
from .geometry import Singularity, power_polar_uv
from .kernels import kernel_K
from .quadrature import QuadratureError, QuadResult, Tolerance, integrate_2d

__all__ = [
    "MassProfile",
    "bound_G_via_kernel",
    "default_r_grid",
    "g_profile",
    "mass_F",
    "mass_profile",
    "mass_upper_intermediate",
    "profile_decay_slope",
]


def default_r_grid(levels: int = 12) -> tuple[float, ...]:
    """Geometric radii ``2^-1 .. 2^-levels`` (evenly spaced in ``|log r|``)."""
    if levels < 1:
        raise ValueError("need at least one level")
    return tuple(2.0**-k for k in range(1, levels + 1))


# Default tolerances of mass_F and mass_upper_intermediate; as every ``tol``
# of the mass family, their ``abs_tol`` targets the value divided by r^2
_MASS_TOL = Tolerance(rel_tol=1e-8, abs_tol=1e-16, max_evals=4_000_000)
_UPPER_TOL = Tolerance(rel_tol=1e-7, abs_tol=1e-12, max_evals=4_000_000)

# Smallest supported radius: below it the default absolute floor of
# ``mass_F`` on ``F``, ``1e-16 r^2``, leaves the normal double range, and
# ``F ~ r^2 G`` itself nears the subnormal range, where the quadrature loses
# its relative accuracy (at ``r = 1e-154`` that floor is 0, and
# ``mass_upper_intermediate`` exhausts its budget).
_MIN_RADIUS = math.sqrt(sys.float_info.min / _MASS_TOL.abs_tol)


def _check_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if r < _MIN_RADIUS:
        raise ValueError(
            f"r = {r!r} is below the smallest supported radius {_MIN_RADIUS:.4g} "
            "(mass in a smaller ball underflows double precision)"
        )


def _leaf_decay_rate(profile: BoundaryProfile, gamma: float) -> float:
    """Algebraic rate ``p`` of the mass integrand's decay in ``max(t, v)``.

    ``gamma + 1`` for a compactly supported or fast-decaying profile, capped
    at ``gamma * beta`` for one decaying like ``|y|^{-beta}``.  The mass is
    finite only when ``p > 1``; otherwise this raises, since no truncation
    of the integral can be certified.
    """
    p = gamma + 1.0
    if profile.support_bound is None and math.isfinite(profile.decay_exponent):
        p = min(p, gamma * profile.decay_exponent)
    if not p > 1.0:
        raise QuadratureError(
            f"the mass diverges: the {profile.label} profile decays like "
            f"|y|^-{profile.decay_exponent:g}, not faster than |y|^-1/gamma",
            best=QuadResult(math.inf, math.inf, 0),
        )
    return p


def _corner_mass(
    spec: CurrentSpec, sing: Singularity, r: float, tol: Tolerance, chart
) -> QuadResult:
    """``sum_k weight_k (2/b) iint_{min(T, V) >= -log r} ext_k(t, v) w dT dV``.

    ``chart(T, V)`` returns the leaf coordinates ``(t, v)`` at which the
    extension is taken and the weight ``w`` it is integrated against; each
    profile is one :func:`~leafcurrent.quadrature.integrate_2d` call.
    ``tol.abs_tol`` targets the value divided by ``r^2`` and is scaled here,
    the one place the mass family does so.  A shortfall, of the budget or of
    the tail bound, re-raises :class:`QuadratureError` whose ``best`` is the
    weighted sum so far, the failed profile's estimate included.
    """
    tol = replace(tol, abs_tol=tol.abs_tol * r * r)
    s_r = -math.log(r)
    a, b, gamma = sing.a, sing.b, sing.gamma
    total, err, evals = 0.0, 0.0, 0
    for profile, weight in spec.effective_profiles():
        alg_rate = _leaf_decay_rate(profile, gamma)

        def f(T, V):
            t, v, w = chart(T, V)
            hu, hv = power_polar_uv((t - a * v) / b, v, gamma)
            return (2.0 / b) * np.asarray(profile_extension(profile, hu, hv), dtype=float) * w

        try:
            one = integrate_2d(f, s_r, alg_rate, tol)
        except QuadratureError as exc:
            part = exc.best
            raise QuadratureError(
                str(exc),
                best=QuadResult(
                    total + weight * part.value,
                    err + abs(weight) * part.error_estimate,
                    evals + part.evaluations,
                ),
            ) from exc
        total += weight * one.value
        err += abs(weight) * one.error_estimate
        evals += one.evaluations
    return QuadResult(total, err, evals)


def mass_F(
    spec: CurrentSpec, sing: Singularity, r: float, tol: Tolerance | None = None
) -> QuadResult:
    """Mass of the current in the Euclidean ball of radius ``r``.

    Sums, over the distinct boundary profiles weighted by the transverse
    measure, the integral of the harmonic leaf density against the leaf area
    element ``(e^{-2v} + |lam|^2 e^{-2t}) * 2 du dv`` over the exact ball
    region, pulled back onto the corner ``{min(T, V) >= -log r}`` (see the
    module docstring).  Nonnegative, and nondecreasing in ``r``.  The
    tolerance's ``rel_tol`` is relative to ``F`` and its ``abs_tol`` targets
    ``G = F/r^2``, the same accuracy in ``G`` at every radius; the default
    is ``1e-8`` relative with an absolute floor of ``1e-16`` on ``G``.
    Radii below about ``1.49e-146`` raise ``ValueError``: that floor times
    ``r^2`` and the mass itself leave the normal double range there.
    """
    _check_radius(r)
    spec.validate_against(sing)
    tol = tol or _MASS_TOL
    s_r = -math.log(r)
    lam_sq = abs(sing.lam) ** 2

    def ball(T, V):
        # q = e^{-2(X - s_r)}/2 lies in (0, 1/2]; the chart's Jacobian is
        # (1 - qT - qV) / ((1 - qT)(1 - qV)), and e^{-2v} = e^{-2V}(1 - qT)
        qT, qV = 0.5 * np.exp(-2.0 * (T - s_r)), 0.5 * np.exp(-2.0 * (V - s_r))
        t, v = T - 0.5 * np.log1p(-qV), V - 0.5 * np.log1p(-qT)
        jac_num = -0.5 * (np.expm1(-2.0 * (T - s_r)) + np.expm1(-2.0 * (V - s_r)))
        area = np.exp(-2.0 * V) / (1.0 - qV) + lam_sq * np.exp(-2.0 * T) / (1.0 - qT)
        return t, v, jac_num * area

    return _corner_mass(spec, sing, r, tol, ball)


def mass_upper_intermediate(
    spec: CurrentSpec, sing: Singularity, r: float, tol: Tolerance | None = None
) -> QuadResult:
    """Upper bound for ``F(r)``: ``(1+|lam|)^2 (2/b) iint_{min >= -log r} ext e^{-2 min} dt dv``.

    The ball region sits inside ``{min(v, t) >= -log r}`` and the leaf speed
    is dominated by ``(1+|lam|)^2 e^{-2 min(v, t)}``, so this quantity always
    dominates :func:`mass_F` at the same radius.  It is also the
    kernel-weighted boundary mass of :func:`bound_G_via_kernel` (Fubini),
    up to the factor ``2 (1+|lam|)^2 r^2 / pi``.  As for :func:`mass_F`,
    ``tol.abs_tol`` targets the returned value divided by ``r^2``; the
    default is ``1e-7`` relative with an absolute floor of ``1e-12`` there.
    Like :func:`mass_F`, it raises :class:`QuadratureError` for a profile
    whose mass diverges, and its smallest radius is ``mass_F``'s.
    """
    _check_radius(r)
    spec.validate_against(sing)
    tol = tol or _UPPER_TOL
    speed = (1.0 + abs(sing.lam)) ** 2
    return _corner_mass(
        spec, sing, r, tol, lambda T, V: (T, V, speed * np.exp(-2.0 * np.minimum(T, V)))
    )


@dataclass(frozen=True)
class MassProfile:
    """Mass profile of a current over a decreasing grid of radii.

    ``G = F / r^2`` is nonincreasing as ``r`` decreases (within quadrature
    error); ``lelong_estimate`` is the terminal ``G`` value — evidence for
    the density at the origin, never an asserted limit.  The linear fit of
    ``G`` against ``|log r|^{1-gamma}`` is reported as extrapolation
    diagnostics: its intercept is the extrapolated terminal density,
    its slope the leading finite-radius correction.
    ``monotone_violations`` lists every pair of consecutive radii whose
    ``G`` increase exceeds the two summed error estimates.
    """

    r_grid: tuple[float, ...]
    F: tuple[float, ...]
    G: tuple[float, ...]
    error_estimates: tuple[float, ...]
    lelong_estimate: float
    extrapolation_intercept: float
    extrapolation_slope: float
    monotone_violations: tuple[tuple[float, float], ...]


def mass_profile(
    spec: CurrentSpec,
    sing: Singularity,
    r_grid=None,
    tol: Tolerance | None = None,
) -> MassProfile:
    """Evaluate ``F`` and ``G`` over a strictly decreasing radius grid.

    ``tol`` reaches :func:`mass_F` at every radius as given, so its
    ``abs_tol`` targets ``G = F/r^2`` there.
    """
    grid = tuple(float(r) for r in (default_r_grid() if r_grid is None else r_grid))
    if not grid:
        raise ValueError("radius grid must be nonempty")
    for r in grid:
        _check_radius(r)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("radius grid must be strictly decreasing")

    results = [mass_F(spec, sing, r, tol) for r in grid]

    F = tuple(res.value for res in results)
    G = tuple(res.value / (r * r) for res, r in zip(results, grid))
    errs = tuple(res.error_estimate / (r * r) for res, r in zip(results, grid))

    violations = []
    for i in range(len(grid) - 1):
        excess = G[i + 1] - G[i] - (errs[i] + errs[i + 1])
        if excess > 0.0:
            violations.append((grid[i + 1], excess))

    x = np.abs(np.log(np.asarray(grid))) ** (1.0 - sing.gamma)
    if len(grid) >= 2:
        slope, intercept = np.polyfit(x, np.asarray(G), 1)
    else:
        slope, intercept = math.nan, G[0]

    return MassProfile(
        r_grid=grid,
        F=F,
        G=G,
        error_estimates=errs,
        lelong_estimate=G[-1],
        extrapolation_intercept=float(intercept),
        extrapolation_slope=float(slope),
        monotone_violations=tuple(violations),
    )


def profile_decay_slope(profile: MassProfile, min_log_r: float = 2.0) -> float:
    """Fitted slope of ``log G`` against ``log |log r|`` in the small-radius range.

    Restricted to grid points with ``|log r| >= min_log_r`` (the asymptotic
    regime) and positive ``G``.  The leading behavior ``G ~ |log r|^{1-gamma}``
    makes the expected slope ``-(gamma - 1)``.
    """
    pts = [
        (math.log(abs(math.log(r))), math.log(g))
        for r, g in zip(profile.r_grid, profile.G)
        if abs(math.log(r)) >= min_log_r and g > 0.0
    ]
    if len(pts) < 2:
        raise ValueError("need at least two usable grid points in the asymptotic range")
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])


def g_profile(sing: Singularity, s: float, y: float) -> float:
    """Rescaled kernel ``K_s(y) * (1+|y|)^{1 - 1/gamma}``.

    This family is uniformly bounded in ``(s, y)`` and tends to zero
    pointwise as ``s`` grows — the dominated-convergence input for the
    vanishing of the density at the origin.  Independent of any current.
    """
    k = kernel_K(sing, s, y)
    return k.value * (1.0 + abs(y)) ** (1.0 - 1.0 / sing.gamma)



def _boundary_edges(profile: BoundaryProfile) -> list[float]:
    if profile.support_bound is not None:
        S = profile.support_bound
        inner = [p for p in profile.break_points if -S < p < S]
        return sorted({-S, *inner, S})
    # algebraic decay: symmetric log-spaced window with negligible remainder
    mags = [10.0**k for k in range(0, 7)]
    edges = {0.0, *(m for m in mags), *(-m for m in mags)}
    edges.update(p for p in profile.break_points if abs(p) < mags[-1])
    return sorted(edges)


def bound_G_via_kernel(
    spec: CurrentSpec,
    sing: Singularity,
    r: float,
    tol: Tolerance | None = None,
    y_order: int | None = None,
) -> tuple[float, float]:
    """Pair ``(G(r), kernel-weighted boundary mass at s = -log r)``.

    The right member dominates the left up to a fixed constant of the
    singularity; both are returned so callers can track the empirical ratio.
    ``tol`` reaches :func:`mass_F` as given, so its ``abs_tol`` targets
    ``G``.

    By default (``y_order=None``) the right member is exact: by Fubini it is
    ``pi * mass_upper_intermediate / (2 (1+|lam|)^2 r^2)``, one 2D
    quadrature on the profile's extension that takes ``tol`` as given too,
    so its ``abs_tol`` targets the right member times
    ``2 (1+|lam|)^2 / pi``.  An integer ``y_order`` instead integrates
    ``H(y) K_s(y)`` on Gauss-Legendre panels of that order in ``y``
    (doubling it is the natural refinement study), with ``tol`` reaching
    each :func:`~leafcurrent.kernels.kernel_K` call unchanged; a decaying
    profile is cut there at ``|y| = 10^6`` without an error term.
    """
    lhs = mass_F(spec, sing, r, tol).value / (r * r)
    if y_order is None:
        upper = mass_upper_intermediate(spec, sing, r, tol).value
        return lhs, math.pi * upper / (2.0 * (1.0 + abs(sing.lam)) ** 2 * r * r)
    s = -math.log(r)
    nodes, weights = leggauss(y_order)
    rhs = 0.0
    for profile, weight in spec.effective_profiles():
        edges = _boundary_edges(profile)
        acc = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            ys = mid + half * nodes
            hy = np.asarray(profile.evaluate(ys), dtype=float)
            for yi, wi, hi_val in zip(ys, weights, hy):
                if hi_val == 0.0:
                    continue
                acc += wi * half * hi_val * kernel_K(sing, s, float(yi), tol).value
        rhs += weight * acc
    return lhs, rhs
