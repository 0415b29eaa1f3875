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
``{min(v, t) >= -log r}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .currents import BoundaryProfile, CurrentSpec, profile_extension
from .geometry import Singularity, power_polar
from .kernels import kernel_K
from .quadrature import (
    DecayDescriptor,
    QuadResult,
    Tolerance,
    integrate_1d,
    integrate_2d,
)

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


def _extension_at(profile: BoundaryProfile, sing: Singularity, u: float, v: float) -> float:
    U, V = power_polar(complex(u, v), sing.gamma)
    return float(profile_extension(profile, float(U), float(V)))


def _mass_one_profile(
    profile: BoundaryProfile,
    sing: Singularity,
    r: float,
    outer_tol: Tolerance,
    inner_tol: Tolerance,
) -> QuadResult:
    """``(2/b) iint_{ball} ext(U,V) (e^{-2v} + |lam|^2 e^{-2t}) dt dv``."""
    s_r = -math.log(r)
    a, b = sing.a, sing.b
    lam_sq = abs(sing.lam) ** 2
    evals = [0]

    def v_lower(t: float) -> float:
        # exact ball boundary: e^{-2v} = r^2 - e^{-2t}, stable near t = s_r
        return s_r - 0.5 * math.log(-math.expm1(-2.0 * (t - s_r)))

    def outer(t: float) -> float:
        if t <= s_r + 1e-300:
            return 0.0
        lo = v_lower(t)
        dead_t = lam_sq * math.exp(-2.0 * t)

        def f(v: float) -> float:
            if math.hypot(t, v) > 1e60:
                return 0.0
            u = (t - a * v) / b
            speed_sq = math.exp(-2.0 * v) + dead_t
            if speed_sq == 0.0:
                return 0.0
            return _extension_at(profile, sing, u, v) * speed_sq

        # near part on the natural scale; far part in log coordinates, where
        # the algebraic tail of the harmonic extension decays exponentially
        cut = lo + 5.0
        near = integrate_1d(f, lo, cut, tol=inner_tol, break_points=[lo + 1.0])

        def f_log(x: float) -> float:
            if x > 700.0:
                return 0.0
            v = math.exp(x)
            return f(v) * v

        far = integrate_1d(f_log, math.log(cut), math.inf, tol=inner_tol)
        evals[0] += near.evaluations + far.evaluations
        return near.value + far.value

    # same split for the outer variable: its integrand inherits an algebraic
    # tail in t from the extension's far field
    t_cut = s_r + 20.0
    near_out = integrate_1d(
        outer,
        s_r,
        t_cut,
        tol=outer_tol,
        break_points=[s_r + 0.5 * math.log(2.0), s_r + 2.0],
    )

    def outer_log(x: float) -> float:
        if x > 700.0:
            return 0.0
        t = math.exp(x)
        return outer(t) * t

    far_out = integrate_1d(outer_log, math.log(t_cut), math.inf, tol=outer_tol)
    value = near_out.value + far_out.value
    out_err = near_out.error_estimate + far_out.error_estimate
    scale = 2.0 / b
    # inner quadratures contribute at most their relative tolerance of the
    # total on top of the outer estimate
    err = scale * (out_err + abs(value) * 10.0 * inner_tol.rel_tol)
    total_evals = near_out.evaluations + far_out.evaluations + evals[0]
    return QuadResult(scale * value, err, total_evals)


def mass_F(
    spec: CurrentSpec, sing: Singularity, r: float, tol: Tolerance | None = None
) -> QuadResult:
    """Mass of the current in the Euclidean ball of radius ``r``.

    Sums, over the distinct boundary profiles weighted by the transverse
    measure, the integral of the harmonic leaf density against the leaf area
    element ``(e^{-2v} + |lam|^2 e^{-2t}) * 2 du dv`` over the exact ball
    region.  Nonnegative, and nondecreasing in ``r``.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    spec.validate_against(sing)
    if tol is None:
        r_sq = r * r
        probe_outer = Tolerance(rel_tol=1e-4, abs_tol=1e-8 * r_sq, max_evals=2_000_000)
        probe_inner = Tolerance(rel_tol=1e-6, abs_tol=1e-10 * r_sq, max_evals=2_000_000)
        probe = 0.0
        for profile, weight in spec.effective_profiles():
            probe += weight * _mass_one_profile(profile, sing, r, probe_outer, probe_inner).value
        floor = max(1e-9 * abs(probe), 1e-16 * r_sq)
        outer_tol = Tolerance(rel_tol=1e-8, abs_tol=floor, max_evals=4_000_000)
        inner_tol = Tolerance(rel_tol=1e-9, abs_tol=floor * 1e-2, max_evals=4_000_000)
    else:
        outer_tol = tol
        inner_tol = Tolerance(
            rel_tol=tol.rel_tol / 10.0, abs_tol=tol.abs_tol / 100.0, max_evals=tol.max_evals
        )
    total, err, evals = 0.0, 0.0, 0
    for profile, weight in spec.effective_profiles():
        one = _mass_one_profile(profile, sing, r, outer_tol, inner_tol)
        total += weight * one.value
        err += abs(weight) * one.error_estimate
        evals += one.evaluations
    return QuadResult(total, err, evals)


def mass_upper_intermediate(
    spec: CurrentSpec, sing: Singularity, r: float, tol: Tolerance | None = None
) -> QuadResult:
    """Upper bound for ``F(r)``: ``(1+|lam|)^2 (2/b) iint_{min >= -log r} ext e^{-2 min} dt dv``.

    The ball region sits inside ``{min(v, t) >= -log r}`` and the leaf speed
    is dominated by ``(1+|lam|)^2 e^{-2 min(v, t)}``, so this quantity always
    dominates :func:`mass_F` at the same radius.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    spec.validate_against(sing)
    s_r = -math.log(r)
    a, b, gamma = sing.a, sing.b, sing.gamma
    front = (1.0 + abs(sing.lam)) ** 2 * 2.0 / b
    tol = tol or Tolerance(rel_tol=1e-7, abs_tol=1e-12 * r * r, max_evals=4_000_000)
    decay = DecayDescriptor(exp_rate=1.5, alg_rate=gamma + 1.0)
    total, err, evals = 0.0, 0.0, 0
    for profile, weight in spec.effective_profiles():

        def f(t, v):
            u = (t - a * v) / b
            U, V = power_polar(u + 1j * v, gamma)
            ext = np.asarray(profile_extension(profile, U, V), dtype=float)
            return ext * np.exp(-2.0 * np.minimum(t, v))

        res = integrate_2d(f, s_r, decay, tol)
        total += weight * res.value
        err += abs(weight) * res.error_estimate
        evals += res.evaluations
    return QuadResult(front * total, front * err, evals)


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
    """Evaluate ``F`` and ``G`` over a strictly decreasing radius grid."""
    grid = tuple(float(r) for r in (default_r_grid() if r_grid is None else r_grid))
    if not grid:
        raise ValueError("radius grid must be nonempty")
    if any(not 0.0 < r < 1.0 for r in grid):
        raise ValueError("radii must lie in (0, 1)")
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


def g_profile(sing: Singularity, s: float, y: float, tol: Tolerance | None = None) -> float:
    """Rescaled kernel ``K_s(y) * (1+|y|)^{1 - 1/gamma}``.

    This family is uniformly bounded in ``(s, y)`` and tends to zero
    pointwise as ``s`` grows — the dominated-convergence input for the
    vanishing of the density at the origin.  Independent of any current.
    """
    k = kernel_K(sing, s, y, tol)
    return k.value * (1.0 + abs(y)) ** (1.0 - 1.0 / sing.gamma)


_gl = cache(leggauss)


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
    y_order: int = 16,
) -> tuple[float, float]:
    """Pair ``(G(r), kernel-weighted boundary mass at s = -log r)``.

    The right member dominates the left up to a fixed constant of the
    singularity; both are returned so callers can track the empirical ratio.
    ``y_order`` is the Gauss-Legendre order per panel of the boundary
    integral (doubling it is the natural refinement study).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    lhs = mass_F(spec, sing, r, tol).value / (r * r)
    s = -math.log(r)
    nodes, weights = _gl(y_order)
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
