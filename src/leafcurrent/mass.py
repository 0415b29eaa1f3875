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
``{min(v, t) >= -log r}``.  ``mass_F`` splits it at the diagonal ``t = v``:
with ``x = max(t, v)`` and ``m = min(t, v)`` each half is
``{x >= -log r + log(2)/2, lower(x) <= m <= x}`` with a bounded exact lower
boundary, and both halves are integrated together on adaptive
Gauss-Legendre panels in ``(x, m)``, each evaluated by vectorized numpy
calls over a few thousand points and refined by the panel engine of
:func:`~leafcurrent.quadrature.integrate_2d`: each round splits the fewest
worst panels whose errors cover the excess over the tolerance, and the
per-panel rule and split are mapped over that round's list (a panel is
already a few thousand points, so it is not stacked with others).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .currents import BoundaryProfile, CurrentSpec, profile_extension
from .geometry import Singularity, power_polar_uv
from .kernels import kernel_K
from .quadrature import (
    DecayDescriptor,
    QuadratureError,
    QuadResult,
    Tolerance,
    _ladder,
    _refine_panels,
    _truncate_corner,
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


_gl = cache(leggauss)

# Smallest supported radius: below it the default absolute floor of
# ``mass_F``, ``1e-16 r^2``, leaves the normal double range, and ``F ~ r^2 G``
# itself nears the subnormal range, where the quadrature loses its relative
# accuracy (at ``r = 1e-154`` that floor is 0, and ``mass_upper_intermediate``
# exhausts its budget).
_MIN_RADIUS = math.sqrt(sys.float_info.min / 1e-16)


def _check_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if r < _MIN_RADIUS:
        raise ValueError(
            f"r = {r!r} is below the smallest supported radius {_MIN_RADIUS:.4g} "
            "(mass in a smaller ball underflows double precision)"
        )


# Inner ladder in ``w = m - lower(x)``: half-unit steps where the weight
# ``e^{-2w}`` carries most of the mass, then steps of 2 out to the cut.
_W_LADDER = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)


def _w_edges(w_cut: float, s_r: float) -> np.ndarray:
    # below w = 1/2 the steps also stay within ``m = s_r + w`` itself: near a
    # sector edge (m -> 0) the extension varies on the scale of m
    edges = [0.0]
    while 2.0 * edges[-1] + s_r < 0.5:
        edges.append(2.0 * edges[-1] + s_r)
    edges += [e for e in _W_LADDER if e < w_cut]
    while edges[-1] + 2.0 < w_cut:
        edges.append(edges[-1] + 2.0)
    return np.array([*edges, w_cut])


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


def _ball_mass(
    profile: BoundaryProfile, sing: Singularity, r: float, tol: Tolerance
) -> QuadResult:
    """``(2/b) iint_{ball} ext(U,V) (e^{-2v} + |lam|^2 e^{-2t}) dt dv`` on GL panels.

    The ball region is symmetric about the diagonal ``t = v``, which meets its
    boundary at ``d = -log r + log(2)/2``.  With ``x = max(t, v)`` and
    ``m = min(t, v)`` both halves become ``{x >= d, lower(x) <= m <= x}``, where
    ``lower`` is the exact boundary, bounded for ``x >= d``; one pass over
    that set integrates the symmetrized integrand ``f(x, m) + f(m, x)``.
    A panel ``[x0, x1] x [w0, w1]`` in ``(x, w = m - lower(x))`` is a tensor
    rule: Gauss-Legendre nodes in ``x`` times a composite rule on the ladder
    in ``w``, clipped at the diagonal ``w = x - lower(x)``.  A panel's error
    is the 8-vs-16-node difference in ``x`` plus the 8-vs-16-node difference
    of the inner rule at the 8 outer nodes; the worst panel is halved in the
    direction whose error dominates.  The truncations in ``x`` and ``w``
    carry the closed-form tail bounds of the envelope
    ``A e^{-1.5 (m + log r)} (1 + x)^{-p}``, with ``p = gamma + 1`` or
    ``gamma * beta`` for a boundary profile decaying like ``|y|^{-beta}``.
    """
    s_r = -math.log(r)
    d = s_r + 0.5 * math.log(2.0)
    a, b, gamma = sing.a, sing.b, sing.gamma
    lam_sq = abs(sing.lam) ** 2
    front = 2.0 / b
    evals = [0]

    def f(t, v):
        evals[0] += int(np.size(t))
        u = (t - a * v) / b
        U, V = power_polar_uv(u, v, gamma)
        ext = np.asarray(profile_extension(profile, U, V), dtype=float)
        return front * ext * (np.exp(-2.0 * v) + lam_sq * np.exp(-2.0 * t))

    def lower(x):
        # exact ball boundary: e^{-2m} = r^2 - e^{-2x}, stable near x = s_r
        return s_r - 0.5 * np.log(-np.expm1(-2.0 * (x - s_r)))

    def inner(xs, n, w0, w1, ladder):
        """Integral over ``w`` in ``[w0, min(w1, x - lower(x))]`` at each outer node.

        ``n`` nodes on each ladder segment inside ``[w0, w1]``.
        """
        lo = lower(xs)
        top = xs - lo
        edges = np.concatenate(([w0], ladder[(ladder > w0) & (ladder < w1)], [w1]))
        k = min(int(np.searchsorted(edges, top.max())), len(edges) - 1)
        e0 = np.minimum(edges[:k], top[:, None])
        e1 = np.minimum(edges[1 : k + 1], top[:, None])
        half = 0.5 * (e1 - e0)
        nodes, weights = _gl(n)
        w = (0.5 * (e0 + e1))[..., None] + half[..., None] * nodes
        X = np.broadcast_to(xs[:, None, None], w.shape)
        M = lo[:, None, None] + w
        return ((f(X, M) + f(M, X)) @ weights * half).sum(axis=1)

    inner_dominates = {}

    def rule(panel, ladder):
        x0, x1, w0, w1 = panel
        mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        nodes_hi, w_hi = _gl(16)
        nodes_lo, w_lo = _gl(8)
        hi = half * float(w_hi @ inner(mid + half * nodes_hi, 16, w0, w1, ladder))
        coarse_x = mid + half * nodes_lo
        fine_w = inner(coarse_x, 16, w0, w1, ladder)
        outer_err = abs(hi - half * float(w_lo @ fine_w))
        inner_err = half * float(w_lo @ np.abs(fine_w - inner(coarse_x, 8, w0, w1, ladder)))
        inner_dominates[panel] = inner_err > outer_err
        return hi, outer_err + inner_err

    p = _leaf_decay_rate(profile, gamma)
    # the integrand is nonnegative, so the corner panel's value bounds the
    # total from below and sets the tails' share of the relative tolerance;
    # the diagonal keeps it below w = 2, so the cut does not matter there
    corner = (d, d + 1.0, 0.0, 5.0)
    corner_value, corner_err = rule(corner, _w_edges(5.0, s_r))
    m_cut, x_cut, tail_w, tail_x = _truncate_corner(
        f,
        s_r,
        DecayDescriptor(exp_rate=1.5, alg_rate=p),
        max(tol.abs_tol, tol.rel_tol * corner_value),
        s_r + 5.0,
        s_r + 10.0,
    )
    w_cut = m_cut - s_r
    ladder = _w_edges(w_cut, s_r)
    x_edges = _ladder(d, x_cut)
    panels = [corner] + [(x0, x1, 0.0, w_cut) for x0, x1 in zip(x_edges[1:-1], x_edges[2:])]
    scores = [(corner_value, corner_err)] + [rule(panel, ladder) for panel in panels[1:]]

    def split(panel):
        x0, x1, w0, w1 = panel
        if not inner_dominates.pop(panel):
            mid = 0.5 * (x0 + x1)
            return [(x0, mid, w0, w1), (mid, x1, w0, w1)]
        # halve the w-range at a ladder edge when it holds one; the diagonal
        # reaches that level at xm, where the x-range is cut as well so that
        # no panel's diagonal clip starts or stops inside it
        w_top = min(w1, x1 - lower(x1))
        inside = ladder[(ladder > w0) & (ladder < w_top)]
        wm = float(inside[len(inside) // 2]) if len(inside) else 0.5 * (w0 + w_top)
        xm = s_r + 0.5 * math.log1p(math.exp(2.0 * wm))
        if xm <= x0:
            return [(x0, x1, w0, wm), (x0, x1, wm, w1)]
        return [(x0, xm, w0, wm), (xm, x1, w0, wm), (xm, x1, wm, w1)]

    return _refine_panels(
        lambda batch: np.array([rule(panel, ladder) for panel in batch]).T,
        split,
        panels,
        np.array(scores).T,
        tol,
        lambda: evals[0],
        (tail_w, tail_x),
        None,
    )


def mass_F(
    spec: CurrentSpec, sing: Singularity, r: float, tol: Tolerance | None = None
) -> QuadResult:
    """Mass of the current in the Euclidean ball of radius ``r``.

    Sums, over the distinct boundary profiles weighted by the transverse
    measure, the integral of the harmonic leaf density against the leaf area
    element ``(e^{-2v} + |lam|^2 e^{-2t}) * 2 du dv`` over the exact ball
    region.  Nonnegative, and nondecreasing in ``r``.  The default tolerance
    is relative, ``1e-8``, with an absolute floor of ``1e-16 r^2``.  Radii
    below about ``1.49e-146`` raise ``ValueError``: that floor and the mass
    itself leave the normal double range there.
    """
    _check_radius(r)
    spec.validate_against(sing)
    if tol is None:
        tol = Tolerance(rel_tol=1e-8, abs_tol=1e-16 * r * r, max_evals=4_000_000)
    total, err, evals = 0.0, 0.0, 0
    for profile, weight in spec.effective_profiles():
        one = _ball_mass(profile, sing, r, tol)
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
    dominates :func:`mass_F` at the same radius.  It is also the
    kernel-weighted boundary mass of :func:`bound_G_via_kernel` (Fubini),
    up to the factor ``2 (1+|lam|)^2 r^2 / pi``.  Like :func:`mass_F`, it
    raises :class:`QuadratureError` for a profile whose mass diverges, and
    its smallest radius is ``mass_F``'s.
    """
    _check_radius(r)
    spec.validate_against(sing)
    s_r = -math.log(r)
    a, b, gamma = sing.a, sing.b, sing.gamma
    front = (1.0 + abs(sing.lam)) ** 2 * 2.0 / b
    tol = tol or Tolerance(rel_tol=1e-7, abs_tol=1e-12 * r * r, max_evals=4_000_000)
    total, err, evals = 0.0, 0.0, 0
    for profile, weight in spec.effective_profiles():
        decay = DecayDescriptor(exp_rate=1.5, alg_rate=_leaf_decay_rate(profile, gamma))

        def f(t, v):
            u = (t - a * v) / b
            U, V = power_polar_uv(u, v, gamma)
            ext = np.asarray(profile_extension(profile, U, V), dtype=float)
            return ext * np.exp(-2.0 * np.minimum(t, v))

        res = integrate_2d(f, s_r, decay, tol)
        total += weight * res.value
        err += abs(weight) * res.error_estimate
        evals += res.evaluations
    return QuadResult(front * total, front * err, evals)


def _tolerance_for_G(tol: Tolerance | None, r: float) -> Tolerance | None:
    """The :func:`mass_F` tolerance at radius ``r`` that makes ``tol`` target ``G = F/r^2``.

    ``abs_tol`` is scaled by ``r^2``; ``None`` keeps :func:`mass_F`'s default.
    """
    return None if tol is None else replace(tol, abs_tol=tol.abs_tol * r * r)


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

    An explicit ``tol`` targets ``G = F/r^2``: its ``abs_tol`` is scaled by
    ``r^2`` at each radius before it reaches :func:`mass_F`, so the same
    tolerance means the same accuracy in ``G`` at every radius.
    """
    grid = tuple(float(r) for r in (default_r_grid() if r_grid is None else r_grid))
    if not grid:
        raise ValueError("radius grid must be nonempty")
    for r in grid:
        _check_radius(r)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("radius grid must be strictly decreasing")

    results = [mass_F(spec, sing, r, _tolerance_for_G(tol, r)) for r in grid]

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
    An explicit ``tol`` targets ``G`` as in :func:`mass_profile`.

    By default (``y_order=None``) the right member is exact: by Fubini it is
    ``pi * mass_upper_intermediate / (2 (1+|lam|)^2 r^2)``, one 2D
    quadrature on the profile's extension, whose ``tol`` is scaled as for
    ``G``.  An integer ``y_order`` instead integrates ``H(y) K_s(y)`` on
    Gauss-Legendre panels of that order in ``y`` (doubling it is the natural
    refinement study), with ``tol`` reaching each
    :func:`~leafcurrent.kernels.kernel_K` call unchanged; a decaying profile
    is cut there at ``|y| = 10^6`` without an error term.
    """
    lhs = mass_F(spec, sing, r, _tolerance_for_G(tol, r)).value / (r * r)
    if y_order is None:
        upper = mass_upper_intermediate(spec, sing, r, _tolerance_for_G(tol, r)).value
        return lhs, math.pi * upper / (2.0 * (1.0 + abs(sing.lam)) ** 2 * r * r)
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
