"""Adaptive quadrature with explicit error accounting.

Two entry points:

* :func:`integrate_1d` -- adaptive 1D integration of a vectorized integrand on
  finite, half-infinite, or full-line intervals, with caller-supplied break
  points (peaks, kinks), on the 16/24-node Gauss-Legendre bisection that
  :func:`~leafcurrent.kernels.kernel_K` runs on too.
* :func:`integrate_2d` -- integration over the corner domain
  ``{(t, v) : min(t, v) >= s}`` for integrands that decay exponentially in
  ``min(t, v)`` and algebraically in ``max(t, v)``.  The domain is truncated so
  a closed-form tail bound sits below the absolute tolerance, the interior is
  handled by adaptive tensor Gauss-Legendre panels, and the tail bound is added
  to the reported error estimate.  It carries every 2D integral of the
  library: the ball mass, the Fubini bound and the kernel's cross-check
  (:func:`~leafcurrent.kernels.kernel_uv_form`); the kernel ``K_s(y)``
  itself reduces to a 1D integral (:func:`~leafcurrent.kernels.kernel_K`).

The 2D panels are refined in rounds: each round splits the fewest worst
panels whose errors cover the excess over the tolerance and scores all their
children together, so :func:`integrate_2d` evaluates its integrand on stacks
of at most 16 panels (5,120 points) per call instead of once per panel.

Error estimates are indicators, not guarantees.  Every result records the
number of integrand evaluations; non-convergence raises
:class:`QuadratureError` carrying the best estimate so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Tolerance",
    "QuadResult",
    "QuadratureError",
    "DecayDescriptor",
    "integrate_1d",
    "integrate_2d",
]


@dataclass(frozen=True)
class Tolerance:
    """Requested accuracy: relative and absolute targets plus an eval budget."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_evals: int = 1_000_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_evals < 100:
            raise ValueError("max_evals must be at least 100")


@dataclass(frozen=True)
class QuadResult:
    """Value, error indicator, and evaluation count of one integration."""

    value: float
    error_estimate: float
    evaluations: int
    meta: Mapping[str, float] | None = field(default=None, compare=False)


class QuadratureError(RuntimeError):
    """Raised when the eval budget is exhausted before the tolerance is met.

    The partially converged estimate is attached as ``best``.
    """

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


# Each 1D panel carries a 16- and a 24-node Gauss-Legendre rule on one node set.
_N16, _W16 = leggauss(16)
_N24, _W24 = leggauss(24)
_NODES_1D = np.concatenate((_N16, _N24))
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)  # e^t overflows past it


def _bisect(integrand, edges, tol: Tolerance | None, budget: int, tail: float = 0.0, settle=False, evals: int = 0):
    """Adaptive 16/24-node Gauss-Legendre bisection on the panels between ``edges``.

    ``integrand(centre, offset)`` gets a stack of panels' nodes as centres,
    shape ``(panels, 1)``, plus offsets, shape ``(panels, 40)`` with the 16-node
    rule's first, and returns its values, the rounding magnitudes at the 24
    nodes and its count of evaluations.  Each round bisects, in one call, the
    panels whose ``|24 - 16|`` exceeds both their width share of the target
    (``max(rel_tol |value|, abs_tol)``, or the rounding floor if ``tol`` is
    None) and their own floor; with ``settle`` the rounds also end once the
    error estimate, the differences plus the floor and ``tail``, meets the
    target (:func:`~leafcurrent.kernels.kernel_K` leaves it off: with it, 11
    of its default-grid cases would stop a round early).  Panels stay in
    position order.  ``evals`` counts the evaluations made before the loop.
    Non-finite values raise :class:`ValueError`; a spent ``budget`` or missed
    ``tol`` raises :class:`QuadratureError` carrying the result.
    """

    def rule(lo, hi):
        nonlocal evals
        half = 0.5 * (hi - lo)
        f, size, count = integrand((0.5 * (hi + lo))[:, None], half[:, None] * _NODES_1D)
        evals += count
        if not (np.isfinite(f).all() and np.isfinite(size).all()):
            raise ValueError("the integrand returned a non-finite value on a quadrature panel")
        coarse, fine = half * (f[:, :16] @ _W16), half * (f[:, 16:] @ _W24)
        return fine, np.abs(fine - coarse), half * (size @ _W24)

    span = edges[-1] - edges[0]
    lo, hi = edges[:-1], edges[1:]
    panels = rule(lo, hi)
    while True:
        values, diffs, floors = panels
        value = float(values.sum())
        floor = float(floors.sum())
        target = floor if tol is None else max(tol.rel_tol * abs(value), tol.abs_tol)
        split = diffs > np.maximum(target * (hi - lo) / span, floors)
        if not split.any() or evals > budget or (settle and float(diffs.sum()) + floor + tail <= target):
            break
        mid = 0.5 * (lo[split] + hi[split])
        child_lo, child_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        children = rule(child_lo, child_hi)
        order = np.argsort(np.concatenate((lo[~split], child_lo)), kind="stable")
        lo = np.concatenate((lo[~split], child_lo))[order]
        hi = np.concatenate((hi[~split], child_hi))[order]
        panels = [np.concatenate((old[~split], new))[order] for old, new in zip(panels, children)]
    error = float(diffs.sum()) + floor + tail
    result = QuadResult(value, error, evals)
    if evals > budget:
        raise QuadratureError("evaluation budget exhausted", best=result)
    if tol is not None and error > target:
        raise QuadratureError(f"error estimate {error:.3e} exceeds the target {target:.3e}", best=result)
    return result


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: Tolerance | None = None,
    break_points: Sequence[float] = (),
) -> QuadResult:
    """Integrate a vectorized ``f`` on ``[a, b]`` (endpoints may be ``+-inf``).

    ``f`` is called on 1D arrays of nodes.  The interval is split at the
    ``break_points`` inside it, and at 0 when both ends are infinite; piece
    ``k`` is charted onto ``[k, k+1]``, affinely if finite and by ``x = c +-
    expm1((1-w)/w)``, ``w in (0, 1]``, if it is ``[c, +-inf)``.  All pieces
    share one 16/24-node Gauss-Legendre bisection from one panel each, until
    the rule differences plus the rounding floor ``64 eps int|f|`` meet
    ``max(rel_tol |value|, abs_tol)``; it is made for ``f`` smooth on each
    piece, and does not resolve a singularity.  Nodes past the double range,
    ``(1-w)/w >= log(DBL_MAX)``, count as 0 and are not passed to ``f``; the
    error estimate adds a bound on the mass they drop, ``(1 + log DBL_MAX)
    |f| |x - c|`` at ``|x - c| = e^-4 DBL_MAX``, which holds for tails that
    decay at least like ``|x|^-1.0015``; a slower tail raises
    :class:`QuadratureError` once that bound passes the target.  ``f`` gets
    nodes up to ``|x| ~ 1e308`` and must not overflow there.  ``evaluations``
    counts the points ``f`` received.  A non-finite value raises
    :class:`ValueError`; more than ``max_evals`` evaluations, or a missed
    target, raise :class:`QuadratureError`.
    """
    tol = tol or Tolerance()
    if not (b > a):
        raise ValueError("need b > a")
    zero = (0.0,) if math.isinf(a) and math.isinf(b) else ()
    cuts = np.array([a, *sorted({float(p) for p in (*break_points, *zero) if a < p < b}), b])
    lo, hi = cuts[:-1], cuts[1:]
    tail = np.isinf(lo) | np.isinf(hi)
    width = np.where(tail, 1.0, hi - lo)

    def integrand(centre, offset):
        k = np.broadcast_to(np.minimum(centre.astype(int), len(lo) - 1), offset.shape)
        # each node's distances to the ends of its piece, exact differences of
        # dyadic panel edges: the chart keeps every digit near both ends
        left, right = (centre - k) + offset, (k + 1 - centre) - offset
        t = np.divide(right, left, out=np.zeros(left.shape), where=tail[k])  # (1 - w)/w, w = left
        inside = t < _LOG_MAX
        k, left, right, t = k[inside], left[inside], right[inside], t[inside]
        ends = np.where(np.isinf(lo[k]), hi[k] - np.expm1(t), lo[k] + np.expm1(t))
        x = np.where(tail[k], ends, np.where(left <= right, lo[k] + left * width[k], hi[k] - right * width[k]))
        # the tail Jacobian e^t / w^2 goes on in two steps: in one it may overflow
        scaled = np.asarray(f(x), dtype=float) * np.where(tail[k], np.exp(t), width[k])
        values = np.zeros(offset.shape)
        values[inside] = scaled / np.where(tail[k], left * left, 1.0)
        return values, (64.0 * _EPS) * np.abs(values[:, 16:]), x.size

    # a tail like |x|^-(1+g) has the density |f| e^t = e^{-g t} in t = log(1+|x-c|),
    # so it drops e^{-g T}/g past T = log DBL_MAX: at most (1 + T) times the
    # density at T - 4 when g >= 1/(1 + T)
    far = np.where(np.isinf(lo), hi - math.expm1(_LOG_MAX - 4.0), lo + math.expm1(_LOG_MAX - 4.0))[tail]
    edge = np.abs(np.asarray(f(far), dtype=float)) if far.size else far
    if not np.isfinite(edge).all():
        raise ValueError("the integrand returned a non-finite value at the tail chart's cut")
    dropped = float(edge.sum()) * math.exp(_LOG_MAX - 4.0) * (1.0 + _LOG_MAX)
    return _bisect(integrand, np.arange(len(lo) + 1.0), tol, tol.max_evals, dropped, settle=True, evals=far.size)


# ---------------------------------------------------------------------------
# 2D corner-domain integration


@dataclass(frozen=True)
class DecayDescriptor:
    """Envelope rates for integrands on ``{min(t, v) >= s}``.

    The tail certification assumes ``|f(t, v)| <= A * exp(-exp_rate*(min-s))
    * (1+max)**(-alg_rate)`` on the discarded region.  The envelope constant
    ``A`` is estimated by probing ``f`` near the truncation boundary (times a
    safety factor), which makes the certificate an indicator rather than a
    proof.
    """

    exp_rate: float
    alg_rate: float

    def __post_init__(self) -> None:
        if not self.exp_rate > 0.0:
            raise ValueError("exp_rate must be positive")
        if not self.alg_rate > 1.0:
            raise ValueError("alg_rate must exceed 1")


# Both tensor rules of a panel on one node set: the 8x8 and 16x16
# Gauss-Legendre offsets on [-1, 1]^2, concatenated, with flattened weights.
_N_LO, _W_LO = leggauss(8)
_N_HI, _W_HI = leggauss(16)
_OFF_T = np.concatenate((np.repeat(_N_LO, 8), np.repeat(_N_HI, 16)))
_OFF_V = np.concatenate((np.tile(_N_LO, 8), np.tile(_N_HI, 16)))
_WEIGHTS_LO = np.outer(_W_LO, _W_LO).ravel()
_WEIGHTS_HI = np.outer(_W_HI, _W_HI).ravel()
_N_LO_POINTS = _WEIGHTS_LO.size

# Panels per integrand call.  16 panels (5,120 points) already amortize the
# per-call overhead; scoring a whole round in one call instead raised the
# kernel sweep's peak memory by about 9 MB through the integrand's temporaries.
_STACK_PANELS = 16


def _ladder(lo: float, hi: float) -> list[float]:
    # geometric-ish subdivision: unit steps near lo, doubling outward
    edges = [lo]
    step = 1.0
    x = lo
    while x + step < hi:
        x += step
        edges.append(x)
        step *= 2.0
    edges.append(hi)
    return edges


# Doubling levels the max-direction cut may take, and the probe grid per level.
_PROBE_LEVELS = 80
_PROBE_MIN_POINTS = 12
_PROBE_MAX_POINTS = 14


def _truncate_corner(
    f, s: float, decay: DecayDescriptor, target: float, m_cut: float, x_cut: float
) -> tuple[float, float, float, float]:
    """Cut points of ``{min(t, v) >= s}`` and the closed-form tail bounds beyond them.

    Under the envelope ``A e^{-q (min - s)} (1 + max)^{-p}`` of ``decay``, the
    max-direction cut doubles until the algebraic tail bound over
    ``{max > x_cut}`` is at most ``target/4``; the min-direction cut then grows
    in steps of 5, never past the max cut, until the exponential tail bound
    over ``{min > m_cut}`` is too.  At each level ``A`` is 4 times the largest
    envelope ratio ``|f| / envelope`` (NaNs ignored) on a geometric grid of
    ``min`` in ``[s, m_cut]`` times ``max`` in ``[x_cut, 8 x_cut]``, sampled in
    both orientations ``(t, v)`` and ``(v, t)`` by one call of ``f``; both
    tail bounds count the two orientations.  Returns
    ``(m_cut, x_cut, tail_exp, tail_alg)``.
    """
    q, p = decay.exp_rate, decay.alg_rate
    ms = np.geomspace(max(s, 1e-12), m_cut, _PROBE_MIN_POINTS) if m_cut > s else np.array([s])
    ms = np.clip(ms, s, m_cut)
    x_cuts = x_cut * 2.0 ** np.arange(_PROBE_LEVELS)
    x_grids = np.geomspace(np.maximum(x_cuts, ms[-1] + 1e-9), 8.0 * x_cuts, _PROBE_MAX_POINTS, axis=-1)
    M = np.broadcast_to(ms[:, None], (ms.size, _PROBE_MAX_POINTS))
    # each sampled max exceeds each sampled min, so the envelope's inverse is
    # a row factor in the min times a column factor in the max
    rows = np.exp(q * (np.concatenate((ms, ms)) - s))[:, None]
    columns = (1.0 + x_grids) ** p
    for x_cut, xs, column in zip(x_cuts.tolist(), x_grids, columns):
        X = np.broadcast_to(xs, M.shape)
        # both orientations (t, v) and (v, t), stacked
        vals = np.abs(np.asarray(f(np.concatenate((X, M)), np.concatenate((M, X))), dtype=float))
        # fmax.reduce is a NaN-ignoring max; an all-NaN sample gives A = 0
        A = 4.0 * max(0.0, float(np.fmax.reduce(vals * rows * column, axis=None)))
        tail_alg = 2.0 * A * (1.0 + x_cut) ** (1.0 - p) / (q * (p - 1.0))
        if tail_alg <= 0.25 * target or A == 0.0:
            break
    else:
        x_cut *= 2.0

    def exp_tail(mc: float) -> float:
        return 2.0 * A * (1.0 + mc) ** (1.0 - p) * math.exp(-q * (mc - s)) / (q * (p - 1.0))

    while exp_tail(m_cut) > 0.25 * target and m_cut + 5.0 < x_cut:
        m_cut += 5.0
    return m_cut, x_cut, exp_tail(m_cut), tail_alg


def integrate_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s: float,
    decay: DecayDescriptor,
    tol: Tolerance | None = None,
) -> QuadResult:
    """Integrate a vectorized ``f(t, v)`` over ``{min(t, v) >= s}``.

    The min-direction is cut at ``s + max(10, -log(abs_tol)/2)`` (extended until
    the exponential tail bound is below ``abs_tol/4``); the max-direction is cut
    where the algebraic tail bound drops below ``abs_tol/4``.  Both closed-form
    tail bounds are added to the error estimate, and the truncation bounds are
    recorded in ``meta``.  ``f`` must be elementwise over arrays of any
    shape: it is called on whole stacks of panels at once.  A non-finite
    value of ``f`` on a panel raises :class:`ValueError`.

    Until the summed panel errors meet ``max(abs_tol/2, rel_tol*|value|)``,
    each round halves, across its longer side, each of the fewest worst
    panels whose errors cover the excess (always at least one) and scores
    all their children together.  Exceeding ``max_evals`` raises
    :class:`QuadratureError` carrying the current estimate.
    """
    tol = tol or Tolerance()
    if not s > 0.0:
        raise ValueError("need s > 0")
    evals = [0]

    def fc(T, V):
        evals[0] += int(np.size(T))
        return f(T, V)

    m_cut = s + max(10.0, -0.5 * math.log(tol.abs_tol))
    x_cut = max(m_cut + 1.0, s + 10.0)
    m_cut, x_cut, tail_exp, tail_alg = _truncate_corner(fc, s, decay, tol.abs_tol, m_cut, x_cut)

    def rule(rects):
        values, errors = [], []
        for i in range(0, len(rects), _STACK_PANELS):
            box = np.array(rects[i : i + _STACK_PANELS])
            tr, vr = 0.5 * (box[:, 1] - box[:, 0]), 0.5 * (box[:, 3] - box[:, 2])
            T = (0.5 * (box[:, 0] + box[:, 1]))[:, None] + tr[:, None] * _OFF_T
            V = (0.5 * (box[:, 2] + box[:, 3]))[:, None] + vr[:, None] * _OFF_V
            F = np.asarray(fc(T, V), dtype=float)
            lo = tr * vr * (F[:, :_N_LO_POINTS] @ _WEIGHTS_LO)
            hi = tr * vr * (F[:, _N_LO_POINTS:] @ _WEIGHTS_HI)
            values.append(hi)
            errors.append(np.abs(hi - lo))
        values, errors = np.concatenate(values), np.concatenate(errors)
        # refinement cannot cure a NaN integrand: it is a fault of the
        # integrand, not a shortfall of the budget
        if not (np.isfinite(values).all() and np.isfinite(errors).all()):
            raise ValueError("the integrand returned a non-finite value on a quadrature panel")
        return values, errors

    # --- interior: L-shaped region as two rectangles
    rects = [(s, m_cut, s, x_cut)]
    if x_cut > m_cut:
        rects.append((m_cut, x_cut, s, m_cut))
    panels = []
    for (t0, t1, v0, v1) in rects:
        t_edges, v_edges = _ladder(t0, t1), _ladder(v0, v1)
        for e0, e1 in zip(t_edges[:-1], t_edges[1:]):
            for g0, g1 in zip(v_edges[:-1], v_edges[1:]):
                panels.append((e0, e1, g0, g1))

    values, errors = rule(panels)
    while True:
        value = float(values.sum())
        err = float(errors.sum())
        target = max(0.5 * tol.abs_tol, tol.rel_tol * abs(value))
        converged = err <= target
        if converged or evals[0] > tol.max_evals:
            result = QuadResult(
                value, err + tail_exp + tail_alg, evals[0], meta={"min_cut": m_cut, "max_cut": x_cut}
            )
            if converged:
                return result
            raise QuadratureError("evaluation budget exhausted", best=result)
        # worst first; the stable sort splits the older of two equal panels
        order = np.argsort(-errors, kind="stable")
        count = int(np.searchsorted(np.cumsum(errors[order]), err - target)) + 1
        chosen = order[: min(count, len(order))]
        keep = np.ones(len(panels), dtype=bool)
        keep[chosen] = False
        children = []
        for i in chosen:
            t0, t1, v0, v1 = panels[i]
            if (t1 - t0) >= (v1 - v0):
                mid = 0.5 * (t0 + t1)
                children += [(t0, mid, v0, v1), (mid, t1, v0, v1)]
            else:
                mid = 0.5 * (v0 + v1)
                children += [(t0, t1, v0, mid), (t0, t1, mid, v1)]
        child_values, child_errors = rule(children)
        panels = [panel for panel, kept in zip(panels, keep.tolist()) if kept] + children
        values = np.concatenate((values[keep], child_values))
        errors = np.concatenate((errors[keep], child_errors))
