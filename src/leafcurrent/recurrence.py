"""Hyperbolic-time recurrence statistics on a single leaf.

Each leaf piece over the sector is simply connected, so its universal
covering from the unit disc is a biholomorphism and can be written as an
explicit chain

    disc --(Mobius isometry, 0 -> W_a)--> upper half plane
         --(gamma-th root)--> sector --(leaf parametrization)--> bidisc.

All metric quantities use the curvature ``-1`` Poincare convention:
``ds = 2|d zeta| / (1 - |zeta|^2)`` on the disc, area form
``omega_P = 2 (1 - |zeta|^2)^{-2} i d zeta wedge d zeta-bar``, so the
hyperbolic distance from the centre to radius ``s`` is
``log((1+s)/(1-s))``, and the circle of hyperbolic radius ``t`` has
Euclidean radius ``tanh(t/2)`` and length ``2 pi sinh t``.

The statistics computed here are finite-horizon throughout: visibility
averages are reported together with their horizon ``R`` and never as the
defining upper limit, and horizons beyond ``R = 25`` are rejected
because ``tanh(R/2)`` is then within ``3e-11`` of ``1`` and the
ambient evaluation of the covering map degenerates in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .geometry import (
    LeafPoint,
    SectorPoint,
    Singularity,
    leaf_point,
    leaf_speed_sq,
    sector_point,
    sector_to_halfplane,
)
from .quadrature import QuadResult

__all__ = [
    "DEFAULT_MAX_HORIZON",
    "LeafUniformization",
    "RecurrenceReport",
    "M_of_R",
    "circle_average",
    "circle_factor",
    "eta_local",
    "m_aR_pushforward",
    "poincare_distance_disc",
    "poincare_distance_halfplane",
    "recurrence_report",
    "s_of_t",
    "t_of_s",
    "uniformize_leaf",
    "visibility_N",
]

DEFAULT_MAX_HORIZON = 25.0


# ---------------------------------------------------------------------------
# Radius bookkeeping and distances (curvature -1 convention)
# ---------------------------------------------------------------------------


def s_of_t(t):
    """Euclidean radius of the hyperbolic circle of radius ``t``: ``tanh(t/2)``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("hyperbolic radius must be nonnegative")
    out = np.tanh(t / 2.0)
    return float(out) if out.ndim == 0 else out


def t_of_s(s):
    """Hyperbolic distance from the centre to Euclidean radius ``s``.

    Equals ``log((1+s)/(1-s))``, computed as ``2 artanh s``.
    """
    s = np.asarray(s, dtype=float)
    if np.any((s < 0.0) | (s >= 1.0)):
        raise ValueError("Euclidean radius must lie in [0, 1)")
    out = 2.0 * np.arctanh(s)
    return float(out) if out.ndim == 0 else out


def poincare_distance_disc(x1: complex, x2: complex) -> float:
    """Hyperbolic distance between two points of the unit disc."""
    x1, x2 = complex(x1), complex(x2)
    if abs(x1) >= 1.0 or abs(x2) >= 1.0:
        raise ValueError("points must lie in the open unit disc")
    return 2.0 * math.atanh(abs((x1 - x2) / (1.0 - x1.conjugate() * x2)))


def poincare_distance_halfplane(w1: complex, w2: complex) -> float:
    """Hyperbolic distance between two points of the upper half plane."""
    w1, w2 = complex(w1), complex(w2)
    if w1.imag <= 0.0 or w2.imag <= 0.0:
        raise ValueError("points must lie in the open upper half plane")
    q = abs(w1 - w2) ** 2 / (2.0 * w1.imag * w2.imag)
    return math.acosh(1.0 + q)


# ---------------------------------------------------------------------------
# Leaf uniformization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafUniformization:
    """Covering map of one leaf piece, pinned by its value at the disc centre.

    The chain is disc -> half plane -> sector -> leaf; because the leaf piece
    over the sector is simply connected, the map is a biholomorphism onto it,
    and a hyperbolic isometry from the disc.  The representative is unique up
    to precomposition with a disc rotation, stored in ``rotation``.
    """

    sing: Singularity
    alpha: complex
    base_point: LeafPoint
    sector_base: SectorPoint
    halfplane_base: complex
    rotation: float = 0.0

    def rotated(self, theta0: float) -> "LeafUniformization":
        """The same covering precomposed with ``xi -> e^{i theta0} xi``."""
        return replace(self, rotation=self.rotation + float(theta0))

    def halfplane_at(self, xi):
        """Half-plane leg of the chain, vectorized over ``xi``."""
        xi = np.asarray(xi, dtype=complex) * np.exp(1j * self.rotation)
        if np.any(np.abs(xi) >= 1.0):
            raise ValueError("disc parameter must lie in the open unit disc")
        cayley = 1j * (1.0 + xi) / (1.0 - xi)
        return self.halfplane_base.real + self.halfplane_base.imag * cayley

    def sector_at(self, xi):
        """Sector leg of the chain, vectorized over ``xi``."""
        w = self.halfplane_at(xi)
        radius = np.hypot(w.real, w.imag)
        angle = np.arctan2(w.imag, w.real) / self.sing.gamma
        rho = radius ** (1.0 / self.sing.gamma)
        return rho * np.cos(angle) + 1j * rho * np.sin(angle)

    def ambient_at(self, xi):
        """Ambient bidisc coordinates ``(z, w)`` of the chain, vectorized."""
        zeta = self.sector_at(xi)
        shift = zeta + math.log(abs(self.alpha)) / self.sing.b
        z = np.exp(1j * shift)
        w = self.alpha * np.exp(1j * self.sing.lam * shift)
        return z, w

    def at(self, xi: complex) -> LeafPoint:
        """Evaluate the covering map at one disc point."""
        z, w = self.ambient_at(complex(xi))
        return LeafPoint(z=complex(z), w=complex(w), alpha=complex(self.alpha))


def _sector_base_of(sing: Singularity, alpha: complex, a) -> SectorPoint:
    if isinstance(a, LeafPoint):
        if a.alpha != complex(alpha):
            raise ValueError("leaf point carries a different transversal atom")
        modulus_z, modulus_w = abs(a.z), abs(a.w)
        if not (0.0 < modulus_z < 1.0 and 0.0 < modulus_w < 1.0):
            raise ValueError("point lies outside the open unit bidisc leaf piece")
        v = -math.log(modulus_z)
        t = -math.log(modulus_w)
        base = sector_point(sing, complex((t - sing.a * v) / sing.b, v))
        check = leaf_point(sing, alpha, base)
        if abs(check.z - a.z) > 1e-9 or abs(check.w - a.w) > 1e-9:
            raise ValueError("point does not lie on the leaf through this atom")
        return base
    if isinstance(a, SectorPoint):
        return sector_point(sing, a.zeta)
    return sector_point(sing, complex(a))


def uniformize_leaf(sing: Singularity, alpha: complex, a) -> LeafUniformization:
    """Uniformization of the leaf piece through atom ``alpha``, centred at ``a``.

    ``a`` may be a ``LeafPoint`` on that leaf, a ``SectorPoint``, or a sector
    coordinate; points outside the open sector (equivalently, outside the
    open unit bidisc piece of the leaf) are rejected.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    base = _sector_base_of(sing, alpha, a)
    return LeafUniformization(
        sing=sing,
        alpha=complex(alpha),
        base_point=leaf_point(sing, alpha, base),
        sector_base=base,
        halfplane_base=sector_to_halfplane(sing, base),
    )


def _ambient_target(x) -> tuple[complex, complex]:
    if isinstance(x, LeafPoint):
        return complex(x.z), complex(x.w)
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return complex(x[0]), complex(x[1])
    if x == 0:
        return 0j, 0j
    raise TypeError("ambient point must be a LeafPoint, a (z, w) pair, or 0")


# ---------------------------------------------------------------------------
# Circle averages and visibility
# ---------------------------------------------------------------------------


def _circle_angles(n_rows: int, n_theta: int, rng: np.random.Generator | None = None):
    """Angles of ``n_rows`` circles, ``n_theta`` each: the midpoint grid (one row,
    shared by every circle), or under ``rng`` one draw ``uniform(0, 2 pi, (n_rows, n_theta))``."""
    if rng is None:
        return (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    return rng.uniform(0.0, 2.0 * math.pi, size=(n_rows, n_theta))


def _covering_image(uni: LeafUniformization, ts, thetas):
    """Covering map ``(z, w)`` on circles of hyperbolic radii ``ts`` (rows) at the
    angles ``thetas`` (one row per circle, or one row for all)."""
    return uni.ambient_at(s_of_t(ts)[:, None] * np.exp(1j * thetas))


def _ambient_distance(uni: LeafUniformization, target: tuple[complex, complex], ts, thetas):
    """Euclidean distance from the ambient point ``target`` of :func:`_covering_image`."""
    z, w = _covering_image(uni, ts, thetas)
    return np.hypot(np.abs(z - target[0]), np.abs(w - target[1]))


def circle_average(
    uni: LeafUniformization,
    x,
    r: float,
    t: float,
    n_theta: int = 256,
    rng: np.random.Generator | None = None,
) -> float:
    """Angular average of the ball indicator on the circle of hyperbolic radius ``t``.

    Uniform angular grid by default; a seeded generator switches to Monte
    Carlo angles.  The value is the fraction of the circle whose image lies
    within Euclidean distance ``r`` of the ambient point ``x``.
    """
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    if n_theta < 8:
        raise ValueError("need at least eight angular nodes")
    distance = _ambient_distance(uni, _ambient_target(x), np.array([float(t)]), _circle_angles(1, n_theta, rng))
    return float(np.mean(distance < r))


# circles per covering-map call in visibility: bounds the temporaries at
# _ROW_BLOCK * n_theta nodes instead of n_t * n_theta
_ROW_BLOCK = 8


def _check_horizon(R: float) -> None:
    if R <= 0.0:
        raise ValueError("horizon must be positive")
    if R > DEFAULT_MAX_HORIZON:
        raise ValueError(
            f"horizon {R} exceeds {DEFAULT_MAX_HORIZON}; tanh(R/2) is then within "
            "3e-11 of 1 and the covering map degenerates in double precision"
        )


def visibility_N(
    uni: LeafUniformization,
    x,
    r,
    R: float,
    n_t: int = 64,
    n_theta: int = 256,
    rng: np.random.Generator | None = None,
):
    """Finite-horizon visibility ``(1/R) int_0^R circle_average dt``.

    Composite trapezoid on a uniform ``t``-grid; always in ``[0, 1]``, and
    monotone nondecreasing in ``r`` on identical grids.  This is the
    truncated statistic at horizon ``R``, not the defining upper limit.
    A scalar ``r`` gives a float, an array of radii one value per radius:
    every radius thresholds the same distances, from one covering-map pass
    and, under ``rng``, one angle draw.
    """
    _check_horizon(R)
    if n_t < 2:
        raise ValueError("need at least two time nodes")
    if n_theta < 8:
        raise ValueError("need at least eight angular nodes")
    radii = np.asarray(r, dtype=float)
    if np.any(radii <= 0.0):
        raise ValueError("ball radius must be positive")
    ts = np.linspace(0.0, R, n_t)
    target = _ambient_target(x)
    thetas = _circle_angles(n_t, n_theta, rng)
    inside = np.empty((radii.size, n_t))  # circle averages, one row per radius
    # the nodes go through the covering map a block of circles at a time,
    # elementwise, so the blocks give the bits of one whole-grid pass
    for lo in range(0, n_t, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        distance = _ambient_distance(uni, target, ts[rows], thetas if rng is None else thetas[rows])
        for row, radius in zip(inside, radii.flat):
            row[rows] = (distance < radius).mean(axis=1)
    out = (np.trapezoid(inside, ts, axis=1) / R).reshape(radii.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Normalization M_R and the pushforward measures
# ---------------------------------------------------------------------------


def circle_factor(t) -> float:
    """``sinh(t) log(1/tanh(t/2))``: circle length times the radial weight.

    This is the density of the measure ``log(1/|zeta|) omega_P`` on circles
    of hyperbolic radius ``t`` (per unit angle), and it tends to ``1`` at the
    exponential rate ``1 - (2/3) e^{-2t} - (2/15) e^{-4t} - ...``; the
    ``e^{-t}`` terms of the two factors cancel exactly.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    x = np.exp(-t)
    # past t ~ 745 sinh is inf and e^-t is 0: the unused direct value is inf * 0
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.sinh(t) * (np.log1p(x) - np.log1p(-x))
    # for large t, sinh overflows before the log underflows: use the series
    # (1 - q)(1 + q/3 + q^2/5), q = e^{-2t}, whose error is O(q^3)
    q = x * x
    series = (1.0 - q) * (1.0 + q / 3.0 + q * q / 5.0)
    out = np.where(t >= 20.0, series, direct)
    return float(out) if out.ndim == 0 else out


# pi to 42 digits: M_of_R's product with it rounds only once, at the end
_PI = Fraction("3.14159265358979323846264338327950288419717")


def M_of_R(R: float) -> QuadResult:
    """Mass of ``log(1/|zeta|) omega_P`` on the disc of hyperbolic radius ``R``.

    In polar coordinates the integral is
    ``8 pi int_0^{tanh(R/2)} rho log(1/rho) (1-rho^2)^{-2} d rho``; the
    change of variable ``rho = tanh(x/2)`` turns it into
    ``M_R = 2 pi int_0^R sinh(x) log(coth(x/2)) dx``.  The integrand has the
    antiderivative ``cosh(x) log(coth(x/2)) + log(sinh(x))``, which tends to
    ``log 2`` at ``0``, so with ``t = R/2``

        M_R = 4 pi [log cosh t + sinh^2 t log coth t],

    two non-negative terms: nothing cancels at any ``R``, and
    ``M_R - 2 pi R`` tends to ``-2 pi (2 log 2 - 1)``.  The value is this closed
    form, not a quadrature (``evaluations == 0``).  Its pieces are libm
    values in double precision, built on ``e^-R`` from ``R = 1.5`` up and on
    the Taylor series of ``sinh`` below.  Their sum times ``pi`` is formed
    exactly and rounded once; combining them in floating point instead, or
    taking ``sinh^2`` from libm's ``sinh`` (not correctly rounded; the square
    doubles its error), is up to 4 ulps off.
    ``error_estimate``, four ulps of ``M_R``, bounds the pieces' rounding:
    against ``mpmath`` the value is within ``0.92 eps M_R`` and one ulp of the
    correctly rounded ``M_R`` on 9,000 horizons from ``1e-10`` to ``200``,
    and at ``800``.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("horizon must be positive and finite")
    if R >= 1.5:
        # q = e^-R: log cosh t = t + log1p(q) - log 2 and, with x = 2q/(1+q),
        # sinh^2 t log coth t = (1-q)^2/(2(1+q)) * (-log1p(-x)/x), whose last
        # factor is 1 once x underflows
        q = Fraction(math.exp(-R))
        x = float(2 * q / (1 + q))
        ratio = Fraction(-math.log1p(-x)) / Fraction(x) if x > 0.0 else 1
        total = Fraction(R) / 2 + Fraction(math.log1p(float(q))) - Fraction(math.log(2.0))
        total += (1 - q) ** 2 / (2 * (1 + q)) * ratio
    else:
        # sinh t = t (1 + h), t = R/2, with h <= 0.1 from its Taylor series
        # (the first term left out is below 1e-19), so sinh^2 t is good to a
        # fraction of an ulp; log coth t = log cosh t - log t - log1p(h)
        t = R / 2.0
        h = 0.0
        for k in range(16, 0, -2):
            h = t * t / (k * (k + 1)) * (1.0 + h)
        sinh_sq = (Fraction(t) * (1 + Fraction(h))) ** 2
        log_cosh = Fraction(math.log1p(float(sinh_sq))) / 2
        total = log_cosh + sinh_sq * (log_cosh - Fraction(math.log(t)) - Fraction(math.log1p(h)))
    value = float(4 * _PI * total)
    return QuadResult(value, 4.0 * math.ulp(value), 0)


# radial and angular nodes of the pushforward's midpoint and trapezoid rules
_PUSHFORWARD_N_T = 512
_PUSHFORWARD_N_THETA = 256


def _midpoint_mass(R: float, n_t: int, total: float, angular=None) -> float:
    """Radial midpoint rule of the normalized pushforward on ``[0, R]``.

    ``2 pi h sum_k a(t_k) circle_factor(t_k) / total`` on the nodes
    ``t_k = (k + 1/2) h``, ``h = R / n_t``; ``angular`` maps the nodes to the
    angular means ``a``, and ``None`` stands for ``a = 1`` (the mass of the
    constant 1, which needs no covering map).
    """
    h = R / n_t
    ts = (np.arange(n_t) + 0.5) * h
    weights = circle_factor(ts)
    if angular is not None:
        weights = angular(ts) * weights
    return 2.0 * math.pi * float(np.sum(weights) * h) / total


def m_aR_pushforward(uni: LeafUniformization, R: float, f) -> float:
    """Integral of the ambient function ``f`` against the normalized pushforward.

    The measure is the image under the covering map of
    ``log(1/|zeta|) omega_P`` restricted to the disc of hyperbolic radius
    ``R``, divided by its total mass ``M_of_R(R)``; with ``f == 1`` the
    result is ``1`` up to quadrature error.  ``f`` receives
    two equal-shape complex arrays ``(z, w)`` and must return the real array
    of its values.

    The angular direction uses a uniform grid of 256 nodes (trapezoid on a
    periodic integrand); the radial direction uses midpoint on a uniform
    grid of 512 ``t`` nodes, which handles the logarithmic derivative
    blow-up of the weight at ``t = 0`` without special casing.
    """
    _check_horizon(R)

    def angular(ts):
        z, w = _covering_image(uni, ts, _circle_angles(len(ts), _PUSHFORWARD_N_THETA))
        values = np.asarray(f(z, w), dtype=float)
        if values.shape != z.shape:
            raise ValueError("f must return one real value per grid node")
        return values.mean(axis=1)  # already includes the 1/(2 pi)

    return _midpoint_mass(R, _PUSHFORWARD_N_T, M_of_R(R).value, angular)


# ---------------------------------------------------------------------------
# Metric comparison
# ---------------------------------------------------------------------------


def eta_local(uni: LeafUniformization) -> float:
    """Extremal derivative norm ``||D phi_a(0)||`` per unit Poincare length.

    Chain rule through the three legs: ambient speed of the leaf
    parametrization, times ``|d tau / d W| = (1/gamma) |W_a|^{1/gamma - 1}``
    for the root map, times ``|d W / d xi(0)| = 2 Im W_a`` for the Mobius
    leg, divided by the Poincare normalization ``2`` at the disc centre.
    The product collapses to ``speed * rho * sin(gamma theta) / gamma`` in
    sector polar coordinates ``zeta_a = rho e^{i theta}``.
    """
    base = uni.sector_base
    rho = math.hypot(base.u, base.v)
    theta = math.atan2(base.v, base.u)
    speed = math.sqrt(leaf_speed_sq(uni.sing, uni.alpha, base))
    return speed * rho * math.sin(uni.sing.gamma * theta) / uni.sing.gamma


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    """The leaf-independent recurrence statistics.

    ``horizon_rows`` hold ``(R, M_R, M_R - 2 pi R, pushforward mass of 1)``;
    ``decay_fit`` is the fitted slope of ``log |circle_factor - 1|`` against
    ``t`` on ``[5, 15]``.
    """

    horizon_rows: tuple[tuple[float, float, float, float], ...]
    decay_fit: float


def recurrence_report(R_grid=(5.0, 10.0, 15.0, 20.0)) -> RecurrenceReport:
    """Normalization rows over ``R_grid`` and the circle-gap decay fit, in fixed
    order; neither depends on the leaf, so no covering map is evaluated."""
    horizon_rows = []
    for R in R_grid:
        R = float(R)
        _check_horizon(R)
        m = M_of_R(R)
        # the pushforward of the constant 1 (m_aR_pushforward with f == 1):
        # its angular means are exactly 1, so the rule skips the covering map
        mass = _midpoint_mass(R, _PUSHFORWARD_N_T, m.value)
        horizon_rows.append((R, m.value, m.value - 2.0 * math.pi * R, mass))
    ts = np.linspace(5.0, 15.0, 41)
    gaps = np.abs(circle_factor(ts) - 1.0)
    decay = float(np.polyfit(ts, np.log(gaps), 1)[0])
    return RecurrenceReport(horizon_rows=tuple(horizon_rows), decay_fit=decay)
