"""Geometry of a linear hyperbolic singularity in C^2.

The vector field ``mu * z d/dz + lambda * w d/dw`` with ``lambda/mu`` not real
is normalized to ``z d/dz + (a + i b) w d/dw`` with ``b > 0`` (swapping the two
coordinates when needed, which replaces lambda by 1/lambda).  A leaf through
the transversal ``{z = 1}`` is parametrized over the plane sector

    ``S = {u + i v : v > 0, b u + a v > 0} = {0 < arg < sector_angle}``

by ``psi_alpha(zeta) = (e^{i (zeta + log|alpha|/b)},
alpha e^{i lambda (zeta + log|alpha|/b)})``, so that ``|z| = e^{-v}`` and
``|w| = e^{-t}`` with ``t = b u + a v``, and ``psi_alpha(-log|alpha|/b) =
(1, alpha)``.  The power map ``tau -> tau**gamma`` with
``gamma = pi / sector_angle > 1`` takes the sector onto the upper half plane;
it is always evaluated in polar form (radius and angle), never through a
generic complex power with an ambient branch cut.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonHyperbolicError",
    "SectorDomainError",
    "Singularity",
    "SectorPoint",
    "LeafPoint",
    "normalize_singularity",
    "leaf_point",
    "leaf_speed_sq",
    "sector_to_halfplane",
    "halfplane_to_sector",
    "power_polar",
    "power_polar_uv",
    "in_fundamental_annulus",
    "transversal_label",
]

ANNULUS_SLACK = 1e-12


class NonHyperbolicError(ValueError):
    """The eigenvalue ratio is real, so there is no hyperbolic sector."""


class SectorDomainError(ValueError):
    """A point lies outside the open sector or open upper half plane."""


@dataclass(frozen=True)
class Singularity:
    """Normalized linear singularity ``z d/dz + (a + i b) w d/dw``, b > 0."""

    a: float
    b: float
    flipped: bool = False

    def __post_init__(self) -> None:
        if not self.b > 0.0:
            raise NonHyperbolicError("normalized eigenvalue needs positive imaginary part")

    @property
    def lam(self) -> complex:
        return complex(self.a, self.b)

    @property
    def sector_angle(self) -> float:
        # arctan(-b/a) on the branch in (0, pi); equals pi/2 when a = 0
        return math.atan2(self.b, -self.a)

    @property
    def gamma(self) -> float:
        return math.pi / self.sector_angle


@dataclass(frozen=True)
class SectorPoint:
    """Point ``u + i v`` of the open sector, with ``t = b u + a v``."""

    u: float
    v: float
    t: float

    @property
    def zeta(self) -> complex:
        return complex(self.u, self.v)


@dataclass(frozen=True)
class LeafPoint:
    """Ambient point ``(z, w)`` on the leaf through ``(1, alpha)``."""

    z: complex
    w: complex
    alpha: complex

    @property
    def norm(self) -> float:
        return math.hypot(abs(self.z), abs(self.w))


def normalize_singularity(mu: complex, lam: complex) -> Singularity:
    """Normalize eigenvalues ``(mu, lambda)`` to ``(1, a + i b)`` with b > 0."""
    if mu == 0 or lam == 0:
        raise ValueError("eigenvalues must be nonzero")
    ratio = complex(lam) / complex(mu)
    if ratio.imag == 0.0:
        raise NonHyperbolicError("eigenvalue ratio is real")
    if ratio.imag > 0.0:
        return Singularity(a=ratio.real, b=ratio.imag, flipped=False)
    inv = 1.0 / ratio
    return Singularity(a=inv.real, b=inv.imag, flipped=True)


def in_fundamental_annulus(sing: Singularity, alpha: complex) -> bool:
    """Whether ``alpha`` lies in ``e^{-2 pi b} <= |alpha| < 1`` (tiny inner slack)."""
    r = abs(alpha)
    return math.exp(-2.0 * math.pi * sing.b) - ANNULUS_SLACK <= r < 1.0


def sector_point(sing: Singularity, zeta: complex) -> SectorPoint:
    """Validate that ``zeta`` lies in the open sector and attach ``t``."""
    u, v = zeta.real, zeta.imag
    t = sing.b * u + sing.a * v
    if not (v > 0.0 and t > 0.0):
        raise SectorDomainError(f"zeta={zeta!r} is outside the open sector")
    return SectorPoint(u=u, v=v, t=t)


def _coerce_zeta(zeta: complex | SectorPoint) -> complex:
    if isinstance(zeta, SectorPoint):
        return zeta.zeta
    return complex(zeta)


def leaf_point(sing: Singularity, alpha: complex, zeta: complex | SectorPoint) -> LeafPoint:
    """Evaluate the leaf parametrization ``psi_alpha`` at ``zeta``.

    The formula is entire in ``zeta``; the image lies in the open unit bidisc
    exactly when ``v > 0`` and ``t = b u + a v > 0``.  The anchor value is
    ``psi_alpha(-log|alpha|/b) = (1, alpha)``.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    zeta = _coerce_zeta(zeta)
    shift = zeta + math.log(abs(alpha)) / sing.b
    z = cmath.exp(1j * shift)
    w = alpha * cmath.exp(1j * sing.lam * shift)
    return LeafPoint(z=z, w=w, alpha=complex(alpha))


def leaf_speed_sq(sing: Singularity, alpha: complex, zeta: complex | SectorPoint) -> float:
    """Squared euclidean speed ``|z|^2 + |lambda w|^2`` of ``psi_alpha`` at ``zeta``.

    Equals ``e^{-2v} + |lambda|^2 e^{-2t}``, independent of ``alpha``.
    """
    zeta = _coerce_zeta(zeta)
    v = zeta.imag
    t = sing.b * zeta.real + sing.a * v
    lam2 = sing.a * sing.a + sing.b * sing.b
    return math.exp(-2.0 * v) + lam2 * math.exp(-2.0 * t)


def power_polar(zeta, gamma: float):
    """``zeta**gamma`` in polar form with the angle taken in ``(0, pi)``.

    Works on scalars or numpy arrays; intended for points of the open sector
    or open upper half plane, whose polar angle is safely inside ``(0, pi)``.
    Returns ``(U, V)``.
    """
    return power_polar_uv(np.real(zeta), np.imag(zeta), gamma)


def power_polar_uv(u, v, gamma: float):
    """:func:`power_polar` of ``u + i v``, taking the real pair ``(u, v)``.

    The 2D integrands start from the real pair, so they call this form and
    build no complex array.
    """
    rho = np.hypot(u, v)
    ang = gamma * np.arctan2(v, u)
    rg = rho**gamma
    return rg * np.cos(ang), rg * np.sin(ang)


def sector_to_halfplane(sing: Singularity, zeta: complex | SectorPoint) -> complex:
    """Conformal map ``tau -> tau**gamma`` from the sector onto ``{Im > 0}``."""
    zeta = _coerce_zeta(zeta)
    pt = sector_point(sing, zeta)  # rejects points outside the open sector
    theta = math.atan2(pt.v, pt.u)
    if not (0.0 < theta < sing.sector_angle):
        raise SectorDomainError(f"zeta={zeta!r} is outside the open sector")
    rho = math.hypot(pt.u, pt.v)
    rg = rho**sing.gamma
    ang = sing.gamma * theta
    return complex(rg * math.cos(ang), rg * math.sin(ang))


def halfplane_to_sector(sing: Singularity, w: complex) -> SectorPoint:
    """Inverse power map ``w -> w**(1/gamma)`` onto the open sector."""
    U, V = w.real, w.imag
    if not V > 0.0:
        raise SectorDomainError(f"w={w!r} is not in the open upper half plane")
    R = math.hypot(U, V)
    theta = math.atan2(V, U) / sing.gamma
    rho = R ** (1.0 / sing.gamma)
    return sector_point(sing, complex(rho * math.cos(theta), rho * math.sin(theta)))


def transversal_label(sing: Singularity, alpha: complex) -> float:
    """Boundary coordinate ``u0**gamma`` of the annulus point ``(1, alpha)``.

    ``u0 = -log|alpha|/b`` lies in ``(0, 2 pi]`` for ``alpha`` in the
    fundamental annulus; the sector-boundary point ``u0 + 0i`` corresponds to
    the real boundary coordinate ``u0**gamma`` of the upper half plane.  A
    boundary profile can be rescaled so its value there equals one; nothing in
    the library requires that normalization.
    """
    if not in_fundamental_annulus(sing, alpha):
        raise ValueError("alpha must lie in the fundamental annulus")
    u0 = -math.log(abs(alpha)) / sing.b
    if u0 <= 0.0:
        u0 = 2.0 * math.pi  # |alpha| = 1 is excluded; guard for slack rounding
    return u0**sing.gamma
