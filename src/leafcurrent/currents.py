"""Boundary profiles, Poisson extensions, and directed-current specifications.

A directed harmonic current on the foliated bidisc is described leafwise: on
the leaf through the annulus point ``alpha`` the density is a positive
harmonic function of the sector coordinate, obtained by pushing a boundary
profile ``H >= 0`` on the real line through the Poisson integral of the upper
half plane and the conformal power map.  The current has locally finite mass
near the singular point exactly when the weighted boundary integral

    ``int_R H(y) (1 + |y|)^{1/gamma - 1} dy``

is finite, which for ``H(y) ~ (1+|y|)^{-beta}`` means ``beta > 1/gamma``.

The algebraic profile's closed-form extension is the library's one use of
``scipy.special`` besides :func:`~leafcurrent.kernels.kernel_K`; both reach
``hyp2f1`` through :func:`_hyp2f1`, which imports it on the first call, so the
triangle and Cauchy profiles never load ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import Singularity, in_fundamental_annulus, power_polar
from .quadrature import QuadResult, Tolerance, integrate_1d

__all__ = [
    "BoundaryProfile",
    "CurrentSpec",
    "IntegrabilityReport",
    "poisson_eval",
    "profile_extension",
    "triangle_profile",
    "cauchy_profile",
    "algebraic_profile",
    "zero_profile",
    "default_current",
    "builtin_currents",
    "leaf_density",
    "chi_weight",
    "integrability_mass",
]

_DEFAULT_TOL = Tolerance(rel_tol=1e-10, abs_tol=1e-13, max_evals=2_000_000)

_PROBE_POINTS = np.array([-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0])


def _hyp2f1(a, b, c, z):
    """``scipy.special.hyp2f1(a, b, c, z)``, with ``scipy.special`` imported on the first call.

    Importing ``scipy.special`` costs 0.15-0.2 s and 17 MB (2-core x86-64 VM,
    scipy 1.17.1), and only the algebraic extension and
    :func:`~leafcurrent.kernels.kernel_K` need it.
    """
    from scipy.special import hyp2f1  # its only user; kept out of the library's import

    return hyp2f1(a, b, c, z)


@dataclass(frozen=True)
class BoundaryProfile:
    """Nonnegative boundary data ``H`` on the real line.

    ``evaluate`` must accept numpy arrays.  ``decay_exponent`` is a ``beta``
    with ``H(y) <= C (1+|y|)^{-beta}``; compactly supported profiles report
    ``inf`` together with a finite ``support_bound``.  ``extension``, when
    present, is a vectorized closed form for the harmonic extension
    ``(U, V) -> H~(U + iV)`` to the upper half plane; it must agree with the
    Poisson integral of ``evaluate``.  ``break_points`` lists kinks of ``H``
    used to split quadratures.
    """

    label: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float
    support_bound: float | None = None
    extension: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    break_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("profile label must be nonempty")
        if not (self.decay_exponent > 0.0):
            raise ValueError("decay exponent must be positive")
        if self.support_bound is not None and not (self.support_bound > 0.0):
            raise ValueError("support bound must be positive when given")
        probe = np.asarray(self.evaluate(_PROBE_POINTS), dtype=float)
        if probe.shape != _PROBE_POINTS.shape:
            raise ValueError("profile must evaluate elementwise on arrays")
        if not np.all(np.isfinite(probe)):
            raise ValueError("profile takes non-finite values")
        if np.any(probe < 0.0):
            raise ValueError("profile takes negative values")
        if self.support_bound is not None:
            outside = np.array([-2.0, 2.0]) * self.support_bound
            if np.any(np.asarray(self.evaluate(outside), dtype=float) != 0.0):
                raise ValueError("profile does not vanish outside its support bound")
        elif math.isfinite(self.decay_exponent):
            # declared decay must actually hold: H(y) (1+|y|)^beta stays
            # bounded on a log grid out to 1e6
            grid = np.concatenate([-(10.0 ** np.arange(7)), 10.0 ** np.arange(7)])
            weighted = np.asarray(self.evaluate(grid), dtype=float) * (1.0 + np.abs(grid)) ** self.decay_exponent
            near = np.asarray(self.evaluate(np.array([0.0, 1.0, -1.0])), dtype=float)
            cap = 1e3 * (1.0 + float(np.max(near)))
            if np.any(weighted > cap):
                raise ValueError(
                    f"declared decay exponent {self.decay_exponent} is not "
                    f"supported by sampled values (weighted max {weighted.max():.3g})"
                )


def poisson_eval(
    H: Callable[[np.ndarray], np.ndarray],
    U: float,
    V: float,
    *,
    tol: Tolerance | None = None,
    support_bound: float | None = None,
    break_points: tuple[float, ...] = (),
) -> QuadResult:
    """Poisson integral of boundary data ``H`` at the point ``U + iV``.

    This is the reference route: adaptive quadrature of
    ``H(y) V / (pi ((y-U)^2 + V^2))`` over the support of ``H``, split at the
    kernel's own scale points ``U - V, U, U + V`` and at the profile's kinks.
    ``H`` must evaluate elementwise on arrays and stay finite up to ``|y| ~ 1e308``.
    """
    if not V > 0.0:
        raise ValueError("evaluation point must lie in the open upper half plane")
    tol = tol or _DEFAULT_TOL

    def integrand(y):
        r = np.hypot(y - U, V)  # (y - U)^2 would overflow on the far tail nodes
        return H(y) * (V / r) / r / math.pi

    if support_bound is None:
        lo, hi = -math.inf, math.inf
    else:
        lo, hi = -support_bound, support_bound
    breaks = [U - V, U, U + V, *break_points]
    return integrate_1d(integrand, lo, hi, tol=tol, break_points=breaks)


def profile_extension(profile: BoundaryProfile, U, V, *, tol: Tolerance | None = None):
    """Harmonic extension of ``profile`` at ``U + iV`` (vectorized).

    Uses the profile's closed form when available and falls back to the
    adaptive Poisson integral otherwise.
    """
    if profile.extension is not None:
        return profile.extension(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
    Ub, Vb = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
    out = np.empty(Ub.shape, dtype=float)
    for idx in np.ndindex(Ub.shape):
        out[idx] = poisson_eval(
            profile.evaluate,
            float(Ub[idx]),
            float(Vb[idx]),
            tol=tol,
            support_bound=profile.support_bound,
            break_points=profile.break_points,
        ).value
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Built-in profile families
# ---------------------------------------------------------------------------


def triangle_profile(center: float = 0.0, half_width: float = 1.0, height: float = 1.0) -> BoundaryProfile:
    """Tent profile ``H(y) = height * max(0, 1 - |y - center| / half_width)``.

    The extension is assembled from the closed-form Poisson integral of one
    linear piece ``alpha + beta y`` on ``[p, q]``:

        ``(alpha + beta U) (phi(q) - phi(p))
          + beta V / (2 pi) log(((q-U)^2 + V^2) / ((p-U)^2 + V^2))``

    with ``phi(y) = arctan((y - U)/V) / pi``.  The angle difference is one
    ``arctan2`` and the log of a ratio near 1 is a ``log1p`` of its excess, so
    neither cancels when both endpoints look alike from ``U + iV``.
    """
    if half_width <= 0 or height < 0:
        raise ValueError("half_width must be positive and height nonnegative")
    c, hw, h = float(center), float(half_width), float(height)
    pieces = (
        (c - hw, c, h * (1.0 - c / hw), h / hw),
        (c, c + hw, h * (1.0 + c / hw), -h / hw),
    )

    def evaluate(y):
        y = np.asarray(y, dtype=float)
        return h * np.maximum(0.0, 1.0 - np.abs(y - c) / hw)

    # moments about the center for the far field (odd moments vanish)
    m0 = h * hw
    m2 = h * hw**3 / 6.0
    far_sq = (300.0 * hw) ** 2

    def extension(U, V):
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = np.zeros(np.broadcast(U, V).shape)
            for p, q, al, be in pieces:
                phi = np.arctan2((q - p) * V, (q - U) * (p - U) + V**2) / math.pi
                den = (p - U) ** 2 + V**2
                gap = (q - p) * (q + p - 2.0 * U) / den  # the log's ratio minus 1
                logs = np.where(gap > -0.5, np.log1p(gap), np.log(((q - U) ** 2 + V**2) / den))
                total = total + (al + be * U) * phi + be * V / (2.0 * math.pi) * logs
            # far from the support the exact formula cancels catastrophically
            # (two O(1) terms produce an O((hw/d)^2) value), so switch to the
            # moment expansion of the Poisson integral: relative error
            # O((hw/d)^4) at d > 300 hw, below the cancellation noise
            X = U - c
            d_sq = X * X + V * V
            ratio = X * X / d_sq  # in [0, 1]; only inf/inf can spoil it
            ratio = np.where(np.isfinite(ratio), ratio, 1.0)
            far_val = (V / math.pi) * (m0 / d_sq + 0.5 * m2 * (8.0 * ratio - 2.0) / d_sq**2)
            far_val = np.where(np.isfinite(far_val), far_val, 0.0)
            return np.where(d_sq > far_sq, far_val, total)

    return BoundaryProfile(
        label="triangle",
        evaluate=evaluate,
        decay_exponent=math.inf,
        support_bound=abs(c) + hw,
        extension=extension,
        break_points=(c - hw, c, c + hw),
    )


def cauchy_profile(center: float = 0.0, scale: float = 1.0, height: float = 1.0) -> BoundaryProfile:
    """Lorentzian bump ``H(y) = height * scale^2 / (scale^2 + (y - center)^2)``.

    The Poisson semigroup gives the closed-form extension
    ``height * scale (scale + V) / ((U - center)^2 + (scale + V)^2)``.
    """
    if scale <= 0 or height < 0:
        raise ValueError("scale must be positive and height nonnegative")
    c, s, h = float(center), float(scale), float(height)

    def evaluate(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):  # far out (y - c)^2 is inf and H is 0
            return h * s * s / (s * s + (y - c) ** 2)

    def extension(U, V):
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        return h * s * (s + V) / ((U - c) ** 2 + (s + V) ** 2)

    return BoundaryProfile(
        label="cauchy",
        evaluate=evaluate,
        decay_exponent=2.0,
        extension=extension,
        break_points=(c,),
    )


def algebraic_profile(exponent: float = 1.5, center: float = 0.0, height: float = 1.0) -> BoundaryProfile:
    """Slow-decay profile ``H(y) = height * (1 + |y - center|)^{-exponent}``.

    The extension is exact.  On each half-line ``x = 1 + |y - center|`` turns
    the Poisson kernel into ``Im 1/(x - w)``, and Euler's integral gives
    ``int_1^inf x^{-beta} / (x - w) dx = 2F1(1, beta; beta + 1; w) / beta``; so
    ``ext = height / (pi beta) Im[2F1(.; 1 + X + iV) + 2F1(.; 1 - X + iV)]``
    with ``X = U - center``, both arguments off the branch cut ``[1, inf)``.
    """
    if exponent <= 0 or height < 0:
        raise ValueError("exponent must be positive and height nonnegative")
    b, c, h = float(exponent), float(center), float(height)

    def evaluate(y):
        y = np.asarray(y, dtype=float)
        return h * (1.0 + np.abs(y - c)) ** (-b)

    def extension(U, V):
        X = np.asarray(U, dtype=float) - c
        iV = 1j * np.asarray(V, dtype=float)
        halves = _hyp2f1(1.0, b, b + 1.0, 1.0 + X + iV) + _hyp2f1(1.0, b, b + 1.0, 1.0 - X + iV)
        return h / (math.pi * b) * halves.imag

    return BoundaryProfile(
        label="algebraic",
        evaluate=evaluate,
        decay_exponent=b,
        extension=extension,
        break_points=(c,),
    )


def zero_profile() -> BoundaryProfile:
    """The identically vanishing profile (null current)."""

    def evaluate(y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def extension(U, V):
        return np.zeros(np.broadcast(np.asarray(U), np.asarray(V)).shape)

    return BoundaryProfile(
        label="zero",
        evaluate=evaluate,
        decay_exponent=math.inf,
        support_bound=1.0,
        extension=extension,
    )


# ---------------------------------------------------------------------------
# Current specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurrentSpec:
    """Weighted family of leaves through annulus atoms, one profile each."""

    atoms: tuple[complex, ...]
    profiles: tuple[BoundaryProfile, ...]
    weights: tuple[float, ...] = field(default=())
    label: str = "custom"

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a current needs at least one atom")
        if len(self.profiles) != len(self.atoms):
            raise ValueError("atoms and profiles must have equal length")
        weights = self.weights or tuple(1.0 for _ in self.atoms)
        if len(weights) != len(self.atoms):
            raise ValueError("weights and atoms must have equal length")
        if any(not (w >= 0.0) or not math.isfinite(w) for w in weights):
            raise ValueError("weights must be finite and nonnegative")
        if any(a == 0 for a in self.atoms):
            raise ValueError("atoms must be nonzero")
        object.__setattr__(self, "atoms", tuple(complex(a) for a in self.atoms))
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))

    def validate_against(self, sing: Singularity) -> None:
        """Check every atom lies in the fundamental annulus of ``sing``."""
        bad = [a for a in self.atoms if not in_fundamental_annulus(sing, a)]
        if bad:
            raise ValueError(
                f"atoms outside the fundamental annulus "
                f"[e^(-2 pi b), 1) with b={sing.b}: {bad}"
            )

    def effective_profiles(self) -> list[tuple[BoundaryProfile, float]]:
        """Distinct profiles with their accumulated weights.

        The coordinate laws on a leaf depend on the atom only through phases,
        so mass integrands aggregate over profile identity.
        """
        merged: dict[int, tuple[BoundaryProfile, float]] = {}
        for prof, w in zip(self.profiles, self.weights):
            key = id(prof)
            if key in merged:
                merged[key] = (prof, merged[key][1] + w)
            else:
                merged[key] = (prof, w)
        return list(merged.values())

    def aggregate_boundary(self, y):
        """Weighted sum of the boundary profiles at ``y`` (vectorized)."""
        y = np.asarray(y, dtype=float)
        total = np.zeros(y.shape)
        for prof, w in self.effective_profiles():
            if w != 0.0:
                total = total + w * np.asarray(prof.evaluate(y), dtype=float)
        return total


def default_current(sing: Singularity, profile: BoundaryProfile | None = None, label: str | None = None) -> CurrentSpec:
    """Single-leaf current through the mid-annulus atom ``alpha = e^{-pi b}``."""
    prof = profile if profile is not None else cauchy_profile()
    return CurrentSpec(
        atoms=(complex(math.exp(-math.pi * sing.b)),),
        profiles=(prof,),
        weights=(1.0,),
        label=label or prof.label,
    )


def builtin_currents(sing: Singularity) -> dict[str, CurrentSpec]:
    """Named single-leaf currents used by reports and acceptance checks."""
    return {
        "triangle": default_current(sing, triangle_profile(), "triangle"),
        "cauchy": default_current(sing, cauchy_profile(), "cauchy"),
        "algebraic": default_current(sing, algebraic_profile(), "algebraic"),
        "zero": default_current(sing, zero_profile(), "zero"),
    }


def leaf_density(spec: CurrentSpec, sing: Singularity, index: int, zeta):
    """Harmonic density of leaf ``index`` at sector points ``zeta`` (vectorized).

    Composes the sector-to-half-plane power map with the profile extension.
    """
    prof = spec.profiles[index]
    w = spec.weights[index]
    U, V = power_polar(np.asarray(zeta), sing.gamma)
    return w * profile_extension(prof, U, V)


def chi_weight(sing: Singularity, y):
    """Integrability weight ``(1 + |y|)^{1/gamma - 1}`` on the boundary line."""
    y = np.asarray(y, dtype=float)
    return (1.0 + np.abs(y)) ** (1.0 / sing.gamma - 1.0)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of the boundary integrability functional."""

    chi_mass: float
    converged: bool
    window: float | None = None
    error_estimate: float = 0.0


def integrability_mass(
    spec: CurrentSpec,
    sing: Singularity,
    *,
    tol: Tolerance | None = None,
    window: float = 1e6,
) -> IntegrabilityReport:
    """Weighted boundary mass ``sum_k w_k int H_k(y) (1+|y|)^{1/gamma-1} dy``.

    Finiteness of this integral is equivalent to locally finite mass of the
    current near the singular point.  Profiles with decay exponent at most
    ``1/gamma`` make it diverge; the report then carries a truncated lower
    bound over ``|y| <= window`` with ``converged=False``.
    """
    tol = tol or _DEFAULT_TOL
    inv_gamma = 1.0 / sing.gamma
    chi_mass = 0.0
    err_total = 0.0
    converged = True
    used_window: float | None = None
    for prof, w in zip(spec.profiles, spec.weights):

        def integrand(y, _p=prof):
            return _p.evaluate(y) * chi_weight(sing, y)

        if prof.support_bound is not None:
            lo, hi = -prof.support_bound, prof.support_bound
        elif prof.decay_exponent > inv_gamma:
            lo, hi = -math.inf, math.inf
        else:
            lo, hi = -window, window
            converged = False
            used_window = window
        res = integrate_1d(integrand, lo, hi, tol=tol, break_points=[0.0, *prof.break_points])
        chi_mass += w * res.value
        err_total += w * res.error_estimate
    return IntegrabilityReport(
        chi_mass=float(chi_mass),
        converged=converged,
        window=used_window,
        error_estimate=err_total,
    )
