"""Experiment configuration: schema-validated JSON documents.

A run is configured by a single JSON document (see ``schema.json``, shipped
as package data).  Complex numbers are two-element arrays ``[re, im]``;
ambient points are pairs of complex numbers.  Every field is optional: the
resolved configuration is the documented default suite deep-merged with the
user document, so a config file only needs the fields it overrides.

Malformed documents raise :class:`ConfigError` carrying a line/field
diagnostic — JSON syntax errors report the line and column, schema and
semantic violations report the dotted field path.  The command line maps
these to exit code 2.

The resolved document (with the output directory masked, since it cannot
affect report bytes) is what the report metadata hashes; identical resolved
documents plus seed reproduce every output byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING, Any, Mapping

from .currents import (
    CurrentSpec,
    algebraic_profile,
    builtin_currents,
    cauchy_profile,
    default_current,
    triangle_profile,
    zero_profile,
)
from .geometry import NonHyperbolicError, Singularity, in_fundamental_annulus, normalize_singularity
from .mass import _check_radius
from .quadrature import Tolerance
from .recurrence import LeafUniformization, uniformize_leaf

if TYPE_CHECKING:
    import jsonschema

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RecurrenceSettings",
    "default_document",
    "load_config",
    "parse_config",
    "parse_complex_token",
    "schema_document",
]


class ConfigError(ValueError):
    """A configuration problem, with a line/field diagnostic message."""


def schema_document() -> dict:
    """The published configuration schema, loaded from package data."""
    text = resources.files("leafcurrent").joinpath("schema.json").read_text("utf-8")
    return json.loads(text)


def default_document() -> dict:
    """Fresh copy of the default configuration document.

    The defaults encode the full default suite: the three reference
    eigenvalue ratios, the standard radius/scale/boundary/horizon grids,
    and a seeded Monte Carlo recurrence stage at two visibility targets
    (the origin and the ambient point (0.5, 0)).
    """
    return {
        "singularity": [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [1.0, 1.0]],
            [[1.0, 0.0], [-1.0, 1.0]],
        ],
        "current": None,
        "grids": {
            "rGrid": [2.0**-k for k in range(1, 13)],
            "sGrid": [float(2**k) for k in range(8)],
            "yGrid": [0.0, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0,
                      1000.0, -1000.0, 10000.0, -10000.0],
            "RGrid": [5.0, 10.0, 15.0, 20.0],
        },
        "tolerances": {"relTol": 1e-8, "absTol": 1e-10, "maxEvals": 2_000_000},
        "seed": 20250819,
        "outputs": {"directory": None, "format": "csv"},
        "oracle": {"s0": [1.0, 2.0, 10.0]},
        "kernel": {"refine": False, "lambdaOverride": None},
        "regimes": {"sampleCount": 10_000, "yMax": 1e4},
        "recurrence": {
            "atom": None,
            "basePoint": {"v": math.log(2.0), "t": math.log(2.0)},
            "targets": [0, [[0.5, 0.0], [0.0, 0.0]]],
            "monteCarlo": True,
            "nT": 64,
            "nTheta": 4096,
            "horizon": 20.0,
        },
    }


def parse_complex_token(token: str) -> complex:
    """Parse a command-line complex literal such as ``i``, ``1+i``, ``-1+2i``."""
    cleaned = token.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ConfigError(f"config error at lambda: {token!r} is not a complex literal") from None


def _decode_complex(pair, where: str) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"config error at {where}: expected [re, im]")
    return complex(float(pair[0]), float(pair[1]))


def _deep_merge(base: dict, override: Mapping) -> dict:
    """Defaults overlaid by the user document; nested objects merge, the rest replace."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _schema_diagnostic(error: jsonschema.ValidationError) -> str:
    path = ".".join(str(p) for p in error.absolute_path) or "(document root)"
    return f"config error at {path}: {error.message}"


# family -> (factory, {config key: factory argument}); a key the document
# omits is not passed, so it takes the factory's own default
_PROFILE_FAMILIES = {
    "triangle": (
        triangle_profile, {"center": "center", "halfWidth": "half_width", "height": "height"}
    ),
    "cauchy": (cauchy_profile, {"center": "center", "scale": "scale", "height": "height"}),
    "algebraic": (
        algebraic_profile, {"center": "center", "exponent": "exponent", "height": "height"}
    ),
    "zero": (zero_profile, {}),
}


def _build_profile(doc: Mapping):
    family = doc["family"]
    factory, params = _PROFILE_FAMILIES[family]
    for key in doc:
        if key not in params and key not in ("family", "weight", "atom"):
            raise ConfigError(
                f"config error at current.{key}: not a parameter of family {family!r}"
            )
    return factory(**{arg: float(doc[key]) for key, arg in params.items() if key in doc})


@dataclass(frozen=True)
class RecurrenceSettings:
    """Resolved recurrence stage settings."""

    atom: complex | None
    base_v: float
    base_t: float
    targets: tuple[object, ...]  # each: literal 0 or an ambient (z, w) pair
    monte_carlo: bool
    n_t: int
    n_theta: int
    horizon: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, resolved experiment configuration.

    ``resolved`` is the full post-merge document (defaults + user overrides
    + command-line overrides); it is the object the report metadata hashes.
    """

    singularity_pairs: tuple[tuple[complex, complex], ...]
    current: object  # None | builtin name | profile-object mapping
    r_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    y_grid: tuple[float, ...]
    R_grid: tuple[float, ...]
    tolerance: Tolerance
    seed: int | None
    out_dir: str | None
    out_format: str
    oracle_s0: tuple[float, ...]
    kernel_refine: bool
    regime_samples: int
    regime_y_max: float
    recurrence: RecurrenceSettings
    resolved: Mapping[str, Any] = field(compare=False, repr=False, default_factory=dict)

    def singularities(self) -> tuple[Singularity, ...]:
        return tuple(normalize_singularity(mu, lam) for mu, lam in self.singularity_pairs)

    def currents(self, sing: Singularity) -> dict[str, CurrentSpec]:
        """Currents the profile stage runs, in fixed order, keyed by label.

        ``current: null`` selects the default sweep over the three nonzero
        built-ins; a name selects that built-in; an object builds a
        parametrized single-profile current.
        """
        if self.current is None:
            table = builtin_currents(sing)
            return {name: table[name] for name in ("triangle", "cauchy", "algebraic")}
        if isinstance(self.current, str):
            return {self.current: builtin_currents(sing)[self.current]}
        doc = self.current
        profile = _build_profile(doc)
        label = doc["family"]
        spec = default_current(sing, profile, label)
        weight = float(doc.get("weight", 1.0))
        atom = doc.get("atom")
        if atom is not None or weight != 1.0:
            spec = CurrentSpec(
                atoms=(
                    _decode_complex(atom, "current.atom")
                    if atom is not None
                    else spec.atoms[0],
                ),
                profiles=spec.profiles,
                weights=(weight,),
                label=label,
            )
        return {label: spec}

    def recurrence_leaf(self) -> LeafUniformization:
        """The recurrence stage's leaf, through ``recurrence.atom`` or else ``e^{-pi b}``."""
        sing = self.singularities()[0]
        rec = self.recurrence
        alpha = rec.atom if rec.atom is not None else complex(math.exp(-math.pi * sing.b))
        zeta = complex((rec.base_t - sing.a * rec.base_v) / sing.b, rec.base_v)
        return uniformize_leaf(sing, alpha, zeta)


def _validate_schema(doc: Mapping) -> None:
    # imported on the first validation: a process that never parses a
    # config does not load it
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema_document())
    errors = list(validator.iter_errors(doc))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise ConfigError(_schema_diagnostic(best))


def parse_config(document: Mapping | None, overrides: Mapping | None = None) -> ExperimentConfig:
    """Validate a user document, merge defaults and overrides, and resolve.

    ``overrides`` (command-line flags) are merged after the user document
    and validated with it, so the resolved document — and hence the config
    hash — reflects the run actually performed.
    """
    document = dict(document or {})
    _validate_schema(document)
    resolved = _deep_merge(default_document(), document)
    if overrides:
        resolved = _deep_merge(resolved, overrides)
    _validate_schema(resolved)

    pairs = []
    for idx, pair in enumerate(resolved["singularity"]):
        mu = _decode_complex(pair[0], f"singularity.{idx}.0")
        lam = _decode_complex(pair[1], f"singularity.{idx}.1")
        try:
            normalize_singularity(mu, lam)
        except (NonHyperbolicError, ValueError) as exc:
            raise ConfigError(f"config error at singularity.{idx}: {exc}") from None
        pairs.append((mu, lam))

    lam_override = resolved["kernel"]["lambdaOverride"]
    if lam_override is not None:
        lam = _decode_complex(lam_override, "kernel.lambdaOverride")
        try:
            normalize_singularity(1.0 + 0.0j, lam)
        except (NonHyperbolicError, ValueError) as exc:
            raise ConfigError(f"config error at kernel.lambdaOverride: {exc}") from None
        pairs = [(1.0 + 0.0j, lam)]

    grids = resolved["grids"]
    r_grid = tuple(float(r) for r in grids["rGrid"])
    if any(b >= a for a, b in zip(r_grid, r_grid[1:])):
        raise ConfigError("config error at grids.rGrid: radii must be strictly decreasing")
    try:
        _check_radius(r_grid[-1])
    except ValueError as exc:
        raise ConfigError(f"config error at grids.rGrid: {exc}") from None

    tol_doc = resolved["tolerances"]
    tolerance = Tolerance(
        rel_tol=float(tol_doc["relTol"]),
        abs_tol=float(tol_doc["absTol"]),
        max_evals=int(tol_doc["maxEvals"]),
    )

    seed = resolved["seed"]
    rec_doc = resolved["recurrence"]
    if rec_doc["monteCarlo"] and seed is None:
        raise ConfigError(
            "config error at seed: Monte Carlo requested (recurrence.monteCarlo) but seed is null"
        )

    targets = []
    for idx, target in enumerate(rec_doc["targets"]):
        if target == 0:
            targets.append(0)
        else:
            targets.append(
                (
                    _decode_complex(target[0], f"recurrence.targets.{idx}.0"),
                    _decode_complex(target[1], f"recurrence.targets.{idx}.1"),
                )
            )
    atom_doc = rec_doc["atom"]
    recurrence = RecurrenceSettings(
        atom=None if atom_doc is None else _decode_complex(atom_doc, "recurrence.atom"),
        base_v=float(rec_doc["basePoint"]["v"]),
        base_t=float(rec_doc["basePoint"]["t"]),
        targets=tuple(targets),
        monte_carlo=bool(rec_doc["monteCarlo"]),
        n_t=int(rec_doc["nT"]),
        n_theta=int(rec_doc["nTheta"]),
        horizon=float(rec_doc["horizon"]),
    )

    # the profile and recurrence stages run the first singularity, each on a
    # leaf through its given atom or the mid-annulus e^{-pi b}, which
    # underflows to 0 for b above about 237
    sing = normalize_singularity(*pairs[0])
    current = resolved["current"]
    current_atom = None
    if isinstance(current, Mapping):
        _build_profile(current)  # fail fast on family/parameter mismatches
        if current.get("atom") is not None:
            current_atom = _decode_complex(current["atom"], "current.atom")
            if current_atom == 0 or not in_fundamental_annulus(sing, current_atom):
                raise ConfigError(
                    f"config error at current.atom: {current_atom} lies outside the fundamental "
                    f"annulus [e^(-2 pi b), 1) of the first singularity, b={sing.b}"
                )
    if math.exp(-math.pi * sing.b) == 0.0 and None in (current_atom, recurrence.atom):
        where = "kernel.lambdaOverride" if lam_override is not None else "singularity.0"
        raise ConfigError(
            f"config error at {where}: the default atom e^(-pi b) underflows to 0 at b={sing.b}"
        )

    config = ExperimentConfig(
        singularity_pairs=tuple(pairs),
        current=current,
        r_grid=r_grid,
        s_grid=tuple(float(s) for s in grids["sGrid"]),
        y_grid=tuple(float(y) for y in grids["yGrid"]),
        R_grid=tuple(float(R) for R in grids["RGrid"]),
        tolerance=tolerance,
        seed=None if seed is None else int(seed),
        out_dir=resolved["outputs"]["directory"],
        out_format=resolved["outputs"]["format"],
        oracle_s0=tuple(float(s) for s in resolved["oracle"]["s0"]),
        kernel_refine=bool(resolved["kernel"]["refine"]),
        regime_samples=int(resolved["regimes"]["sampleCount"]),
        regime_y_max=float(resolved["regimes"]["yMax"]),
        recurrence=recurrence,
        resolved=resolved,
    )
    try:
        config.recurrence_leaf()
    except ValueError as exc:
        raise ConfigError(f"config error at recurrence: {exc}") from None
    return config


def load_config(path: str, overrides: Mapping | None = None) -> ExperimentConfig:
    """Read, validate, and resolve a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"config error: cannot read {path}: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(document, dict):
        raise ConfigError("config error at (document root): expected a JSON object")
    return parse_config(document, overrides)
