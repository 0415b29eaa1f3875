"""The benchmark's workloads: seeded inputs, one timed pass, and an off-the-clock check.

Every workload is a slice of ``leafcurrent all`` or of the acceptance
criteria C05/C08-C10, trimmed so that one pass takes 4-5 s and a run can
repeat it five times or more.  :func:`make_inputs` derives a workload's inputs from the
benchmark seed: :data:`DEFAULT_SEED` (the default configuration's own seed)
keeps every grid point at its default value; any other seed moves each grid
point log-uniformly by at most :data:`JITTER_DECADES` of a decade (never out
of its own decade) and seeds the program's random streams.  The jitter is
narrow because a kernel cell's cost depends steeply on its depth ``s``.  The program only ever sees the generated
configuration document and the arguments built from it.

A pass returns an :class:`Outcome`: how many certified values it produced,
how many of those failed, and a digest of its outputs.  ``check`` then
verifies the first pass's outputs by routes independent of the pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from leafcurrent import cli, config, mass
from leafcurrent.kernels import kernel_uv_form
from leafcurrent.quadrature import QuadratureError
from run import DEFAULT_SEED

JITTER_DECADES = 0.03


class Jitter:
    """Seeded grid jitter; the default seed leaves every point unchanged."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.active = seed != DEFAULT_SEED

    def point(self, x: float, upper: float | None = None) -> float:
        """``x`` moved log-uniformly by at most JITTER_DECADES, inside its own decade.

        Zero stays zero and the sign is kept; ``upper`` caps the magnitude.
        """
        x = float(x)
        if not self.active or x == 0.0:
            return x
        e = math.log10(abs(x))
        decade = math.floor(e + 1e-12)
        lo = max(e - JITTER_DECADES, decade)
        hi = min(e + JITTER_DECADES, decade + 1)
        if upper is not None:
            hi = min(hi, math.log10(upper))
        return math.copysign(10.0 ** self.rng.uniform(lo, hi), x)

    def grid(self, values, upper: float | None = None) -> list[float]:
        return [self.point(v, upper) for v in values]


@dataclass
class Outcome:
    """What one pass produced: certified values attempted and failed, and a digest."""

    items: int
    failed: int
    digest: str
    data: object = field(default=None, repr=False)


@dataclass
class Check:
    label: str
    ok: bool
    detail: str


def _digest_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            {k: (v if k == "regime" else float(v)) for k, v in row.items()}
            for row in csv.DictReader(handle)
        ]


def _warnings(out: Path) -> list[str]:
    meta = out / "metadata.json"
    return json.loads(meta.read_text())["warnings"] if meta.exists() else []


def _finite_rows(rows: list[dict]) -> int:
    return sum(
        all(math.isfinite(v) for v in row.values() if isinstance(v, float)) for row in rows
    )


class CliWorkload:
    """A workload that runs ``leafcurrent`` subcommands in-process on a generated config."""

    commands: tuple[str, ...] = ()

    def setup(self, inputs: dict, run_dir: Path) -> dict:
        path = run_dir / "config.json"
        path.write_text(json.dumps(inputs["config"], indent=2, sort_keys=True) + "\n")
        cfg = config.load_config(str(path))
        sing = cfg.singularities()
        return {"inputs": inputs, "config_path": str(path), "cfg": cfg, "sings": sing,
                "currents": cfg.currents(sing[0]), "run_dir": run_dir, "passes": 0}

    def run_pass(self, state: dict) -> Path:
        """The timed part: every subcommand, reports written to a fresh directory."""
        out = state["run_dir"] / "reports" / f"pass-{state['passes']}"
        state["passes"] += 1
        state["rcs"] = [
            cli.run_command([cmd, "--config", state["config_path"], "--out", str(out / cmd)])
            for cmd in self.commands
        ]
        return out


class KernelSweep(CliWorkload):
    name = "kernel-sweep"
    commands = ("kernel-bound",)
    S_VALUES = (1.0, 8.0, 64.0)
    Y_VALUES = (0.0, 10.0, -1000.0)
    CHECKS_PER_LAMBDA = 2

    def make_inputs(self, seed):
        jit = Jitter(seed)
        s_grid, y_grid = jit.grid(self.S_VALUES), jit.grid(self.Y_VALUES)
        cells = [(s, y) for s in s_grid for y in y_grid]
        return {
            "config": {"seed": seed, "grids": {"sGrid": s_grid, "yGrid": y_grid}},
            # [index of the eigenvalue ratio in the default config, s, y]
            "check_cells": [
                [index, *cell] for index in range(3) for cell in jit.rng.sample(cells, self.CHECKS_PER_LAMBDA)
            ],
        }

    def outcome(self, state, out):
        rows = {}
        cfg = state["cfg"]
        expected = len(cfg.s_grid) * len(cfg.y_grid)
        items = failed = 0
        for index, sing in enumerate(state["sings"]):
            table = _read_csv(out / "kernel-bound" / f"kernel_{cli._lambda_tag(sing)}.csv")
            rows[index] = {(r["s"], r["y"]): r for r in table}
            items += expected
            failed += expected - len(table) + sum(not math.isfinite(r["K"]) for r in table)
        if any(state["rcs"]):
            failed = max(failed, 1)
        return Outcome(items, failed, _digest_dir(out), rows)

    def check(self, state, first: Outcome) -> list[Check]:
        cfg = state["cfg"]
        tol = cfg.tolerance
        checks = []
        for index, s, y in state["inputs"]["check_cells"]:
            sing = state["sings"][index]
            row = first.data[index].get((s, y))
            label = f"kernel_uv_form lambda={sing.lam} s={s:.6g} y={y:.6g}"
            if row is None or not math.isfinite(row["K"]):
                checks.append(Check(label, False, "cell missing or failed"))
                continue
            uv = kernel_uv_form(sing, s, y, tol)
            diff = abs(uv - row["K"])
            limit = row["K_err"] + tol.rel_tol * abs(row["K"]) + tol.abs_tol
            checks.append(Check(label, diff <= limit, f"|uv - K| = {diff:.3e}, limit {limit:.3e}"))
        return checks


class MassProfileWorkload(CliWorkload):
    name = "mass-profile"
    commands = ("profile",)
    R_VALUES = (2.0**-2, 2.0**-12)

    def make_inputs(self, seed):
        r_grid = Jitter(seed).grid(self.R_VALUES)
        return {"config": {"seed": seed, "current": "cauchy", "grids": {"rGrid": r_grid}}}

    def outcome(self, state, out):
        rows = _read_csv(out / "profile" / "profile_cauchy.csv")
        items = len(state["cfg"].r_grid)
        failed = items - _finite_rows(rows)
        if any(state["rcs"]):
            failed = max(failed, 1)
        return Outcome(items, failed, _digest_dir(out), rows)

    def check(self, state, first):
        sing = state["sings"][0]
        spec = state["currents"]["cauchy"]
        checks = []
        for row in first.data:
            r = row["r"]
            checks.append(Check(f"monotone r={r:.6g}", row["monotone_violation"] == 0.0,
                                f"violation {row['monotone_violation']:.3e}"))
            upper = mass.mass_upper_intermediate(spec, sing, r).value
            checks.append(Check(f"F <= upper r={r:.6g}", row["F"] <= upper,
                                f"F = {row['F']:.6e}, upper {upper:.6e}"))
        return checks


class LeafStatistics(CliWorkload):
    name = "leaf-statistics"
    commands = ("regimes", "recurrence")
    SAMPLE_COUNT = 2500
    MAX_HORIZON = 25.0

    def make_inputs(self, seed):
        jit = Jitter(seed)
        grids = config.default_document()["grids"]
        return {"config": {
            "seed": seed,
            "regimes": {"sampleCount": self.SAMPLE_COUNT},
            "grids": {
                "rGrid": jit.grid(grids["rGrid"]),
                "yGrid": jit.grid(grids["yGrid"]),
                "RGrid": jit.grid(grids["RGrid"], upper=self.MAX_HORIZON),
            },
        }}

    def outcome(self, state, out):
        tables = {}
        for cmd in self.commands:
            for path in sorted((out / cmd).glob("*.csv")):
                tables[path.stem] = _read_csv(path)
        skipped = sum(len(_warnings(out / cmd)) for cmd in self.commands)
        rows = sum(len(t) for t in tables.values())
        failed = skipped + sum(len(t) - _finite_rows(t) for t in tables.values())
        if any(state["rcs"]):
            failed = max(failed, 1)
        return Outcome(rows + skipped, failed, _digest_dir(out), tables)

    def check(self, state, first):
        tables = first.data
        checks = []
        for row in tables.get("rho_residuals", []):
            checks.append(Check(f"rho residual y={row['y']:.6g} v={row['v']:.6g}",
                                row["abs_residual"] < 1e-10, f"{row['abs_residual']:.3e}"))
        for row in tables.get("regimes", []):
            ok = 0.0 < row["inf_ratio"] <= row["sup_ratio"] < math.inf
            checks.append(Check(f"band {row['regime']}", ok,
                                f"[{row['inf_ratio']:.4g}, {row['sup_ratio']:.4g}]"))
        for row in tables.get("recurrence_horizon", []):
            checks.append(Check(f"pushforward mass R={row['R']:.6g}", abs(row["mass"] - 1.0) < 1e-3,
                                f"|mass - 1| = {abs(row['mass'] - 1.0):.3e}"))
        if not checks:
            checks.append(Check("leaf statistics tables", False, "no rows to check"))
        return checks


class BoundPairing:
    """``bound_G_via_kernel`` called directly: C10's pairing at one radius."""

    name = "bound-pairing"
    R_VALUE = 2.0**-2
    Y_ORDER = 4
    CHECK_Y_ORDER = 8

    def make_inputs(self, seed):
        return {
            "config": {"seed": seed, "current": "cauchy"},
            "r": Jitter(seed).point(self.R_VALUE),
            "y_order": self.Y_ORDER,
            "check_y_order": self.CHECK_Y_ORDER,
        }

    def setup(self, inputs, run_dir):
        path = run_dir / "config.json"
        path.write_text(json.dumps(inputs["config"], indent=2, sort_keys=True) + "\n")
        cfg = config.load_config(str(path))
        sing = cfg.singularities()[0]
        return {"inputs": inputs, "sing": sing, "spec": cfg.currents(sing)["cauchy"]}

    def _pair(self, state, y_order):
        return mass.bound_G_via_kernel(state["spec"], state["sing"], state["inputs"]["r"], y_order=y_order)

    def run_pass(self, state):
        try:
            return self._pair(state, state["inputs"]["y_order"])
        except QuadratureError as exc:
            return exc

    def outcome(self, state, result):
        if isinstance(result, QuadratureError):
            return Outcome(1, 1, f"error: {result}", None)
        lhs, rhs = result
        ok = math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0.0
        return Outcome(1, 0 if ok else 1, hashlib.sha256(repr(result).encode()).hexdigest(), result)

    def check(self, state, first):
        if first.data is None:
            return [Check("pairing", False, "timed pass failed")]
        lhs, rhs = first.data
        ratio = lhs / rhs
        lhs_c, rhs_c = self._pair(state, state["inputs"]["check_y_order"])
        drift = abs(ratio - lhs_c / rhs_c) / (lhs_c / rhs_c)
        return [
            Check("lhs/rhs < 10", 0.0 < ratio < 10.0, f"lhs/rhs = {ratio:.6g}"),
            Check(f"y_order {state['inputs']['y_order']} vs {state['inputs']['check_y_order']} drift <= 10%",
                  drift <= 0.10, f"drift {drift:.3e}"),
        ]


REGISTRY = {w.name: w for w in (KernelSweep(), MassProfileWorkload(), BoundPairing(), LeafStatistics())}
