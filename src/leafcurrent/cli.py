"""Command-line front end.

Subcommands::

    oracle       closed-form exponential-moment quadrature check
    kernel-bound kernel sweep with certified decay-bound ratios
    regimes      empirical comparability bands + level-crossing residuals
    profile      ball-mass profiles of boundary currents
    recurrence   leafwise hyperbolic recurrence statistics
    all          the full default suite, in the order above

Every subcommand accepts ``--config PATH`` (JSON, schema-validated),
``--seed N``, ``--out DIR``, ``--format csv|json``, ``--refine``, and
``--tol REL``.  Command-line flags are merged into the configuration
document before hashing, so the recorded config hash always describes the
run actually performed.  The output directory resolves in the order:
``--out`` flag, config ``outputs.directory``, the ``LEAFCURRENT_OUT``
environment variable, then ``./leafcurrent-reports``.

One tolerance rule holds for every quadrature stage: a ``tolerances``
section or ``--tol`` that changes the default document's values reaches
``kernel-bound`` and ``profile`` alike; otherwise each stage uses its own
default (``kernel_K``: its rounding floor, below 1e-13 of ``K`` on the
default grids; ``mass_F``: 1e-8 of ``F``).

Exit codes: 0 on success; 1 when a quadrature stage failed to converge
(partial reports are still written, with the failure flagged in the
bundle warnings); 2 on configuration errors (with a line/field
diagnostic on stderr) or unwritable output paths.  A regime that cannot be
sampled (an empty hypothesis set, or a boundary-strip crossing that
``rho_solver`` cannot place) is a warning and a missing row, not a failure.

The sweep defaults follow the default suite: ``kernel-bound`` runs every
configured eigenvalue pair, while ``profile``, ``regimes``, and
``recurrence`` use the first pair.  Reports are assembled in fixed order
and identical configuration plus seed reproduces every output byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .config import (
    _PROFILE_FAMILIES,
    ConfigError,
    ExperimentConfig,
    default_document,
    load_config,
    parse_config,
    parse_complex_token,
)
from .geometry import Singularity
from .kernels import (
    REGIMES,
    EmptyRegimeError,
    NoRootError,
    RegimeThresholds,
    exp_moment_oracle,
    kernel_report,
    power_real_residual,
    regime_constant_sampler,
    rho_solver,
    scale_factor,
)
from .mass import mass_profile
from .quadrature import QuadratureError, Tolerance
from .recurrence import recurrence_report, uniformize_leaf, visibility_N
from .reports import ReportBundle, Table, config_hash, emit_reports, format_number, tool_version

__all__ = ["build_parser", "run_command", "main"]

_OUT_ENV_VAR = "LEAFCURRENT_OUT"
_DEFAULT_OUT = "leafcurrent-reports"


def _tag_float(x: float) -> str:
    return format(float(x), "g").replace("-", "m").replace(".", "p")


def _lambda_tag(sing: Singularity) -> str:
    return f"l{_tag_float(sing.a)}_{_tag_float(sing.b)}"


@dataclass
class _RunState:
    cfg: ExperimentConfig
    tables: list = _dc_field(default_factory=list)
    warnings: list = _dc_field(default_factory=list)
    failed: bool = False

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def fail(self, message: str) -> None:
        self.failed = True
        self.warn(message)

    def tolerance_override(self) -> Tolerance | None:
        """The config's tolerance when it differs from the default, else ``None``.

        This is the one tolerance rule of every quadrature stage: a
        ``tolerances`` section or ``--tol`` that changes the default reaches
        ``kernel_report`` and ``mass_profile`` as given (``mass_profile``
        applying its absolute target to ``G = F/r^2``); otherwise each stage
        runs its own default, which is relative to the quantity it computes.
        """
        if self.cfg.resolved["tolerances"] == default_document()["tolerances"]:
            return None
        return self.cfg.tolerance


def _run_oracle(state: _RunState) -> None:
    rows = []
    for s0 in state.cfg.oracle_s0:
        expected = 0.5 * s0 + 0.25
        try:
            value = exp_moment_oracle(s0)
        except QuadratureError as exc:
            state.fail(f"oracle s0={format_number(s0)}: quadrature failed: {exc}")
            continue
        # Console summary at display precision; the table keeps all 17 digits.
        print(
            f"oracle s0={format_number(s0)}: computed {format(value, '.12g')}, "
            f"expected {format(expected, '.12g')}"
        )
        rows.append((s0, value, expected, abs(value - expected)))
    state.tables.append(
        Table("oracle", ("s0", "computed", "expected", "abs_error"), tuple(rows))
    )


def _run_kernel(state: _RunState) -> None:
    cfg = state.cfg
    refine = cfg.kernel_refine
    header = ("s", "y", "K", "K_err", "bound_ratio")
    if refine:
        header = header + ("refinementDrift",)
    for sing in cfg.singularities():
        tag = _lambda_tag(sing)
        try:
            report = kernel_report(
                sing, cfg.s_grid, cfg.y_grid, tol=state.tolerance_override(), refine=refine
            )
        except QuadratureError as exc:
            state.fail(f"kernel sweep {tag}: {exc}")
            continue
        for cell in report.failed_cells:
            state.fail(
                f"kernel cell {tag} (s={format_number(cell.s)}, y={format_number(cell.y)}) "
                f"failed: {cell.message}"
            )
        rows = []
        for cell in report.cells:
            row = (cell.s, cell.y, cell.K, cell.K_err, cell.bound_ratio)
            if refine:
                row = row + (report.refinement_drift,)
            rows.append(row)
        state.tables.append(Table(f"kernel_{tag}", header, tuple(rows)))


def _run_regimes(state: _RunState) -> None:
    cfg = state.cfg
    sing = cfg.singularities()[0]
    seed = cfg.seed if cfg.seed is not None else 0
    thresholds = RegimeThresholds()
    rows = []
    for regime in REGIMES:
        try:
            band = regime_constant_sampler(
                sing, regime, cfg.regime_samples, seed=seed,
                thresholds=thresholds, y_max=cfg.regime_y_max,
            )
            doubled = regime_constant_sampler(
                sing, regime, cfg.regime_samples, seed=seed,
                thresholds=thresholds.doubled(), y_max=cfg.regime_y_max,
            )
        except EmptyRegimeError as exc:
            state.warn(f"regime {regime}: empty hypothesis set: {exc}")
            continue
        except NoRootError as exc:
            state.warn(f"regime {regime}: level crossing failed: {exc}")
            continue
        drift = abs(doubled.sup_ratio - band.sup_ratio) / band.sup_ratio
        rows.append((regime, band.sample_count, band.inf_ratio, band.sup_ratio, drift))
    state.tables.append(
        Table(
            "regimes",
            ("regime", "samples", "inf_ratio", "sup_ratio", "sup_drift"),
            tuple(rows),
        )
    )

    residual_rows = []
    for y in sorted({y for y in cfg.y_grid if y > 0}):
        Y = float(scale_factor(sing, y))
        v_max = Y / thresholds.c3
        if v_max < 1.0:
            continue
        for v in sorted({1.0, v_max}):
            try:
                rho = rho_solver(sing, y, v, thresholds=thresholds)
            except NoRootError as exc:
                state.warn(f"level crossing (y={format_number(y)}, v={format_number(v)}): {exc}")
                continue
            u = (rho - sing.a * v) / sing.b
            residual_rows.append((y, v, rho, abs(power_real_residual(sing, u, v, y))))
    state.tables.append(
        Table("rho_residuals", ("y", "v", "rho", "abs_residual"), tuple(residual_rows))
    )


def _run_profile(state: _RunState) -> None:
    cfg = state.cfg
    sing = cfg.singularities()[0]
    tol = state.tolerance_override()
    for label, spec in cfg.currents(sing).items():
        try:
            prof = mass_profile(spec, sing, cfg.r_grid, tol=tol)
        except QuadratureError as exc:
            state.fail(f"mass profile {label}: quadrature failed: {exc}")
            continue
        violations = dict(prof.monotone_violations)
        rows = []
        for r, F, G, err in zip(prof.r_grid, prof.F, prof.G, prof.error_estimates):
            rows.append((r, F, G, err * r * r, err, violations.get(r, 0.0)))
        state.tables.append(
            Table(
                f"profile_{label}",
                ("r", "F", "G", "F_err", "G_err", "monotone_violation"),
                tuple(rows),
            )
        )


def _target_tag(target) -> str:
    if target == 0:
        return "origin"
    z, w = target
    return "x" + "_".join(
        _tag_float(part) for part in (z.real, z.imag, w.real, w.imag)
    )


def _run_recurrence(state: _RunState) -> None:
    cfg = state.cfg
    sing = cfg.singularities()[0]
    rec = cfg.recurrence
    alpha = rec.atom if rec.atom is not None else complex(math.exp(-math.pi * sing.b))
    zeta = complex((rec.base_t - sing.a * rec.base_v) / sing.b, rec.base_v)
    try:
        uni = uniformize_leaf(sing, alpha, zeta)
    except ValueError as exc:
        raise ConfigError(f"config error at recurrence: {exc}") from None

    for index, target in enumerate(rec.targets):
        rng = np.random.default_rng((cfg.seed, index)) if rec.monte_carlo else None
        values = visibility_N(uni, target, cfg.r_grid, rec.horizon, n_t=rec.n_t, n_theta=rec.n_theta, rng=rng)
        rows = tuple((r, n, n * abs(math.log(r))) for r, n in zip(cfg.r_grid, values.tolist()))
        state.tables.append(Table(f"recurrence_visibility_{_target_tag(target)}", ("r", "N", "N_log"), rows))
    report = recurrence_report(cfg.R_grid)
    state.tables.append(
        Table("recurrence_horizon", ("R", "M_R", "deviation", "mass"), report.horizon_rows)
    )
    state.tables.append(Table("recurrence_decay", ("circle_gap_slope",), ((report.decay_fit,),)))


_RUNNERS = {
    "oracle": (_run_oracle,),
    "kernel-bound": (_run_kernel,),
    "regimes": (_run_regimes,),
    "profile": (_run_profile,),
    "recurrence": (_run_recurrence,),
    "all": (_run_oracle, _run_kernel, _run_regimes, _run_profile, _run_recurrence),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafcurrent",
        description="Mass profiles, kernel bounds, and recurrence statistics "
        "of directed boundary currents near a hyperbolic singularity.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--seed", type=int, metavar="N", help="override the RNG seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), help="report format")
    common.add_argument(
        "--refine", action="store_true",
        help="refine kernel grids by a factor 2 and report the drift",
    )
    common.add_argument(
        "--tol", type=float, metavar="REL", help="override the relative tolerance"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", parents=[common], help="exponential-moment oracle")
    p.add_argument(
        "--s0", type=float, action="append", metavar="S0",
        help="lower endpoint (repeatable; default 1, 2, 10)",
    )
    p = sub.add_parser("kernel-bound", parents=[common], help="kernel decay-bound sweep")
    p.add_argument(
        "--gamma-from-lambda", metavar="LAMBDA",
        help="complex eigenvalue ratio, e.g. 'i', '1+i'; give a value that starts "
        "with '-' in the joined form --gamma-from-lambda=-1+i",
    )
    sub.add_parser("regimes", parents=[common], help="comparability bands")
    p = sub.add_parser("profile", parents=[common], help="ball-mass profiles")
    p.add_argument(
        "--current", choices=tuple(_PROFILE_FAMILIES),
        help="run a single built-in current",
    )
    sub.add_parser("recurrence", parents=[common], help="recurrence statistics")
    sub.add_parser("all", parents=[common], help="full default suite")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides.setdefault("outputs", {})["directory"] = args.out
    if args.format is not None:
        overrides.setdefault("outputs", {})["format"] = args.format
    if args.tol is not None:
        overrides.setdefault("tolerances", {})["relTol"] = args.tol
    if args.refine:
        overrides.setdefault("kernel", {})["refine"] = True
    lam_token = getattr(args, "gamma_from_lambda", None)
    if lam_token is not None:
        lam = parse_complex_token(lam_token)
        overrides.setdefault("kernel", {})["lambdaOverride"] = [lam.real, lam.imag]
    s0 = getattr(args, "s0", None)
    if s0:
        overrides["oracle"] = {"s0": list(s0)}
    current = getattr(args, "current", None)
    if current is not None:
        overrides["current"] = current
    return overrides


def run_command(argv) -> int:
    """Parse ``argv``, run the subcommand, write reports, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)

    try:
        overrides = _overrides_from_args(args)
        if args.config is not None:
            cfg = load_config(args.config, overrides)
        else:
            cfg = parse_config(None, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    state = _RunState(cfg=cfg)
    try:
        for runner in _RUNNERS[args.command]:
            runner(state)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    bundle = ReportBundle(
        metadata={
            "command": args.command,
            "configHash": config_hash(cfg.resolved),
            "seed": cfg.seed,
            "toolVersion": tool_version(),
        },
        tables=tuple(state.tables),
        warnings=tuple(state.warnings),
    )
    out_dir = cfg.out_dir or os.environ.get(_OUT_ENV_VAR) or _DEFAULT_OUT
    try:
        paths = emit_reports(bundle, out_dir, cfg.out_format)
    except OSError as exc:
        print(f"config error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    if state.failed:
        print(
            "completed with quadrature failures; partial reports written, "
            "failures flagged in warnings",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> None:
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
