"""leafcurrent benchmark: time to certified reports, set-up time and memory.

One run (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload kernel-sweep --seed 1 --seconds 25 --trace 0

measures one workload in fresh interpreters started from this checkout's
``src/`` and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` its per-layer
ones.  Names and units come from ``BENCHMARK.json``.

All workloads on the default seed and seed 1, with a summary table::

    python3 bench/run.py --all --seconds 25

Each run is one closed loop: one process at a time repeats the workload's pass
(``workloads.py``) until ``--seconds`` is used up.  ``wall_s`` is the lower
quartile over passes of the wall seconds from the first compute call to the
last report returned, net of the hypervisor's CPU steal (``worker._net_wall``).
It is wall time, so it shows what the program's own threads (the
``mass_profile`` pool) gain or lose.  On a shared virtual machine the host's
load only ever slows a pass down: it shows as steal, which is taken out, and
as slower CPUs, which the lower quartile of identical passes discounts.
``setup_s`` is the median, over ``SETUP_SAMPLES`` fresh interpreters, of the
wall seconds from process start to the first compute call.  Raw wall, CPU
and steal seconds of every pass are kept in ``record.json``.  BLAS/OpenMP pools are capped at ``THREAD_CAP`` threads in
every child; the program keeps its own concurrency.  Inputs, reports, spans
and results are written under ``.bench_out/`` in the checkout.

Timings move with the host's load over minutes to hours.  To compare two
commits, run both in one session, alternating them run by run (A B A B) on the
same seeds, and compare the medians over those runs; a baseline measured hours
earlier is not a fair reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in SPEC[section]}
DEFAULT_SEED = 20250819  # the default configuration's own seed
SETUP_SAMPLES = 4
THREAD_CAP = 2
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
RUN_DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: str(THREAD_CAP) for name in THREAD_VARS})
    return env


def _spawn(job: dict, run_dir: Path, deadline: float) -> dict:
    """Run one worker to completion and return its result document."""
    job_path = run_dir / f"job-{job['result_name']}"
    job_path.write_text(json.dumps(job, indent=2))
    log_path = run_dir / f"log-{job['result_name']}.txt"
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path), repr(t_spawn)],
            cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded the run deadline; log: {log_path}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited with code {rc}; log {log_path}:\n{tail}")
    return json.loads((run_dir / job["result_name"]).read_text())


def _source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    inputs: dict | None = None,
    out_root: Path = OUT_ROOT,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Measure one workload run and return its full record.

    ``inputs`` replaces the seeded inputs (the harness self-check uses it);
    the record holds the contract result under ``"result"``.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "leafcurrent" / "__init__.py").is_file():
        raise BenchError(f"no leafcurrent sources under {ROOT / 'src'}; run from a full checkout")
    run_dir = out_root / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "run_dir": str(run_dir), "inputs": inputs}

    setups = []
    if not trace:
        for k in range(setup_samples - 1):
            setups.append(_spawn({**job, "setup_only": True, "result_name": f"setup-{k}.json"}, run_dir, deadline))
    main = _spawn({**job, "result_name": "result.json"}, run_dir, deadline)
    setups.append(main)
    untraced = [p for p in main["passes"] if not p["traced"]]

    if trace:
        metrics = main["per_layer"]
        section = "per_layer"
    else:
        metrics = {
            "wall_s": quartiles([p["net_wall_s"] for p in untraced])[0],
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        section = "end_to_end"
    names = [m["name"] for m in SPEC[section]]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchError(f"the worker did not emit {missing}")
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    inputs_text = (run_dir / "inputs.json").read_bytes()
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": main["passes"],
        "untraced_quartiles": {
            key: quartiles([p[key] for p in untraced]) for key in ("net_wall_s", "wall_s", "cpu_s")
        },
        "setup_samples": [{"wall_s": s["setup_wall_s"], "cpu_s": s["setup_cpu_s"]} for s in setups],
        "fail_frac": main["failed"] / main["attempted"],
        "deterministic": main["deterministic"],
        "checks": main["checks"],
        "inputs_sha256": hashlib.sha256(inputs_text).hexdigest(),
        "env": {
            "git_sha": _git_sha(),
            "source_sha256": _source_sha(),
            "nproc": os.cpu_count(),
            **main["versions"],
            "thread_caps": {name: str(THREAD_CAP) for name in THREAD_VARS},
        },
        "measured_s": sum(p["wall_s"] for p in main["passes"]),
        "steal_s": _steal_total(main["passes"]),
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def _steal_total(passes: list[dict]) -> float | None:
    steals = [p["steal_s"] for p in passes]
    return None if None in steals else round(sum(steals), 2)


def _print_record(record: dict) -> None:
    result = record["result"]
    head = f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}"
    traced = sum(p["traced"] for p in record["passes"])
    untraced = len(record["passes"]) - traced
    print(f"{head}: {untraced} untraced + {traced} traced passes, "
          f"fail_frac {result['failed']}/{result['attempted']} = {record['fail_frac']:.4g}, "
          f"inputs sha256 {record['inputs_sha256'][:16]}, machine cpu steal {record['steal_s']} s")
    for key, (q1, med, q3) in record["untraced_quartiles"].items():
        print(f"  untraced pass {key}: median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={untraced})")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['label']}: {check['detail']}")
    print("  env: " + json.dumps(record["env"], sort_keys=True))


def _summarize(records: list[dict]) -> dict:
    """Median and quartiles over runs, per workload and metric, with the run count."""
    table: dict = {}
    for record in records:
        row = table.setdefault(record["workload"], {"runs": 0, "failed": 0, "attempted": 0, "metrics": {}})
        row["runs"] += 1
        row["failed"] += record["result"]["failed"]
        row["attempted"] += record["result"]["attempted"]
        for name, metric in record["result"]["metrics"].items():
            row["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for row in table.values():
        row["fail_frac"] = row["failed"] / row["attempted"]
        for metric in row["metrics"].values():
            metric["q1"], metric["median"], metric["q3"] = quartiles(metric["values"])
    return table


def run_all(seconds: float) -> int:
    seeds = [DEFAULT_SEED, 1]
    untraced, traced = [], []
    for workload in WORKLOADS:
        for seed in seeds:
            untraced.append(run_workload(workload, seed, seconds, trace=False))
            _print_record(untraced[-1])
        traced.append(run_workload(workload, seeds[0], seconds, trace=True))
        _print_record(traced[-1])
    summary = {"seeds": seeds, "seconds": seconds, "end_to_end": _summarize(untraced),
               "per_layer": _summarize(traced), "env": untraced[0]["env"]}
    (OUT_ROOT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nend-to-end over seeds {seeds} (median [q1, q3], n runs):")
    for workload, row in summary["end_to_end"].items():
        cells = [f"{name} {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] {m['unit']}"
                 for name, m in row["metrics"].items()]
        print(f"  {workload:16s} n={row['runs']}  " + "  ".join(cells)
              + f"  fail_frac {row['fail_frac']:.4g}")
    print(f"per-layer tables: {OUT_ROOT / 'summary.json'}")
    return 0 if all(r["result"]["correct"] for r in untraced + traced) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload on the default seed and seed 1")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        if args.all:
            return run_all(args.seconds)
        if args.workload is None:
            parser.error("give --workload or --all")
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
