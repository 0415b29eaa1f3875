"""The measured process of one benchmark run (started by ``run.py``, one per run).

Usage: ``python3 bench/worker.py JOB_JSON SPAWN_MONOTONIC``.  The job names the
workload, seed, run length, trace flag and run directory.  The worker sets up
the workload, repeats its pass until the run length is used up, checks the
outputs off the clock, and writes ``result.json`` to the run directory.  Each
pass is timed in wall seconds and in CPU seconds of this process, and the
machine's CPU steal during it is recorded; set-up is timed in wall seconds
from process start to the first compute call.  With
``setup_only`` it stops there.  With ``trace`` it alternates untraced and
traced passes, so the difference of their medians is the tracing overhead.
"""

import time

T_MAIN = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _machine_steal_s():
    """CPU time the hypervisor took from this machine since boot, or None if unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _net_wall(wall, cpu, steal):
    """Pass wall time without the hypervisor's steal.

    While stolen, this process's threads were runnable but not running, so
    they ran for ``cpu`` of ``cpu + steal`` runnable seconds; scaling the wall
    time by that share removes the host's load and keeps the program's own
    parallelism (or lack of it).  The attribution assumes the program is the
    machine's only busy process, as it is during a benchmark run.
    """
    if not steal or cpu <= 0.0:
        return wall
    return wall * cpu / (cpu + steal)


def main(job_path: str, spawn_monotonic: str) -> None:
    t_spawn = float(spawn_monotonic)
    job = json.loads(Path(job_path).read_text())
    run_dir = Path(job["run_dir"])

    t0 = time.monotonic()
    import numpy
    import scipy

    import leafcurrent.cli  # noqa: F401  (the whole library, as the CLI loads it)
    import spans
    import workloads

    t_imported = time.monotonic()

    workload = workloads.REGISTRY[job["workload"]]
    tracer = spans.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    inputs = job.get("inputs") or workload.make_inputs(job["seed"])
    (run_dir / "inputs.json").write_text(json.dumps(inputs, indent=2, sort_keys=True) + "\n")
    state = workload.setup(inputs, run_dir)
    t_ready = time.monotonic()
    # CPU time counts from process creation, so it covers interpreter start-up too
    result = {"setup_wall_s": t_ready - t_spawn, "setup_cpu_s": time.process_time()}
    if tracer:
        tracer.uninstall()
        setup_spans, _ = tracer.collect()
        config_s = sum(s.t1 - s.t0 for s in setup_spans if s.name == "config.load_config" and s.outer)
        result["setup_layers"] = {
            "setup.interpreter_s": T_MAIN - t_spawn,
            "setup.import_s": t_imported - t0,
            "setup.config_s": config_s,
            "setup.build_s": (t_ready - t_imported) - config_s,
        }
    if job.get("setup_only"):
        (run_dir / job["result_name"]).write_text(json.dumps(result))
        return

    passes, outcomes, layer_rows, span_log = [], [], [], []
    started = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(tracer) and len(outcomes) % 4 in (1, 2)  # U T T U: drift cancels
        if traced:
            tracer.install()
        steal_before = _machine_steal_s()
        c_pass = time.process_time()
        t_pass = time.perf_counter()
        produced = workload.run_pass(state)
        dt = time.perf_counter() - t_pass
        cpu = time.process_time() - c_pass
        steal_after = _machine_steal_s()
        # CPU time the hypervisor withheld from this machine's vCPUs during the pass
        steal = None if steal_before is None or steal_after is None else steal_after - steal_before
        passes.append({"traced": traced, "wall_s": dt, "cpu_s": cpu, "steal_s": steal,
                       "net_wall_s": _net_wall(dt, cpu, steal)})
        if traced:
            tracer.uninstall()
            pass_spans, counters = tracer.collect()
            layer_rows.append(spans.derive(pass_spans, counters))
            span_log.extend({"pass": len(outcomes), **s.as_dict()} for s in pass_spans)
        outcomes.append(workload.outcome(state, produced))
        longest = max(longest, dt)
        enough = len(outcomes) >= (2 if tracer else 1)
        if enough and time.perf_counter() - started + longest > job["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # off the clock: every pass must reproduce the first pass's outputs exactly
    attempted = sum(o.items for o in outcomes)
    failed = sum(o.items if o.digest != outcomes[0].digest else o.failed for o in outcomes)
    checks = workload.check(state, outcomes[0])
    attempted += len(checks)
    failed += sum(not bool(c.ok) for c in checks)

    result.update(
        passes=passes,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=failed,
        deterministic=all(o.digest == outcomes[0].digest for o in outcomes),
        checks=[{"label": c.label, "ok": bool(c.ok), "detail": c.detail} for c in checks],
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if tracer:
        per_layer = {name: _mean([row[name] for row in layer_rows]) for name in spans.PER_LAYER}
        per_layer.update(result.pop("setup_layers"))
        untraced_wall = statistics.median(p["net_wall_s"] for p in passes if not p["traced"])
        overhead = statistics.median(p["net_wall_s"] for p in passes if p["traced"]) - untraced_wall
        per_layer.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / untraced_wall,
        })
        result["per_layer"] = per_layer
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for record in span_log:
                handle.write(json.dumps(record) + "\n")
    (run_dir / job["result_name"]).write_text(json.dumps(result, indent=2))


if __name__ == "__main__":
    main(*sys.argv[1:])
