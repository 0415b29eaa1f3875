"""Self-check of the benchmark harness on a tiny input (about ten seconds).

    python3 bench/selfcheck.py

Runs a one-cell kernel sweep through the same path as a benchmark run and
exits non-zero unless

* the untraced run emits exactly the end-to-end metrics of
  ``BENCHMARK.json`` and the traced run exactly its per-layer metrics, each
  with the unit given there, and both pass their checks;
* a deliberately failing item (an evaluation budget too small for the cell,
  so the kernel cell is flagged and the CLI exits 1) raises ``fail_frac``
  above 0 and clears ``correct``.
"""

from __future__ import annotations

import copy
import sys

import run

TINY = {
    "config": {
        "seed": 1,
        "singularity": [[[1.0, 0.0], [0.0, 1.0]]],
        "grids": {"sGrid": [64.0], "yGrid": [0.0]},
    },
    "check_cells": [[0, 64.0, 0.0]],
}


def main() -> int:
    problems = []
    out_root = run.OUT_ROOT / "selfcheck"
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run_workload("kernel-sweep", 1, 1.0, trace, inputs=TINY, out_root=out_root, setup_samples=2)
        emitted = {name: m["unit"] for name, m in record["result"]["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in run.SPEC[section]}
        if emitted != wanted:
            diff = sorted(set(emitted.items()) ^ set(wanted.items()))
            problems.append(f"{section}: emitted metrics differ from BENCHMARK.json: {diff}")
        if not record["result"]["correct"] or record["fail_frac"] != 0.0:
            problems.append(f"{section}: tiny run failed: {record['checks']}")

    failing = copy.deepcopy(TINY)
    failing["config"]["tolerances"] = {"maxEvals": 100}
    record = run.run_workload("kernel-sweep", 2, 1.0, False, inputs=failing, out_root=out_root, setup_samples=1)
    if record["result"]["correct"] or not record["fail_frac"] > 0.0:
        problems.append(f"a failing item left fail_frac at {record['fail_frac']}")
    else:
        print(f"failing item: fail_frac {record['result']['failed']}/{record['result']['attempted']}")

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
