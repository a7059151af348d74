"""Fast self-test of the benchmark harness (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it runs a few items untraced and traced, and checks that
every metric named in BENCHMARK.json comes out with its unit; that a planted
wrong expectation, and an item stopped at its time limit, are counted as
failures without raising; and that run.py refuses to run, without a result
line, where there are no sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = check(set(spec_w["name"] for spec_w in spec["workloads"])
               <= set(workloads.WORKLOADS),
               "every workload in BENCHMARK.json is defined")
    for name in workloads.WORKLOADS:
        raw = worker.run_workload(name, seed=7, seconds=0, trace=False,
                                  limit=2)
        metrics, extra = bench.end_to_end(
            raw, [[0.5, [5.0, 1], [5.2, 20]], [0.6, [5.2, 20], [4.9, 25]],
                  [0.7, [4.9, 25], [5.0, 30]]])
        got = {k: u for k, (_, u) in metrics.items()}
        ok &= check(got == e2e_units and not raw["failures"],
                    f"{name}: end-to-end metrics and units, no failures")
        raw = worker.run_workload(name, seed=7, seconds=0, trace=True,
                                  limit=2)
        got = {k: u for k, (_, u) in bench.per_layer(raw).items()}
        ok &= check(got == layer_units and not raw["failures"],
                    f"{name}: per-layer metrics and units, no failures")

    first = workloads.items_for("phi_boundary", 7, 0, None)[0].id
    raw = worker.run_workload("phi_boundary", seed=7, seconds=0, trace=False,
                              limit=2, expect_patch={first: {"pass": False}})
    ok &= check(len(raw["failures"]) == 1
                and raw["failures"][0]["item"] == first,
                "a planted wrong expectation counts as one failure")

    saved, worker.ITEM_TIMEOUT_S = worker.ITEM_TIMEOUT_S, 1e-4
    try:
        raw = worker.run_workload("phi_boundary", seed=7, seconds=0,
                                  trace=False, limit=2)
    finally:
        worker.ITEM_TIMEOUT_S = saved
    ok &= check(len(raw["failures"]) == 2 and all(
        "ItemTimeout" in f.get("error", "") for f in raw["failures"]),
                "an item stopped at its time limit counts as a failure")

    with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(worker.BENCH, Path(tmp) / worker.BENCH.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        ok &= check(proc.returncode != 0 and '"correct"' not in proc.stdout,
                    "no sources: non-zero exit and no result line")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
