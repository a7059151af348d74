"""The scissors benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dissection, phi_boundary, chains, cli (see
perfbench/README.md).  The run starts perfbench/worker.py with
PYTHONHASHSEED drawn from the seed, which runs the workload's items in a
fixed number of whole passes, set by S, and checks every outcome.
An untraced run also times cold starts of the CLI for set-up time, half
before the worker and half after it.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A full record
with provenance goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("dissection", "phi_boundary", "chains", "cli")
SETUP_STARTS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import scissors.cli; "
              "scissors.cli.build_parser()")
RUN_DEADLINE_S = 170
SETUP_RESERVE_S = 15  # kept from the worker for the cold starts after it


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for a run: fixed by the seed, never picked for speed."""
    digest = hashlib.sha256(f"pythonhashseed:{seed}".encode()).digest()
    return str(int.from_bytes(digest[:4], "big"))


def child_env(seed: int) -> dict:
    return {**os.environ, "PYTHONHASHSEED": hash_seed(seed)}


def measure_setup(env, starts) -> list:
    """[wall s, calibration before, after] of fresh interpreters that
    import scissors.cli and build its parser."""
    times = []
    cal = speed.calibrate()
    for _ in range(starts):
        t0 = time.perf_counter()
        # with a pipe the wait ends when the child exits; without one,
        # subprocess polls for it every 50 ms, which shows in the figure
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=30)
        wall = time.perf_counter() - t0
        after = speed.calibrate(speed.window_ms(wall * 1000))
        times.append([wall, cal, after])
        cal = after
    return times


def pin_to_one_cpu():
    """Keeps this process and every process it starts on one CPU, the
    highest-numbered one it may use, and returns it (None where affinity
    cannot be set).  The calibration then runs on the core the timed work
    runs on: cold starts free to run on either core followed the calibration
    with a correlation of 0.42, pinned with the calibration to one, 0.72."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": nproc,
            "cpu_model": cpu}


def tail_rank(items: int) -> int:
    """1-based rank of the highest percentile with at least ten items beyond
    it; the slowest item when there are fewer than eleven."""
    return items - 10 if items > 10 else items


def item_latencies(raw, scale=True) -> list:
    """Each item's latency in ms, the median over the run's passes; with
    `scale`, each repeat is first scaled to the reference speed by the
    calibrations around it (see speed.py)."""
    seen = {}
    for lat in raw["latencies"]:
        for item_id, ms, before, after in lat:
            seen.setdefault(item_id, []).append(
                speed.scaled(ms, before, after) if scale else ms)
    return [statistics.median(v) for v in seen.values()]


def time_metrics(lat, setup) -> dict:
    lat = sorted(lat)
    rank = tail_rank(len(lat))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (len(lat) * 1000 / sum(lat), "1/s"),
        "item_ms_p50": (statistics.median(lat), "ms"),
        "item_ms_tail": (lat[rank - 1], "ms"),
    }


def end_to_end(raw, setup) -> dict:
    """The end-to-end metrics at the reference speed, and next to them the
    same figures from unscaled wall times, for the record."""
    lat = item_latencies(raw)
    metrics = time_metrics(lat, [speed.scaled(*start) for start in setup])
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    wall = time_metrics(item_latencies(raw, scale=False),
                        [start[0] for start in setup])
    return metrics, {
        "tail_percentile": 100 * tail_rank(len(lat)) / len(lat),
        "items": len(lat),
        "fail_ratio": len(raw["failures"]) / raw["attempted"],
        "wall_metrics": {k: v for k, (v, _) in wall.items()}}


def per_layer(raw) -> dict:
    trace = raw["trace"]
    metrics = tracing.per_layer_metrics(trace["aggregate"])
    metrics["report.digest_drift"] = (raw["digest_drift"], "count")
    plain = trace["plain_pass_s"]
    metrics["trace.overhead_ratio"] = (
        trace["traced_pass_s"] / plain if plain else 0.0, "1")
    metrics["trace.wall_ms"] = (trace["traced_s"] * 1000, "ms")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "scissors" / "cli.py").is_file():
        print(f"no scissors sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    started = time.perf_counter()
    cpu = pin_to_one_cpu()
    env = child_env(args.seed)
    setup = []
    if not args.trace:
        # spread around the worker, so a slow spell of a few seconds meets
        # only some of them; the start that writes the bytecode caches in a
        # fresh checkout is one of five, which the median leaves out
        setup += measure_setup(env, SETUP_STARTS // 2)
    os.makedirs(OUT, exist_ok=True)
    budget = (RUN_DEADLINE_S - SETUP_RESERVE_S -
              (time.perf_counter() - started))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload,
             str(args.seed), str(args.seconds), str(args.trace),
             str(budget - 10)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"worker still running after {budget:.0f} s; stopped it",
              file=sys.stderr)
        return 1
    if not args.trace:
        setup += measure_setup(env, SETUP_STARTS - SETUP_STARTS // 2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])
    raw["provenance"].update(machine(), pinned_cpu=cpu)
    if args.trace:
        metrics, extra = per_layer(raw), {}
    else:
        metrics, extra = end_to_end(raw, setup)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": raw["provenance"], "setup_s_all": setup,
              "passes": raw["passes"], "items_per_pass": raw["items_per_pass"],
              "failures": raw["failures"], "digest_drift": raw["digest_drift"],
              **extra,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "latencies_ms": raw["latencies"]}
    if args.trace:
        record["spans_file"] = raw["trace"]["spans_file"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    prov = raw["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"kernel {prov['kernel']}  python {prov['python']}  "
          f"sympy {prov['sympy']}  mpmath {prov['mpmath']}  "
          f"PYTHONHASHSEED {prov['pythonhashseed']}  "
          f"SCISSORS_CELL_CAP {prov['scissors_cell_cap']}")
    print(f"machine: {prov['nproc']} cpus, {prov['cpu_model']}; "
          f"commit {prov['git_commit']}; src {prov['source_sha256'][:16]}")
    print(f"{raw['passes']} passes of {raw['items_per_pass']} items, "
          f"{len(raw['failures'])} failed of {raw['attempted']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {extra['fail_ratio']:14.4f} 1")
        print(f"  setup_s is the median of {len(setup)} cold starts; "
              f"item_ms_tail is p{extra['tail_percentile']:.1f} of "
              f"{extra['items']} items, each the median of "
              f"{raw['passes']} passes")
        print(f"  times are scaled to the speed at which the calibration "
              f"work takes {speed.REFERENCE_MS} ms (perfbench/speed.py); "
              f"unscaled:")
        for name, value in extra["wall_metrics"].items():
            print(f"  {'wall ' + name:32s} {value:14.4f}")
    for failure in raw["failures"][:10]:
        print(f"FAILED {json.dumps(failure)[:300]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not raw["failures"],
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
