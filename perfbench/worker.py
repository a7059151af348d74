"""Runs one workload in a process of its own and prints raw results as JSON.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE DEADLINE

`run.py` starts this with the run's PYTHONHASHSEED and turns the raw
results into metrics.  Items run in whole passes over the workload's item
list, so every pass has the same mix.  The number of passes is fixed by the
workload and SECONDS alone (`passes_for`), never by how fast this machine
happens to be, so every run takes the median of the same number of
repeats.  A fixed piece of work is timed around every item, for the
machine's speed at the time (speed.py).  With TRACE=1 a third of
the passes run untraced, to give the tracing overhead, and the rest run
traced.  An item that runs longer than
ITEM_TIMEOUT_S, or past DEADLINE seconds after the start, is stopped and
counted as a failure; no pass starts after DEADLINE.
"""

import gc
import hashlib
import json
import logging
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
# `scissors` processes of the cli workload import from the same sources
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# the placed CLI shapes include reflections, which scissors reports when it
# reorders their cells; that is expected here
logging.getLogger("scissors").setLevel(logging.ERROR)

OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
TRACE_ENV = "PERFBENCH_TRACE_OUT"
ITEM_TIMEOUT_S = 60
# Passes of each workload in a run of REFERENCE_S seconds; other run
# lengths scale them.  Without calibration a pass takes about 1 s
# (phi_boundary), 5.5-10 s (chains), 7-10 s (dissection) and 15-22 s (cli)
# on a shared 2-core Xeon.  The calibration around the items (speed.py)
# adds half of that or more, and two to three times it on phi_boundary,
# whose items are shorter than one run of the calibration work.
REFERENCE_S = 25
PASSES = {"dissection": 2, "phi_boundary": 5, "chains": 3, "cli": 1}


def passes_for(workload, seconds, least) -> int:
    return max(least, round(PASSES[workload] * seconds / REFERENCE_S))


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout("stopped at its time limit")


def outcome_digest(outcome) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Latencies, failures and outcome digests of one workload's items."""

    def __init__(self, workload, seed, limit=None, expect_patch=None,
                 deadline=None):
        self.workload = workload
        self.seed = seed
        self.limit = limit
        self.expect_patch = expect_patch or {}
        self.work_dir = str(OUT / f"work-{workload}-{seed}-{os.getpid()}")
        # per pass: [[item id, ms, calibration before, after], ...]
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.tracer = None
        self.child_traces = []
        self.items_per_pass = 0
        self.deadline = deadline  # perf_counter() time, or None
        self.last_ms = {}  # item id: its latency in the pass before

    def items(self, pass_no):
        items = workloads.items_for(self.workload, self.seed, pass_no,
                                    os.path.join(self.work_dir,
                                                 f"pass-{pass_no}"))
        if self.limit is not None:
            items = items[:self.limit]
        for item in items:
            item.expect = {**item.expect,
                           **self.expect_patch.get(item.id, {})}
        return items

    def one_pass(self, pass_no) -> float:
        """Runs every item once; returns the summed item latency in s."""
        tr = self.tracer
        if tr is not None:
            tr.paused = True
        items = self.items(pass_no)
        self.items_per_pass = len(items)
        latencies = []
        self.latencies.append(latencies)
        busy = 0.0
        cal = speed.calibrate()
        for item in items:
            cal = speed.calibrate(
                speed.window_ms(self.last_ms.get(item.id, 0.0)), cal)
            limit = ITEM_TIMEOUT_S
            if self.deadline is not None:
                limit = min(limit, self.deadline - time.perf_counter())
            if limit <= 0:
                self.attempted += 1
                self.failures.append({"item": item.id, "pass": pass_no,
                                      "error": "not started: run deadline"})
                continue
            if tr is not None:
                tr.paused = False
            t0 = time.perf_counter()
            try:  # a failed or stopped item is counted, not fatal
                try:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    raw, error = item.run(), None
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:
                raw, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.paused = True
            busy += dt
            self.attempted += 1
            after = speed.calibrate(speed.window_ms(dt * 1000))
            latencies.append([item.id, dt * 1000, cal, after])
            self.last_ms[item.id] = dt * 1000
            cal = after
            self._collect_child_trace(item.id, pass_no)
            if error is None:
                try:
                    outcome = item.finish(raw)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append({"item": item.id, "pass": pass_no,
                                      "error": error})
                continue
            bad = workloads.mismatches(outcome, item.expect)
            if bad:
                self.failures.append({"item": item.id, "pass": pass_no,
                                      "mismatch": bad})
            self.digests.setdefault(item.id, set()).add(
                outcome_digest(outcome))
        return busy

    def _collect_child_trace(self, item_id, pass_no):
        path = os.environ.get(TRACE_ENV)
        if not path or not os.path.exists(path):
            return
        with open(path) as fh:
            data = json.load(fh)
        os.remove(path)
        self.child_traces.append({"item": item_id, "pass": pass_no, **data})

    def measure(self, passes, first_pass):
        """`passes` whole passes, or fewer if the run deadline passes."""
        walls = []
        for pass_no in range(first_pass, first_pass + passes):
            if (self.deadline is not None and
                    time.perf_counter() >= self.deadline):
                break
            walls.append(self.one_pass(pass_no))
        return walls, first_pass + len(walls)

    def digest_drift(self) -> int:
        """Items whose outcome digest differs from the recorded reference."""
        try:
            with open(REFERENCE) as fh:
                ref = json.load(fh).get(self.workload, {})
        except FileNotFoundError:
            ref = {}
        return sum(1 for item_id, seen in self.digests.items()
                   if seen != {ref.get(item_id)})


def peak_rss_mb(workload) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "cli"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024


def provenance() -> dict:
    import mpmath
    import sympy
    from scissors.geom import predicates, refine
    return {"kernel": predicates.KERNEL,
            "sympy": sympy.__version__,
            "mpmath": mpmath.__version__,
            "scissors_cell_cap": refine.cell_cap(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def run_workload(workload, seed, seconds, trace, limit=None,
                 expect_patch=None, deadline_s=None) -> dict:
    """In-process workloads make two passes at least, so every item has a
    repeat after the one-time costs of a fresh process (sympy and mpmath
    caches) are paid; a `cli` item is a fresh process every time.  With
    `limit` (a few items, for the self-test) each part makes one pass."""
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = (None if deadline_s is None
                else time.perf_counter() + deadline_s)
    run = Run(workload, seed, limit, expect_patch, deadline)
    least = 1 if limit is not None or workload == "cli" else 2
    os.makedirs(run.work_dir, exist_ok=True)
    result = {"workload": workload, "seed": seed,
              "provenance": provenance()}
    # Collections then scan only what the workload allocates, not the ~50 MB
    # import-time heap: a full collection over it inside a 30 ms item was the
    # largest per-item noise.
    gc.collect()
    gc.freeze()
    if not trace:
        walls, _ = run.measure(passes_for(workload, seconds, least), 0)
    else:
        plain, next_pass = run.measure(
            passes_for(workload, seconds / 3, least), 0)
        plain_prefix = list(workloads.CLI_PREFIX)
        if workload == "cli":
            workloads.CLI_PREFIX[:] = [sys.executable,
                                       str(BENCH / "cli_traced.py")]
            os.environ[TRACE_ENV] = os.path.join(run.work_dir, "trace.json")
        else:
            run.tracer = tracing.Tracer().install()
        try:
            walls, _ = run.measure(
                passes_for(workload, seconds * 2 / 3, least), next_pass)
        finally:
            if run.tracer is not None:
                run.tracer.uninstall()
            workloads.CLI_PREFIX[:] = plain_prefix
            os.environ.pop(TRACE_ENV, None)
        agg = {}
        processes = []
        if run.tracer is not None:
            processes.append({"item": None, **run.tracer.data()})
        processes.extend(run.child_traces)
        for proc in processes:
            tracing.merge(agg, proc)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"processes": processes}, fh)
        result["trace"] = {
            "aggregate": {k: agg.get(k, {}) for k in
                          ("calls", "incl_ns", "self_ns", "counters")},
            # the fastest of as many traced passes as untraced ones
            "plain_pass_s": min(plain, default=0.0),
            "traced_pass_s": min(walls[:len(plain)], default=0.0),
            "traced_s": sum(walls),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    result.update({
        "passes": len(walls),
        "items_per_pass": run.items_per_pass,
        "latencies": [] if trace else run.latencies,
        "attempted": run.attempted,
        "failures": run.failures,
        "digest_drift": run.digest_drift(),
        "digests": {k: sorted(v) for k, v in run.digests.items()},
        "peak_rss_mb": peak_rss_mb(workload),
    })
    shutil.rmtree(run.work_dir, ignore_errors=True)
    return result


def main(argv):
    workload, seed, seconds, trace, deadline = argv
    os.makedirs(OUT, exist_ok=True)
    result = run_workload(workload, int(seed), float(seconds),
                          trace == "1", deadline_s=float(deadline))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
