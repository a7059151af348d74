"""Record the reference outcome digests that `report.digest_drift` counts
against: one pass of every workload, written to perfbench/reference.json.

Usage (from the repository root): python3 perfbench/record_reference.py

Run it only when a change alters outcomes on purpose, and say why in
CHANGES.md; the digests cover verdicts, certificates, Dehn invariants and
homology values, so a refactor that keeps them shows zero drift.
"""

import json

import worker
import workloads


def main():
    reference = {}
    for name in workloads.WORKLOADS:
        run = worker.Run(name, seed=0)
        run.one_pass(0)
        if run.failures:
            raise SystemExit(f"{name}: failed items {run.failures}")
        reference[name] = {item: digests.pop()
                           for item, digests in sorted(run.digests.items())}
    with open(worker.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
