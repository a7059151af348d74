"""`scissors` under the span tracer: one traced CLI process.

Usage: PERFBENCH_TRACE_OUT=FILE python3 perfbench/cli_traced.py ARGS...

Runs `scissors ARGS...` like `python3 -m scissors.cli`, with every layer
wrapped after import, and writes the tracer's data to FILE at exit.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import scissors.cli  # noqa: E402
import tracer as tracing  # noqa: E402


def main() -> int:
    tr = tracing.Tracer().install()
    try:
        code = scissors.cli.main(sys.argv[1:])
    finally:
        tr.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tr.data(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
