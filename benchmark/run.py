"""Benchmark of tropspan as its users run it: as a library and as the CLI.

    python3 benchmark/run.py --workload span-square --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ next to this directory.
One run sets up a workload, runs whole passes over its seeded corpus until
--seconds have elapsed, checks every output against benchmark/oracle.py and
prints one JSON object as its last line.  With --trace 0 the object holds the
end-to-end metrics; with --trace 1, the per-layer times and counters.  Every
pass does the same operations in the same order, so two runs with one seed
do the same work.  See benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from harness import HERE, SRC

WORKLOADS = ("span-square", "span-tall", "schedule-jit", "cli-roundtrip")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropspan" / "__init__.py").is_file():
        print(f"error: no tropspan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    import tropspan

    if Path(tropspan.__file__).resolve().parent != SRC / "tropspan":
        print(f"error: tropspan imported from {tropspan.__file__}",
              file=sys.stderr)
        return 2
    oracle.self_test()
    if args.workload == "cli-roundtrip":
        import cliround
        (HERE / ".work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
        try:
            out = cliround.run(args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        import inprocess
        out = inprocess.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
