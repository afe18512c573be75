"""Run the benchmark on a parent commit and on the work tree, in pairs.

    python3 tools/bench_pair.py --parent REV --workloads schedule-jit \
        --seeds 81 82 83 84 85 --seconds 20 --out BENCH_26.json \
        --what "what the change does" [--parent-dir DIR]

The parent commit is exported with `git archive` into --parent-dir (a new
temporary directory, removed afterwards, when it is not given).  For each
workload and seed, one pair runs

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0

once in each tree, one run at a time, with PYTHONDONTWRITEBYTECODE=1.  The
side that runs first alternates from pair to pair, the parent first in the
first pair of each workload.  The file written has the layout of
BENCH_10.json: what, command, benchmark, machine, pairing, sets, quartiles,
src_sha256_16, runs (each with the benchmark's final line), and a summary
per workload: median and quartiles of each end-to-end metric on each side,
change_over_parent_median, attempted and failed operations, and in how many
pairs the change had the higher throughput.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHA_HOW = ("sha256 over src/**/*.py in sorted path order, each file's "
           "relative path, a NUL byte and its bytes; first 16 hex digits")


def src_sha256_16(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def export_commit(rev: str, dest: Path) -> str:
    """Extract the committed files of rev into dest; its short hash."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def run_benchmark(tree: Path, workload: str, seed: int,
                  seconds: float) -> tuple[int, str]:
    """One benchmark run in tree: its exit code and last line of output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
        timeout=10 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def paired_runs(trees: dict, workloads, seeds, seconds: float,
                runner=run_benchmark) -> list[dict]:
    """Every run of every pair, in the order run.  trees maps "parent" and
    "change" to (directory, commit label, source digest)."""
    runs = []
    for workload in workloads:
        for index, seed in enumerate(seeds):
            sides = ("parent", "change") if index % 2 == 0 else ("change",
                                                                 "parent")
            for order, side in enumerate(sides, 1):
                tree, commit, sha = trees[side]
                started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                code, line = runner(tree, workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "trace": 0, "started_utc": started,
                             "exit_code": code, "final_line": line,
                             "run_order": order, "src_sha256_16": sha,
                             "set": 1, "commit": commit})
    return runs


def _spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict]) -> dict:
    """The summary of BENCH_10.json for one set of runs, by workload."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        final = {"parent": {}, "change": {}}  # side -> seed -> final object
        broken = 0  # runs that failed or printed no final object
        for run in runs:
            if run["workload"] != workload:
                continue
            try:
                final[run["side"]][run["seed"]] = json.loads(run["final_line"])
            except ValueError:
                broken += 1
            broken += run["exit_code"] != 0
        seeds = [seed for seed in final["parent"] if seed in final["change"]]
        metrics = {}
        for name in final["parent"][seeds[0]]["metrics"]:
            values = {side: [final[side][s]["metrics"][name]["value"]
                             for s in seeds] for side in final}
            parent, change = (_spread(values[side]) for side in final)
            metrics[name] = {"parent": parent, "change": change,
                             "change_over_parent_median":
                                 round(change["median"] / parent["median"], 4)}
        metrics["attempted"], metrics["failed"] = (
            {side: [final[side][s][key] for s in seeds] for side in final}
            for key in ("attempted", "failed"))
        metrics["all_correct"] = not broken and all(
            final[side][s]["correct"] for side in final for s in seeds)
        wins = sum(final["change"][s]["metrics"]["throughput_ops_per_s"]["value"]
                   > final["parent"][s]["metrics"]["throughput_ops_per_s"]["value"]
                   for s in seeds)
        metrics["throughput_change_wins"] = f"{wins} of {len(seeds)}"
        out[workload] = metrics
    return out


def report(what: str, runs: list[dict], trees: dict, workloads, seeds,
           seconds: float) -> dict:
    """The whole BENCH_*.json document."""
    shas = {side: trees[side][2] for side in trees}
    return {
        "what": what,
        "command": ("python3 benchmark/run.py --workload W --seed N "
                    f"--seconds {seconds:g} --trace 0"),
        "benchmark": ("benchmark/ and BENCHMARK.json as in each tree; each "
                      "side ran from its own copy of the tree"),
        "machine": (f"{os.cpu_count()}-core {platform.system()}, "
                    f"{platform.python_implementation()} "
                    f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; "
                    "runs one at a time"),
        "pairing": ("each pair shares a seed; the side that runs first "
                    "alternates from pair to pair, parent first in the first "
                    "pair of each workload; one run of each side at a time"),
        "sets": {"1": f"{', '.join(workloads)}: seeds "
                      f"{', '.join(map(str, seeds))} ({len(seeds)} pairs each)"},
        "quartiles": "statistics.quantiles(values, n=4), exclusive method",
        "src_sha256_16": {"parent": shas["parent"],
                          "change_set_1": shas["change"], "how": SHA_HOW},
        "runs": runs,
        "summary": {"1": summarize(runs)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="the parent commit (default HEAD)")
    parser.add_argument("--parent-dir", type=Path,
                        help="an empty directory to export the parent into")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        parent_dir = args.parent_dir or Path(scratch)
        commit = export_commit(args.parent, parent_dir)
        trees = {"parent": (parent_dir, commit, src_sha256_16(parent_dir)),
                 "change": (ROOT, f"{commit} + this change",
                            src_sha256_16(ROOT))}
        runs = paired_runs(trees, args.workloads, args.seeds, args.seconds)
    doc = report(args.what, runs, trees, args.workloads, args.seeds,
                 args.seconds)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for workload, metrics in doc["summary"]["1"].items():
        tput = metrics["throughput_ops_per_s"]
        print(f"{workload}: throughput {tput['parent']['median']} -> "
              f"{tput['change']['median']} ops/s "
              f"(x{tput['change_over_parent_median']}), change wins "
              f"{metrics['throughput_change_wins']}, all correct "
              f"{metrics['all_correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
