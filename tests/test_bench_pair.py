"""tools/bench_pair.py with a fake runner: the pairing order, the summary
numbers and the layout of BENCH_10.json.  No benchmark is started."""

import importlib.util
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pair",
                                              ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)

METRICS = ("latency_ms_p50", "latency_ms_p90", "throughput_ops_per_s",
           "peak_heap_kib", "peak_rss_kib", "setup_s")
TREES = {"parent": ("parent-tree", "abc1234", "p" * 16),
         "change": ("change-tree", "abc1234 + this change", "c" * 16)}


def fake_line(throughput: float, attempted: int = 100) -> str:
    metrics = {name: {"value": throughput if name == "throughput_ops_per_s"
                      else 1000 / throughput, "unit": "u"} for name in METRICS}
    return json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                       "metrics": metrics})


class FakeRunner:
    """Throughput 100 + seed on the parent, 150 + seed on the change, but
    the change loses at seed 3; records each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed, seconds):
        self.calls.append((tree, workload, seed, seconds))
        tput = 100 + seed if tree == "parent-tree" else 150 + seed
        if tree == "change-tree" and seed == 3:
            tput = 90
        return 0, fake_line(tput, attempted=seed)


def test_pairs_alternate_which_side_runs_first():
    runner = FakeRunner()
    runs = bench_pair.paired_runs(TREES, ["schedule-jit", "span-tall"],
                                  [1, 2, 3], 6, runner=runner)
    firsts = [run["side"] for run in runs if run["run_order"] == 1]
    assert firsts == ["parent", "change", "parent"] * 2
    assert [call[1:] for call in runner.calls[:2]] == [("schedule-jit", 1, 6)] * 2
    assert len(runs) == 12 and {run["set"] for run in runs} == {1}


def test_summary_numbers_and_layout():
    seeds = [1, 2, 3, 4, 5]
    runs = bench_pair.paired_runs(TREES, ["schedule-jit"], seeds, 6,
                                  runner=FakeRunner())
    doc = bench_pair.report("what", runs, TREES, ["schedule-jit"], seeds, 6)
    layout = json.loads((ROOT / "BENCH_10.json").read_text())
    assert set(doc) == set(layout) and set(doc["runs"][0]) == set(layout["runs"][0])
    summary = doc["summary"]["1"]["schedule-jit"]
    assert set(summary) == set(layout["summary"]["1"]["schedule-jit"])
    tput = summary["throughput_ops_per_s"]
    parent = [101, 102, 103, 104, 105]
    change = [151, 152, 90, 154, 155]
    q1, _, q3 = statistics.quantiles(change, n=4)
    assert tput["parent"]["median"] == 103
    assert tput["change"] == {"median": 152, "q1": round(q1, 4),
                              "q3": round(q3, 4)}
    assert tput["change_over_parent_median"] == round(152 / 103, 4)
    assert summary["throughput_change_wins"] == "4 of 5"
    assert summary["attempted"] == {"parent": seeds, "change": seeds}
    assert summary["all_correct"] is True
    assert doc["src_sha256_16"]["change_set_1"] == "c" * 16


def test_a_run_without_a_final_object_is_not_correct():
    def runner(tree, workload, seed, seconds):
        return (1, "Traceback") if seed == 2 and tree == "change-tree" \
            else (0, fake_line(100))

    runs = bench_pair.paired_runs(TREES, ["span-tall"], [1, 2], 1,
                                  runner=runner)
    assert bench_pair.summarize(runs)["span-tall"]["all_correct"] is False
