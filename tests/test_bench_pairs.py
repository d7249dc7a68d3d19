"""tools/bench_pairs.py: the order of the paired runs and their summary, on
synthetic run records (no benchmark runs)."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "pipeline_s", "unit": "s", "better": "lower"},
    {"name": "iou3d_mean", "unit": "IoU", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]


def test_the_tree_that_runs_first_alternates():
    assert bench_pairs.pair_orders(4) == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


def test_runs_are_made_and_tagged_in_pair_order():
    calls = []

    def run(tree, workload):
        calls.append((workload, tree))
        return {"metrics": {}, "correct": True}

    records = bench_pairs.collect(["a", "b"], 3, run)
    firsts = [tree for workload, tree in calls[::2]]
    assert firsts == ["parent", "change", "parent"] * 2
    assert [w for w, _ in calls] == ["a"] * 6 + ["b"] * 6
    assert [(r["workload"], r["tree"]) for r in records] == calls
    assert [(r["pair"], r["place"]) for r in records[:6]] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]
    assert records[1]["correct"] is True


def _records(values):
    """Run records of workload "w" from {tree: [(pipeline_s, iou3d_mean), ...]}."""
    return [
        {"workload": "w", "tree": tree, "pair": pair, "place": 0,
         "metrics": {"pipeline_s": s, "iou3d_mean": iou}}
        for tree, runs in values.items()
        for pair, (s, iou) in enumerate(runs)
    ]


def test_summary_gives_medians_parent_quartiles_and_pairs_won():
    records = _records({
        "parent": [(1.0, 0.8), (2.0, 0.8), (3.0, 0.8), (4.0, 0.8), (5.0, 0.8)],
        "change": [(0.5, 0.9), (2.5, 0.8), (2.0, 0.7), (4.0, 0.9), (4.5, 0.8)],
    })
    summary = bench_pairs.summarize(records, SPECS)
    assert list(summary) == ["w"] and list(summary["w"]) == ["pipeline_s", "iou3d_mean"]
    s = summary["w"]["pipeline_s"]
    assert (s["parent_median"], s["parent_q1"], s["parent_q3"]) == (3.0, 2.0, 4.0)
    assert s["change_median"] == 2.5
    # lower is better: pairs 0, 2 and 4 won, pair 3 tied
    assert (s["won"], s["tied"], s["pairs"]) == (3, 1, 5)
    iou = summary["w"]["iou3d_mean"]
    # higher is better: pairs 0 and 3 won, pairs 1 and 4 tied
    assert (iou["won"], iou["tied"], iou["parent_q1"], iou["parent_q3"]) == (2, 2, 0.8, 0.8)
    assert iou["unit"] == "IoU" and iou["better"] == "higher"


def test_a_pair_missing_a_metric_is_left_out():
    records = _records({"parent": [(1.0, 0.8), (2.0, 0.8)], "change": [(1.5, 0.8), (1.0, 0.8)]})
    records[0]["metrics"] = {}  # the parent's first run failed
    s = bench_pairs.summarize(records, SPECS)["w"]["pipeline_s"]
    assert s["pairs"] == 1 and s["parent_median"] == s["parent_q1"] == s["parent_q3"] == 2.0
    assert s["won"] == 1


def test_table_has_a_row_per_metric():
    records = _records({"parent": [(2.0, 0.8)], "change": [(1.0, 0.8)]})
    text = bench_pairs.table(bench_pairs.summarize(records, SPECS))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[2] == "| `w` | `pipeline_s` | 2 [2–2] s | 1 s | -50.0% | 1 / 0 of 1 |"
    assert lines[3] == "| `w` | `iou3d_mean` | 0.8 [0.8–0.8] IoU | 0.8 IoU | +0.0% | 0 / 1 of 1 |"
