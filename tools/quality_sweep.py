"""Label-quality sweep of the refine stage over config seeds, for one or two
source trees.

For each of config seeds 0-10 of the pipeline20 and dense_jobs2 benchmark
workloads, the first tree builds the dataset and its unrefined labels
(simulate, calibrate, generate). Each tree then refines those labels, and
the first tree's `evaluate` scores the unrefined and the refined labels
against the simulator's truth. So with two trees only the refine stage
differs between them. The configs and stage calls are those of the first
tree's perfbench/workloads.py, at --jobs 2. Every stage runs as `python -m
ipslabel.cli` with PYTHONPATH set to the tree's src/ and one BLAS thread, in
a temporary directory that is removed on exit. The clouds are exact: the
simulator adds no range noise.

It prints, per tree, config and class, the mean and worst refined IoU3D,
the objects below 0.5 and the objects that refinement made worse than their
unrefined labels; then the same per config seed. With two trees it lists
every object whose refined IoU3D differs between them.

Usage:
    python tools/quality_sweep.py [--json FILE] SRC [SRC2]

SRC and SRC2 are the src/ directories of two checkouts. --json writes every
object's IoU3D and the summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

JOBS = 2
CONFIGS = ("pipeline20", "dense_jobs2")
SEEDS = range(11)


def load_workloads(src: str):
    """perfbench/workloads.py of the checkout holding ``src``, importing
    ipslabel from ``src``."""
    src = os.path.abspath(src)
    sys.path[:0] = [src, os.path.join(os.path.dirname(src), "perfbench")]
    import workloads

    return workloads


def cli(src: str, argv: list) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-m", "ipslabel.cli", *argv], env=env, check=True,
        stdout=subprocess.DEVNULL,
    )


def value(argv: list, option: str) -> str:
    return argv[argv.index(option) + 1]


def object_ious(report_path: str, truth_dir: str) -> dict:
    """{(sample, object id): IoU3D} of an evaluate report. Its matches follow
    the objects of each truth file in order."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    out = {}
    for sample in report["per_sample"]:
        sid = sample["sample"]
        with open(os.path.join(truth_dir, f"{sid}.json"), encoding="utf-8") as fh:
            truth = json.load(fh)["objects"]
        for entry, match in zip(truth, sample["matches"]):
            out[(sid, entry["id"])] = (entry["class"], match["iou_3d"])
    return out


def run_seed(workloads, trees: list, config: str, seed: int, work: str) -> list:
    """One row per object: config, seed, sample, id, class, unrefined IoU3D
    and the refined IoU3D of each tree."""
    w = workloads.WORKLOADS[config]
    out = os.path.join(work, f"{config}_{seed}")
    inputs = os.path.join(out, "inputs")
    workloads.build_inputs(w, seed, inputs)
    # neither workload calibrates extra targets, so each stage runs once
    calls = dict(workloads.stage_calls(w, seed, inputs, out, JOBS))
    first = trees[0]
    for stage in ("simulate", "calibrate", "generate"):
        cli(first, calls[stage])
    refine, evaluate = calls["refine"], calls["evaluate"]
    truth, report = value(evaluate, "--reference"), value(evaluate, "--out")
    cli(first, ["evaluate", "--auto", value(refine, "--labels"), "--reference", truth,
                "--out", report])
    unrefined = object_ious(report, truth)
    refined = []
    for tree in trees:
        cli(tree, refine)
        cli(first, evaluate)
        refined.append(object_ious(report, truth))
        shutil.rmtree(value(refine, "--out"))
    return [
        {"config": config, "seed": seed, "sample": sid, "id": oid, "class": cls,
         "unrefined": iou, "refined": [r[(sid, oid)][1] for r in refined]}
        for (sid, oid), (cls, iou) in sorted(unrefined.items())
    ]


def quality(rows: list, k: int) -> dict:
    refined = [r["refined"][k] for r in rows]
    return {
        "objects": len(rows),
        "mean": sum(refined) / len(refined),
        "worst": min(refined),
        "below_0_5": sum(v < 0.5 for v in refined),
        "worse": sum(r["refined"][k] < r["unrefined"] for r in rows),
    }


def summaries(rows: list, trees: list) -> dict:
    """Per tree: quality by config and class, and by config and seed."""
    by_class, by_seed = {}, {}
    for r in rows:
        by_class.setdefault((r["config"], r["class"]), []).append(r)
        by_seed.setdefault((r["config"], r["seed"]), []).append(r)
    return {
        f"tree{k}": {
            "by_class": {f"{c} {cls}": quality(g, k) for (c, cls), g in sorted(by_class.items())},
            "by_seed": {f"{c} {s}": quality(g, k) for (c, s), g in sorted(by_seed.items())},
        }
        for k in range(len(trees))
    }


def print_report(rows: list, trees: list, summary: dict) -> None:
    for k, tree in enumerate(trees):
        print(f"tree{k}: {tree}")
    for part in ("by_class", "by_seed"):
        print(f"\n{part.replace('_', ' ')}: mean / worst refined IoU3D, below 0.5, worse")
        for key in summary["tree0"][part]:
            cells = [summary[f"tree{k}"][part][key] for k in range(len(trees))]
            text = " | ".join(
                f"{q['mean']:.4f} / {q['worst']:.4f} / {q['below_0_5']} / {q['worse']}"
                for q in cells
            )
            print(f"  {key:<24} ({cells[0]['objects']:>3} objects)  {text}")
    if len(trees) == 2:
        changed = [r for r in rows if r["refined"][0] != r["refined"][1]]
        print(f"\nobjects whose refined IoU3D differs: {len(changed)} of {len(rows)}")
        for r in changed:
            print(
                f"  {r['config']} seed {r['seed']} {r['sample']} {r['id']} ({r['class']}): "
                f"unrefined {r['unrefined']:.4f}, "
                f"refined {r['refined'][0]:.4f} -> {r['refined'][1]:.4f}"
            )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", metavar="SRC")
    p.add_argument("--json")
    ns = p.parse_args(argv)
    if len(ns.trees) > 2:
        p.error("give one or two trees")
    workloads = load_workloads(ns.trees[0])
    with tempfile.TemporaryDirectory() as work:
        rows = [
            row
            for config in CONFIGS
            for seed in SEEDS
            for row in run_seed(workloads, ns.trees, config, seed, work)
        ]
    summary = summaries(rows, ns.trees)
    print_report(rows, ns.trees, summary)
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump({"trees": ns.trees, "seeds": list(SEEDS), "configs": list(CONFIGS),
                       "summary": summary, "objects": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
