"""Paired benchmark runs of a git revision against the working tree.

It archives REV into a temporary directory, as tools/e2e_diff.sh does, and
copies beside it the working tree's files that git tracks or would track
(so neither tree has a bytecode cache or an earlier run's output). For each
workload it then runs each tree's own `perfbench/run.py` once per pair,
for the working tree's BENCHMARK.json `run_seconds`, alternating which tree
runs first: the parent (REV) runs first in even pairs, the change (the
working tree) in odd ones. So drift of the host over a batch falls on both
trees alike.

It writes one JSON with every run (tree, workload, pair, place in the pair,
exit code, `correct`, `failed` and every metric) and, per workload and
metric of BENCHMARK.json (`end_to_end` with --trace 0, `per_layer` with
--trace 1), the parent's median and quartiles, the change's median, and the
pairs that the change won (was better in, by the metric's `better`) and
tied. It prints that summary as the table that a BENCH file quotes.

Usage:
    python tools/bench_pairs.py REV [--workload W ...] [--seed 7] [--pairs 5]
        [--trace 0] [--json FILE]

REV is any git revision of this repository. --workload may be given more
than once; the default is every workload of the working tree's
BENCHMARK.json. --json defaults to .perfbench_out/bench_pairs.json under
the repository root. The temporary directory is removed on exit. The exit
code is 1 if any run was not `correct`, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("parent", "change")


def pair_orders(pairs: int) -> list:
    """The order in which the two trees run in each pair: the parent first in
    even pairs, the change first in odd ones."""
    return [TREES if i % 2 == 0 else TREES[::-1] for i in range(pairs)]


def collect(workloads, pairs: int, run) -> list:
    """Every run record, in the order run: ``run(tree, workload)`` for each
    tree of each pair of each workload, its record tagged with the tree, the
    workload, the pair and the place in the pair (0 first, 1 second)."""
    records = []
    for workload in workloads:
        for pair, order in enumerate(pair_orders(pairs)):
            for place, tree in enumerate(order):
                record = run(tree, workload)
                records.append({**record, "tree": tree, "workload": workload,
                                "pair": pair, "place": place})
    return records


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(records: list, specs: list) -> dict:
    """{workload: {metric: summary}} over the pairs in which both trees
    report the metric; ``specs`` are BENCHMARK.json's metric entries
    ({"name", "unit", "better"})."""
    runs = {(r["workload"], r["pair"], r["tree"]): r["metrics"] for r in records}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        pairs = sorted({p for w, p, _ in runs if w == workload})
        rows = {}
        for spec in specs:
            name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            both = [
                (runs[workload, p, "parent"][name], runs[workload, p, "change"][name])
                for p in pairs
                if name in runs.get((workload, p, "parent"), {})
                and name in runs.get((workload, p, "change"), {})
            ]
            if not both:
                continue
            parent, change = [a for a, _ in both], [b for _, b in both]
            q1, q3 = _quartiles(parent)
            rows[name] = {
                "unit": spec["unit"], "better": spec["better"], "pairs": len(both),
                "parent_median": statistics.median(parent), "parent_q1": q1, "parent_q3": q3,
                "change_median": statistics.median(change),
                "won": sum(sign * (b - a) < 0 for a, b in both),
                "tied": sum(a == b for a, b in both),
            }
        summary[workload] = rows
    return summary


def table(summary: dict) -> str:
    """The summary as a Markdown table, one row per workload and metric."""
    lines = [
        "| workload | metric | parent median [IQR] | change median | change | won / tied of pairs |",
        "|---|---|---|---|---|---|",
    ]
    for workload, rows in summary.items():
        for name, s in rows.items():
            base = s["parent_median"]
            delta = f"{100.0 * (s['change_median'] - base) / base:+.1f}%" if base else "n/a"
            lines.append(
                f"| `{workload}` | `{name}` | {base:.4g} [{s['parent_q1']:.4g}–{s['parent_q3']:.4g}]"
                f" {s['unit']} | {s['change_median']:.4g} {s['unit']} | {delta}"
                f" | {s['won']} / {s['tied']} of {s['pairs']} |"
            )
    return "\n".join(lines)


def perfbench(tree: str, workload: str, seconds, ns) -> dict:
    """One run of ``tree``'s own perfbench, ``seconds`` long: its exit code,
    and the last stdout line's `correct`, `failed` and metric values
    (`correct` False and no metrics when that line is not its JSON)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(ns.seed),
            "--seconds", str(seconds), "--trace", str(ns.trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        correct, failed = result["correct"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        metrics, correct, failed = {}, False, None
    return {"exit": proc.returncode, "correct": correct, "failed": failed, "metrics": metrics}


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def archive(rev: str, dest: str) -> str:
    """Extract the files of ``rev`` into the new directory ``dest``; its full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=_git("archive", commit), check=True)
    return commit


def snapshot(dest: str) -> None:
    """Copy the working tree's files that git tracks or would track into ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in map(os.fsdecode, listed.split(b"\0")):
        if rel and os.path.isfile(os.path.join(ROOT, rel)):  # a tracked file may be deleted
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, rel), os.path.join(dest, rel))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=os.path.join(ROOT, ".perfbench_out", "bench_pairs.json"))
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = ns.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory() as tmp:
        trees = {tree: os.path.join(tmp, tree) for tree in TREES}
        commit = archive(ns.rev, trees["parent"])
        snapshot(trees["change"])

        def run(tree, workload):
            print(f"{workload} {tree}", file=sys.stderr, flush=True)
            return perfbench(trees[tree], workload, spec["run_seconds"], ns)

        records = collect(workloads, ns.pairs, run)

    summary = summarize(records, spec["per_layer" if ns.trace else "end_to_end"])
    doc = {
        "rev": ns.rev, "commit": commit, "seed": ns.seed, "pairs": ns.pairs,
        "seconds": spec["run_seconds"], "trace": ns.trace, "runs": records, "summary": summary,
    }
    os.makedirs(os.path.dirname(os.path.abspath(ns.json)), exist_ok=True)
    with open(ns.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(table(summary))
    bad = [r for r in records if not r["correct"]]
    for r in bad:
        print(f"not correct: {r['workload']} {r['tree']} pair {r['pair']} (exit {r['exit']})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
