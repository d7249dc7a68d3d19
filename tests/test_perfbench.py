"""The benchmark under perfbench/ still finds what it uses of ipslabel.

perfbench imports ipslabel from outside the package: tracer.py wraps named
functions and imports error classes, and workloads.py builds its inputs with
sim, calib and config and reads eval's report. A rename or deletion in src/
that breaks it fails here, and not first in ``perfbench/run.py --trace 1``.
One pass of each workload must also run and check correct, as the
benchmark's first warm-up pass does.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import ipslabel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]

# Resolves every traced target, builds the calib_outliers inputs into
# argv[1], and prints the input files built as a JSON list.
PROBE = """
import json, os, sys
import tracer, workloads
from ipslabel import eval

with tracer.Tracer().installed():
    pass
workloads.build_inputs(workloads.WORKLOADS["calib_outliers"], 7, sys.argv[1])
assert callable(eval.EvalReport.to_dict)
built = [os.path.relpath(os.path.join(d, f), sys.argv[1]) for d, _, fs in os.walk(sys.argv[1]) for f in fs]
print(json.dumps(sorted(built)))
"""


def test_the_benchmark_resolves_what_it_uses(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ipslabel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    targets = [f"target{k}/{name}" for k in range(4) for name in ("correspondences.csv", "robot_beacons.csv")]
    assert json.loads(proc.stdout) == sorted(["config.yaml", *targets])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_of_each_workload_is_correct(tmp_path, workload):
    # run in a copy, so that its records go to the copy's .perfbench_out/
    for name in ("src", "perfbench"):
        shutil.copytree(
            os.path.join(ROOT, name), tmp_path / name,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
