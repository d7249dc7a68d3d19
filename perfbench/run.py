"""ipslabel pipeline benchmark.

    python3 perfbench/run.py --workload pipeline20 --seed 7 --seconds 10 --trace 0

Run from the repository root. With ``--trace 0`` each pass runs every stage
as its own ``ipslabel`` subprocess, as a user would, and the end-to-end
metrics are medians over the passes made in ``--seconds`` (at least one).
With ``--trace 1`` an untraced and a traced pass run in-process through
``ipslabel.cli.main``, and the traced one yields the per-layer metrics.
Every pass's outputs must be byte-identical. A readable report goes to
stdout and the full record (environment, every metric, spans) to
``.perfbench_out/``. The last stdout line is the JSON object
``{"correct", "attempted", "failed", "metrics"}``. A failed check makes the
exit code 1.
"""

from __future__ import annotations

import os

# Stage subprocesses and the in-process traced pass run single-threaded BLAS,
# so --jobs 2 uses at most two threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STAGES = ("simulate", "calibrate", "generate", "refine", "evaluate")
SETUP_REPEATS = 5
# Mean CPU seconds of one HostProbe sample on the 2-core Xeon VM where the
# bounds were set.
REF_PROBE_S = 0.0041
PROBE_PERIOD_S = 0.1
IPSLABEL = [sys.executable, "-c", "import sys; from ipslabel.cli import main; sys.exit(main())"]


def _import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "ipslabel", "cli.py")):
        sys.exit(f"perfbench: no ipslabel sources under {SRC}")
    sys.path.insert(0, SRC)
    import ipslabel

    if not os.path.abspath(ipslabel.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported ipslabel from {ipslabel.__file__}, not {SRC}")
    os.environ["PYTHONPATH"] = SRC


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class HostProbe:
    """Samples the host's speed on a thread while the measured work runs.

    The 2-core VMs this runs on share their hosts, and the same pass runs
    20-45% slower from one minute to the next; CPU time drifts with it.
    Every PROBE_PERIOD_S the probe times a fixed kernel of small numpy calls
    in a Python loop (about 4% of one core), in thread CPU time so that
    waiting for a core does not count. Wall times scaled by
    ``REF_PROBE_S / mean sample`` keep a change in the program and drop most
    of the host's drift.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import numpy as np

        pts = np.random.default_rng(0).standard_normal((400, 3))
        while True:
            start = time.thread_time()
            for i in range(100):
                v = np.cross(pts[i], pts[i + 1])
                int((np.abs(pts @ v) < 0.5).sum())
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Factor that brings a wall time measured meanwhile to reference speed."""
        return REF_PROBE_S / statistics.mean(self.samples)


def failed_pass(w, calls: list, done: int, problem: str) -> dict:
    """A pass stopped by a failing stage: that call, every call not run and
    every object fail."""
    return {
        "problems": [problem],
        "attempted": len(calls) + 2 * w.samples,
        "failed": len(calls) - done + 2 * w.samples,
    }


def finished_pass(w, calls: list, out: str, built: dict) -> dict:
    """Checks, failure accounting, digest and label quality of a whole pass."""
    from workloads import check_outputs, label_quality, tree_bytes, tree_digest

    problems, failed, objects = check_outputs(w, out, built)
    return {
        "problems": problems,
        "attempted": len(calls) + objects,
        "failed": failed,
        "digest": tree_digest(out),
        "dataset_mb": tree_bytes(os.path.join(out, "dataset")) / 1e6,
        "quality": label_quality(w, out),
    }


def cli_pass(w, seed, inputs, out, built) -> dict:
    """Every stage as an ``ipslabel`` subprocess, then the output checks."""
    from workloads import stage_calls

    calls = stage_calls(w, seed, inputs, out, w.jobs)
    times = dict.fromkeys(STAGES, 0.0)
    for done, (stage, argv) in enumerate(calls):
        start = time.perf_counter()
        proc = subprocess.run(IPSLABEL + argv, capture_output=True, text=True, cwd=ROOT)
        times[stage] += time.perf_counter() - start
        if proc.returncode != 0:
            return failed_pass(w, calls, done, f"{stage} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return {**finished_pass(w, calls, out, built), "times": times}


def setup(w, seed, work) -> tuple:
    """Cold ``ipslabel --version`` plus input building, several times.

    Returns (median wall seconds, probe scale, inputs dir, built inputs).
    """
    from workloads import build_inputs

    times = []
    with HostProbe() as probe:
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run(IPSLABEL + ["--version"], capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"perfbench: ipslabel --version exited {proc.returncode}: {proc.stderr}")
            inputs = os.path.join(work, f"inputs{k}")
            built = build_inputs(w, seed, inputs)
            times.append(time.perf_counter() - start)
    return statistics.median(times), probe.scale(), inputs, built


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills its stage and the work dir goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if ns.workload not in WORKLOADS:
        parser.error(f"unknown workload {ns.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[ns.workload]
    work = os.path.join(ROOT, ".perfbench_work", f"{w.name}-{ns.seed}-{os.getpid()}")
    try:
        record = measure(w, ns, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if ns.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]][0], "unit": m["unit"]}
        for m in wanted
        if m["name"] in record["metrics"]
    }
    correct = not record["problems"]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{w.name}-seed{ns.seed}-trace{ns.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {w.name}  seed {ns.seed}  passes {record['passes']}  trace {ns.trace}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    for name, (value, unit) in sorted(record["metrics"].items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  full record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def measure(w, ns, work) -> dict:
    setup_s, scale, inputs, built = setup(w, ns.seed, work)
    record = {
        "workload": w.name,
        "seed": ns.seed,
        "environment": environment(),
        "problems": [],
        "metrics": {"setup_s": (setup_s * scale, "s"), "wall.setup_s": (setup_s, "s")},
    }
    passes = (measure_layers if ns.trace else measure_end_to_end)(w, ns, work, inputs, built, record)
    record["passes"] = len(passes)
    record["attempted"] = sum(r["attempted"] for r in passes)
    record["failed"] = sum(r["failed"] for r in passes)
    record["problems"] += [p for r in passes for p in r["problems"]]
    if not record["problems"] and any(r["digest"] != passes[0]["digest"] for r in passes):
        record["problems"].append("outputs differ between passes of the same seed")
    metrics = record["metrics"]
    if "quality" in passes[-1]:
        units = {"refine_worsened": "count", "calib_rot_err_deg": "deg", "calib_trans_err_cm": "cm"}
        for name, value in passes[-1]["quality"].items():
            metrics[name] = (value, units.get(name, "IoU"))
        metrics["dataset_mb"] = (passes[-1]["dataset_mb"], "MB")
    metrics["failed_ratio"] = (record["failed"] / record["attempted"], "ratio")
    return record


def measure_end_to_end(w, ns, work, inputs, built, record) -> list:
    """CLI passes until --seconds have gone (at least one); medians.

    ``<name>`` timings are scaled by HostProbe; ``wall.<name>`` are as timed.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ns.seconds:
        out = os.path.join(work, f"pass{len(passes)}")
        with HostProbe() as probe:
            passes.append(cli_pass(w, ns.seed, inputs, out, built))
        passes[-1]["scale"] = probe.scale()
        shutil.rmtree(out)
        if passes[-1]["problems"]:
            return passes
    metrics = record["metrics"]
    for name, key in [("pipeline_s", None)] + [(f"{s}_s", s) for s in STAGES]:
        wall = [r["times"][key] if key else sum(r["times"].values()) for r in passes]
        metrics[name] = (statistics.median(t * r["scale"] for t, r in zip(wall, passes)), "s")
        metrics[f"wall.{name}"] = (statistics.median(wall), "s")
    metrics["host_scale"] = (statistics.median(r["scale"] for r in passes), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")
    return passes


def measure_layers(w, ns, work, inputs, built, record) -> list:
    """An untraced and a traced in-process pass at --jobs 1 (wrappers do not
    reach pool workers), plus a CLI pass when the workload's --jobs is not 1,
    so that the byte-identity check covers --jobs.

    The two in-process passes alternate stage by stage, so that the host's
    drift between them stays small next to the wrappers' cost.
    """
    from tracer import Tracer
    from workloads import stage_calls

    passes = []
    if w.jobs != 1:
        passes.append(cli_pass(w, ns.seed, inputs, os.path.join(work, "cli"), built))
        if passes[-1]["problems"]:
            return passes
    plain, traced = Tracer(), Tracer()
    outs = [os.path.join(work, name) for name in ("untraced", "traced")]
    lanes = [stage_calls(w, ns.seed, inputs, out, jobs=1) for out in outs]
    for done, ((stage, plain_argv), (_, traced_argv)) in enumerate(zip(*lanes)):
        code = plain.stage(stage, plain_argv)
        if code == 0:
            with traced.installed():
                code = traced.stage(stage, traced_argv)
        if code != 0:
            return passes + [failed_pass(w, lanes[0], done, f"in-process {stage} exited {code}")]
    passes += [finished_pass(w, calls, out, built) for calls, out in zip(lanes, outs)]
    untraced_s, traced_s = (sum(t.total_s[f"cli.{s}"] for s in STAGES) for t in (plain, traced))
    metrics = record["metrics"]
    metrics.update(traced.per_layer())
    metrics["trace.pipeline_s"] = (traced_s, "s")
    # Neither in-process pass pays interpreter start-ups, so the difference
    # is the wrappers' own cost.
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    record["spans"] = traced.span_records()
    return passes


if __name__ == "__main__":
    sys.exit(main())
