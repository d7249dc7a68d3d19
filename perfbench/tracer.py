"""In-process tracing of ipslabel's layers from outside the package.

Timing wrappers replace the module attributes that callers look up (for
example ``ipslabel.refine.fitness`` and the names ``ipslabel.cli`` imported,
such as ``ipslabel.cli.refine_label``); nothing under ``src/`` changes.
Coarse calls become spans (name, start, end, parent, stage); hot leaves keep
only call counts and summed time. A wrapper's self time is its duration
minus the time of the traced calls directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import sys
import time
from collections import Counter, defaultdict

from ipslabel import cli
from ipslabel.errors import (
    AllProposalsDegenerate,
    DegenerateConfiguration,
    DegenerateSample,
    EmptyNeighborhood,
    NoConvergence,
    NoPlaneFound,
    TooFewPoints,
)

PROPOSALS = ("mpf_cabinet", "mpf_cabinet_two_point", "mpf_table")
REFINE_FALLBACKS = (EmptyNeighborhood, AllProposalsDegenerate, NoPlaneFound, TooFewPoints)


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _rays(fn, args, kwargs, result):
    lidar = _arg(fn, args, kwargs, "scene").lidar
    return lidar.channels * int(round(360.0 / lidar.azimuth_step_deg))


# (module, function, is a span, errors to count, {counter: f(fn, args, kwargs, result)})
TARGETS = (
    ("refine", "refine_label", True, REFINE_FALLBACKS,
     {"iterations": lambda fn, a, k, r: _arg(fn, a, k, "cfg").iterations}),
    ("refine", "fit_ground_plane", False, (), {}),
    ("refine", "crop_and_strip", False, (), {"points": lambda fn, a, k, r: len(r)}),
    *(("refine", name, False, (DegenerateSample,), {}) for name in PROPOSALS),
    ("refine", "fitness", False, (), {"point_tests": lambda fn, a, k, r: len(a[1])}),
    ("calib", "solve_pnp_ransac", True, (),
     {"iterations": lambda fn, a, k, r: _arg(fn, a, k, "iterations")}),
    ("calib", "solve_pnp", False, (DegenerateConfiguration, NoConvergence), {}),
    ("calib", "apply_planar_constraint", False, (), {}),
    ("sim", "make_sample", True, (), {}),
    ("sim", "raycast_lidar", False, (), {"rays": _rays}),
    ("sim", "make_calibration_set", False, (), {}),
    ("cloud", "write_ply", True, (), {"bytes": lambda fn, a, k, r: len(r)}),
    ("cloud", "read_ply", True, (), {"bytes": lambda fn, a, k, r: len(a[0])}),
    ("fileio", "atomic_write_text", False, (), {"bytes": lambda fn, a, k, r: len(a[1])}),
    ("fileio", "read_text", False, (), {"bytes": lambda fn, a, k, r: len(r)}),
    ("geom", "average_beacon_readings", False, (), {}),
    ("labelgen", "box_to_camera", False, (), {}),
    ("labelgen", "project_box", False, (), {}),
    ("labelgen", "box_to_lidar", False, (), {}),
    ("eval", "compare_labels", True, (), {}),
    ("eval", "iou_3d", False, (), {}),
    ("eval", "iou_2d", False, (), {}),
    ("config", "load_config", False, (), {}),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        self.spans = []  # (id, name, start, end, parent id, stage id)
        self._stack = []  # open calls: [enclosing span id, traced child seconds]
        self._next_id = 0
        self._stage = 0

    def _call(self, name, fn, args, kwargs, span, errors, counters):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        sid = None
        if span:
            sid = self._next_id
            self._next_id += 1
        frame = [sid if span else parent, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except errors:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - frame[1]
            if stack:
                stack[-1][1] += end - start
            if span:
                self.spans.append((sid, name, start, end, parent, self._stage))
        for key, count in counters.items():
            self.counts[f"{name}.{key}"] += count(fn, args, kwargs, result)
        return result

    def _wrap(self, name, fn, span, errors, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, span, errors, counters)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every ipslabel module attribute bound to a target function."""
        patched = []
        modules = [m for n, m in list(sys.modules.items()) if n == "ipslabel" or n.startswith("ipslabel.")]
        try:
            for mod_name, fn_name, span, errors, counters in TARGETS:
                fn = getattr(importlib.import_module(f"ipslabel.{mod_name}"), fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, span, errors, counters)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def stage(self, stage: str, argv: list) -> int:
        """Run one CLI stage in-process as a span named ``cli.<stage>``."""
        self._stage += 1
        with contextlib.redirect_stdout(io.StringIO()):
            return self._call(f"cli.{stage}", cli.main, (argv,), {}, True, (), {})

    def per_layer(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, s, own, cnt, err = self.calls, self.total_s, self.self_s, self.counts, self.errors
        proposals = sum(c[f"refine.{p}"] for p in PROPOSALS)
        out = {
            "refine.refine_label.calls": (c["refine.refine_label"], "count"),
            "refine.refine_label.s": (s["refine.refine_label"], "s"),
            "refine.refine_label.self_s": (own["refine.refine_label"], "s"),
            "refine.fit_ground_plane.calls": (c["refine.fit_ground_plane"], "count"),
            "refine.fit_ground_plane.s": (s["refine.fit_ground_plane"], "s"),
            "refine.crop_and_strip.s": (s["refine.crop_and_strip"], "s"),
            "refine.cropped_points": (cnt["refine.crop_and_strip.points"] / c["refine.crop_and_strip"], "points"),
            "refine.proposals": (proposals, "count"),
            "refine.proposal.s": (sum(s[f"refine.{p}"] for p in PROPOSALS), "s"),
            "refine.degenerate": (sum(err[f"refine.{p}"] for p in PROPOSALS), "count"),
            "refine.proposal_yield": (c["refine.fitness"] / cnt["refine.refine_label.iterations"], "ratio"),
            "refine.fitness.calls": (c["refine.fitness"], "count"),
            "refine.fitness.s": (s["refine.fitness"], "s"),
            "refine.fitness.point_tests": (cnt["refine.fitness.point_tests"], "count"),
            "refine.fallbacks": (err["refine.refine_label"], "count"),
            "calib.solve_pnp_ransac.s": (s["calib.solve_pnp_ransac"], "s"),
            "calib.solve_pnp_ransac.self_s": (own["calib.solve_pnp_ransac"], "s"),
            "calib.solve_pnp.calls": (c["calib.solve_pnp"], "count"),
            "calib.solve_pnp.s": (s["calib.solve_pnp"], "s"),
            "calib.solve_pnp.failed": (err["calib.solve_pnp"], "count"),
            # every RANSAC iteration solves one hypothesis; each call adds one final refit
            "calib.hypothesis_yield": (
                (c["calib.solve_pnp"] - err["calib.solve_pnp"] - c["calib.solve_pnp_ransac"])
                / cnt["calib.solve_pnp_ransac.iterations"],
                "ratio",
            ),
            "calib.apply_planar_constraint.s": (s["calib.apply_planar_constraint"], "s"),
            "sim.make_sample.s": (s["sim.make_sample"], "s"),
            "sim.raycast_lidar.s": (s["sim.raycast_lidar"], "s"),
            "sim.raycast_lidar.rays": (cnt["sim.raycast_lidar.rays"], "count"),
            "sim.make_calibration_set.s": (s["sim.make_calibration_set"], "s"),
            "cloud.write_ply.s": (s["cloud.write_ply"], "s"),
            "cloud.write_ply.bytes": (cnt["cloud.write_ply.bytes"], "B"),
            "cloud.read_ply.s": (s["cloud.read_ply"], "s"),
            "cloud.read_ply.bytes": (cnt["cloud.read_ply.bytes"], "B"),
            "fileio.atomic_write_text.calls": (c["fileio.atomic_write_text"], "count"),
            "fileio.atomic_write_text.s": (s["fileio.atomic_write_text"], "s"),
            "fileio.atomic_write_text.bytes": (cnt["fileio.atomic_write_text.bytes"], "B"),
            "fileio.read_text.s": (s["fileio.read_text"], "s"),
            "fileio.read_text.bytes": (cnt["fileio.read_text.bytes"], "B"),
            "geom.average_beacon_readings.s": (s["geom.average_beacon_readings"], "s"),
            "labelgen.box_to_camera.s": (s["labelgen.box_to_camera"], "s"),
            "labelgen.project_box.s": (s["labelgen.project_box"], "s"),
            "labelgen.box_to_lidar.s": (s["labelgen.box_to_lidar"], "s"),
            "eval.compare_labels.s": (s["eval.compare_labels"], "s"),
            "eval.iou_3d.calls": (c["eval.iou_3d"], "count"),
            "eval.iou_3d.s": (s["eval.iou_3d"], "s"),
            "eval.iou_2d.calls": (c["eval.iou_2d"], "count"),
            "config.load_config.s": (s["config.load_config"], "s"),
        }
        for stage in ("simulate", "calibrate", "generate", "refine", "evaluate"):
            out[f"cli.{stage}.s"] = (s[f"cli.{stage}"], "s")
            out[f"cli.{stage}.self_s"] = (own[f"cli.{stage}"], "s")
        return out

    def span_records(self) -> list:
        keys = ("id", "name", "start", "end", "parent", "stage")
        return [dict(zip(keys, span)) for span in self.spans]
