"""Command-line pipeline: simulate, calibrate, generate, refine, evaluate.

Every subcommand is a pure function of (inputs, config, seed): re-running
with the same arguments on the same numpy/BLAS build produces byte-identical
output files, including with --jobs > 1 (workers compute, the parent writes
in order). The calibration report is also byte-identical across BLAS builds;
see REPORT_DECIMALS.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .calib import apply_planar_constraint, solve_pnp_ransac
from .cloud import read_ply
from .config import PipelineConfig, load_config
from .errors import (
    AllProposalsDegenerate,
    AllVerticesBehindCamera,
    BehindCamera,
    ClassMismatch,
    ConfigError,
    DegenerateBeaconPair,
    DegenerateConfiguration,
    EmptyNeighborhood,
    EmptyReadings,
    EmptySubset,
    FrameMismatch,
    MissingPlaneTag,
    MissingSample,
    NoConvergence,
    NoPlaneFound,
    TooFewInliers,
    TooFewPoints,
)
from .eval import compare_labels, downsample_study, study_means
from .fileio import atomic_write_text, dump_json, ordered_map, read_text
from .geom import RigidTransform, average_beacon_readings, frame_from_beacons, inverse
from .labelgen import (
    OrientedBox3,
    box_to_camera,
    box_to_lidar,
    label_object_entry,
    labels_to_dict,
    object_box_ips,
    project_box,
)
from .refine import kinds_for_class, refine_label
from .rng import NS_JOB, derive_seed
from .sim import (
    SceneConfig,
    generate_dataset,
    parse_beacons_csv,
    parse_correspondences_csv,
    scene_from_dict,
)

# Errors from bad inputs or configuration -> exit 2.
_USAGE_ERRORS = (
    ConfigError,
    MissingPlaneTag,
    MissingSample,
    ClassMismatch,
    FrameMismatch,
    EmptyReadings,
    EmptySubset,
    ValueError,
    KeyError,
)
# Numerical failures -> exit 4.
_NUMERICAL_ERRORS = (
    NoConvergence,
    TooFewInliers,
    DegenerateConfiguration,
    DegenerateBeaconPair,
    NoPlaneFound,
    AllProposalsDegenerate,
    EmptyNeighborhood,
    TooFewPoints,
    BehindCamera,
    AllVerticesBehindCamera,
)


def _positive_int(text: str) -> int:
    n = int(text) if text.isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipslabel",
        description="Generate and refine object-detection labels from "
        "indoor-positioning-beacon measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="YAML pipeline config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=20)

    p = sub.add_parser("calibrate", help="estimate the camera extrinsic from beacon pixels")
    p.add_argument("--dataset", help="dataset dir (uses its calibration CSVs and manifest)")
    p.add_argument("--correspondences", help="correspondence CSV path")
    p.add_argument("--robot-beacons", help="robot beacon readings CSV path")
    p.add_argument("--manifest", help="manifest JSON supplying intrinsics")
    p.add_argument("--out", required=True, help="calibration report JSON")
    p.add_argument("--planar", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--delta-px", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--averaging-n", type=int, default=None)

    p = sub.add_parser("generate", help="produce 2D/3D labels from beacons + calibration")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True, help="calibration report JSON")
    p.add_argument("--out", required=True, help="label output dir")

    p = sub.add_parser("refine", help="refine 3D labels against the point clouds")
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True, help="unrefined label dir")
    p.add_argument("--out", required=True, help="refined label dir")

    p = sub.add_parser("evaluate", help="compare label sets or run the downsample study")
    p.add_argument("--auto", help="generated label dir")
    p.add_argument("--reference", help="reference label dir")
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--study", choices=["downsample"], default=None)
    p.add_argument("--dataset", help="dataset dir (study mode)")
    p.add_argument("--labels", help="unrefined label dir (study mode)")
    p.add_argument("--sample", help="sample id (study mode)")
    p.add_argument("--object-id", default=None, help="object id (study mode)")
    p.add_argument("--proportions", default="0.05,0.1,0.25,0.5,1.0")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--csv", default=None, help="also write the per-trial table as CSV")
    return parser


# ---------------------------------------------------------------------------
# shared input helpers


def _manifest_scene(path: str) -> SceneConfig:
    return scene_from_dict(json.loads(read_text(path))["scene"])


def _object_specs(scene: SceneConfig) -> dict:
    """{object id: ObjectSpec}, in id order."""
    return dict(sorted({o.object_id: o.spec for o in scene.objects}.items()))


def _robot_transform_from_readings(readings, n: int):
    pairs = [r.noisy for r in readings]
    pair = average_beacon_readings(pairs, min(n, len(pairs)))
    return inverse(frame_from_beacons(pair, frame="robot"))


def _extrinsic_from_report(path: str) -> RigidTransform:
    report = json.loads(read_text(path))
    m = np.array(report["extrinsic"], dtype=float).reshape(4, 4)
    return RigidTransform(m[:3, :3], m[:3, 3], src="robot", dst="cam")


def _sample_ids(dataset: str) -> list:
    samples_dir = os.path.join(dataset, "samples")
    return sorted(
        name
        for name in os.listdir(samples_dir)
        if os.path.isdir(os.path.join(samples_dir, name))
    )


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(ns, cfg: PipelineConfig) -> int:
    generate_dataset(cfg.scene, ns.out, ns.samples, cfg.seed, jobs=ns.jobs)
    print(f"wrote {ns.samples} samples to {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# calibrate


# The calibration report writes its derived floats (the extrinsic entries and
# rmse_px) rounded to this many decimal places, with -0.0 written as 0.0.
# Their last digits (about 1e-15) depend on which BLAS/LAPACK kernel runs the
# SVDs and the Gauss-Newton solve; the rounding gives the report one byte form
# across BLAS builds, unless a value's spread straddles a rounding step.
# CalibrationResult itself keeps full precision.
REPORT_DECIMALS = 12


def _report_float(x) -> float:
    return round(float(x), REPORT_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0


def cmd_calibrate(ns, cfg: PipelineConfig) -> int:
    corr_path = ns.correspondences
    beacon_path = ns.robot_beacons
    manifest_path = ns.manifest
    if ns.dataset:
        corr_path = corr_path or os.path.join(ns.dataset, "calibration", "correspondences.csv")
        beacon_path = beacon_path or os.path.join(ns.dataset, "calibration", "robot_beacons.csv")
        manifest_path = manifest_path or os.path.join(ns.dataset, "manifest.json")
    if not corr_path or not beacon_path:
        print(
            "calibrate needs --dataset or both --correspondences and --robot-beacons",
            file=sys.stderr,
        )
        return 2
    corrs = parse_correspondences_csv(read_text(corr_path))
    if len(corrs) < 6:
        print(f"need at least 6 correspondences, got {len(corrs)}", file=sys.stderr)
        return 2
    readings = parse_beacons_csv(read_text(beacon_path))
    if "robot" not in readings:
        print(f"{beacon_path} has no 'robot' frame rows", file=sys.stderr)
        return 2
    intr = (_manifest_scene(manifest_path) if manifest_path else cfg.scene).intrinsics
    averaging_n = ns.averaging_n if ns.averaging_n is not None else cfg.calibration.averaging_n
    planar = ns.planar if ns.planar is not None else cfg.calibration.planar
    delta_px = ns.delta_px if ns.delta_px is not None else cfg.calibration.delta_px
    iterations = ns.iterations if ns.iterations is not None else cfg.calibration.iterations
    t_robot_from_ips = _robot_transform_from_readings(readings["robot"], averaging_n)
    solve_corrs = apply_planar_constraint(corrs) if planar else corrs
    result = solve_pnp_ransac(
        solve_corrs,
        intr,
        t_robot_from_ips,
        delta_px=delta_px,
        iterations=iterations,
        seed=cfg.seed,
        planar=planar,
    )
    report = {
        "extrinsic": [_report_float(v) for v in result.extrinsic.matrix.reshape(-1)],
        "inliers": [int(i) for i in result.inlier_indices],
        "rmse_px": _report_float(result.rmse_px),
        "method": result.solver,
        "delta_px": result.delta_px,
        "planar": result.planar,
    }
    atomic_write_text(ns.out, dump_json(report))
    print(f"inliers: {len(result.inlier_indices)}/{len(corrs)}  rmse_px: {result.rmse_px:.6g}")
    return 0


# ---------------------------------------------------------------------------
# generate


def _generate_sample(task, specs, extrinsic, lidar_from_cam, intr, averaging_n) -> tuple:
    sid, beacons_text = task
    readings = parse_beacons_csv(beacons_text)
    if "robot" not in readings:
        raise ValueError(f"sample {sid}: beacons.csv has no 'robot' frame rows")
    t_robot_from_ips = _robot_transform_from_readings(readings["robot"], averaging_n)
    entries = []
    for object_id, spec in specs.items():
        try:
            pairs = [r.noisy for r in readings[object_id]]
            pair = average_beacon_readings(pairs, min(averaging_n, len(pairs)))
            box_ips = object_box_ips(pair, spec)
            verts_cam = box_to_camera(box_ips, extrinsic, t_robot_from_ips)
            box_lidar = box_to_lidar(verts_cam, lidar_from_cam)
            try:
                box2 = project_box(verts_cam, intr)
                reason = None
            except AllVerticesBehindCamera:
                box2 = None
                reason = "behind_camera"
            entries.append(
                label_object_entry(
                    spec.class_name,
                    box_lidar,
                    box2,
                    refined=False,
                    object_id=object_id,
                    box2d_reason=reason,
                )
            )
        except (KeyError, DegenerateBeaconPair, EmptyReadings) as e:
            entries.append(
                {"id": object_id, "class": spec.class_name, "error": f"{type(e).__name__}: {e}"}
            )
    return sid, dump_json(labels_to_dict(sid, entries))


def cmd_generate(ns, cfg: PipelineConfig) -> int:
    scene = _manifest_scene(os.path.join(ns.dataset, "manifest.json"))
    tasks = [
        (sid, read_text(os.path.join(ns.dataset, "samples", sid, "beacons.csv")))
        for sid in _sample_ids(ns.dataset)
    ]
    worker = partial(
        _generate_sample,
        specs=_object_specs(scene),
        extrinsic=_extrinsic_from_report(ns.calibration),
        lidar_from_cam=scene.lidar_from_cam,
        intr=scene.intrinsics,
        averaging_n=cfg.collection.averaging_n,
    )
    results = ordered_map(worker, tasks, ns.jobs)
    for sid, text in results:
        atomic_write_text(os.path.join(ns.out, f"{sid}.json"), text)
    print(f"labeled {len(results)} samples -> {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# refine


def _refine_sample(task, specs, refine_cfg, seed) -> tuple:
    sid, sample_index, cloud_text, label_doc = task
    cloud = read_ply(cloud_text)
    objects = []
    for obj_index, entry in enumerate(label_doc["objects"]):
        entry = dict(entry)
        if "error" in entry or entry.get("box3d_lidar") is None:
            objects.append(entry)
            continue
        try:
            kinds = kinds_for_class(entry["class"])
        except KeyError as e:
            raise ConfigError(e.args[0]) from e
        spec = specs.get(entry.get("id"))
        if spec is None:
            matching = [s for s in specs.values() if s.class_name == entry["class"]]
            if not matching:
                raise ConfigError(
                    f"sample {sid}: no object spec for class {entry['class']!r}"
                )
            spec = matching[0]
        unrefined = OrientedBox3.from_dict(entry["box3d_lidar"], frame=cloud.frame)
        cfg = replace(refine_cfg, seed=derive_seed(seed, NS_JOB, sample_index, obj_index))
        try:
            refined = refine_label(cloud, unrefined, spec, kinds, cfg)
            entry["box3d_lidar"] = refined.to_dict()
            entry["refined"] = True
        except (EmptyNeighborhood, AllProposalsDegenerate, NoPlaneFound, TooFewPoints) as e:
            entry["refined"] = False
            entry["refine_error"] = f"{type(e).__name__}: {e}"
        objects.append(entry)
    return sid, dump_json(labels_to_dict(sid, objects))


def cmd_refine(ns, cfg: PipelineConfig) -> int:
    scene = _manifest_scene(os.path.join(ns.dataset, "manifest.json"))
    label_files = sorted(f for f in os.listdir(ns.labels) if f.endswith(".json"))
    tasks = []
    for sample_index, fname in enumerate(label_files):
        sid = fname[: -len(".json")]
        cloud_text = read_text(os.path.join(ns.dataset, "samples", sid, "cloud.ply"))
        label_doc = json.loads(read_text(os.path.join(ns.labels, fname)))
        tasks.append((sid, sample_index, cloud_text, label_doc))
    worker = partial(
        _refine_sample, specs=_object_specs(scene), refine_cfg=cfg.refine, seed=cfg.seed
    )
    results = ordered_map(worker, tasks, ns.jobs)
    for sid, text in results:
        atomic_write_text(os.path.join(ns.out, f"{sid}.json"), text)
    print(f"refined {len(results)} samples -> {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _study_csv(rows) -> str:
    lines = ["proportion,trial,fitness,error"]
    for row in rows:
        fitness_s = str(row["fitness"]) if "fitness" in row else ""
        error_s = row.get("error", "").replace(",", ";")
        lines.append(f"{row['proportion']!r},{row['trial']},{fitness_s},{error_s}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(ns, cfg: PipelineConfig) -> int:
    if ns.study == "downsample":
        if not (ns.dataset and ns.labels and ns.sample):
            print(
                "--study downsample needs --dataset, --labels and --sample",
                file=sys.stderr,
            )
            return 2
        specs = _object_specs(_manifest_scene(os.path.join(ns.dataset, "manifest.json")))
        cloud = read_ply(
            read_text(os.path.join(ns.dataset, "samples", ns.sample, "cloud.ply"))
        )
        label_doc = json.loads(read_text(os.path.join(ns.labels, f"{ns.sample}.json")))
        entries = [e for e in label_doc["objects"] if e.get("box3d_lidar")]
        if ns.object_id is not None:
            entries = [e for e in entries if e.get("id") == ns.object_id]
        if not entries:
            print(f"no usable object entry in {ns.sample}", file=sys.stderr)
            return 2
        entry = entries[0]
        spec = specs.get(entry.get("id"))
        if spec is None:
            print(f"manifest has no spec for object {entry.get('id')!r}", file=sys.stderr)
            return 2
        unrefined = OrientedBox3.from_dict(entry["box3d_lidar"], frame=cloud.frame)
        proportions = [float(p) for p in ns.proportions.split(",") if p]
        rows = downsample_study(
            cloud,
            unrefined,
            spec,
            proportions,
            ns.trials,
            replace(cfg.refine, seed=cfg.seed),
        )
        report = {
            "study": "downsample",
            "sample": ns.sample,
            "object": entry.get("id"),
            "proportions": proportions,
            "trials": ns.trials,
            "rows": rows,
            "mean_fitness": {repr(p): m for p, m in sorted(study_means(rows).items())},
        }
        atomic_write_text(ns.out, dump_json(report))
        if ns.csv:
            atomic_write_text(ns.csv, _study_csv(rows))
        print(f"downsample study: {len(rows)} trials -> {ns.out}")
        return 0
    if not (ns.auto and ns.reference):
        print("evaluate needs --auto and --reference (or --study downsample)", file=sys.stderr)
        return 2
    report = compare_labels(ns.auto, ns.reference)
    atomic_write_text(ns.out, dump_json(report.to_dict()))
    mean2 = "n/a" if report.mean_iou_2d is None else f"{report.mean_iou_2d:.4f}"
    print(f"matched {report.matched} objects  mean IoU3D {report.mean_iou_3d:.4f}  mean IoU2D {mean2}")
    return 0


# ---------------------------------------------------------------------------


_COMMANDS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "generate": cmd_generate,
    "refine": cmd_refine,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = load_config(ns.config)
        if ns.seed is not None:
            cfg = replace(cfg, seed=ns.seed)
        return _COMMANDS[ns.command](ns, cfg)
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as e:
        msg = e.args[0] if e.args else str(e)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
