"""Command-line pipeline: simulate, calibrate, generate, refine, evaluate.

Every subcommand is a pure function of (inputs, config, seed): re-running
with the same arguments on the same numpy/BLAS build produces byte-identical
output files, including with --jobs > 1 (workers compute, the parent writes
in order). The calibration report is also byte-identical across BLAS builds;
see REPORT_DECIMALS.

Exit codes: 0 success, 2 UsageError (bad arguments, config or input file),
3 OSError, 4 NumericalError (a computation on well-formed input failed); any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Each command imports the modules of its own stage, so --version and --help
# load no numpy and a stage loads only what it runs (see README, "Start-up").
from . import __version__
from .errors import DegenerateBeaconPair, EmptyReadings, NumericalError, UsageError


def _checked(convert, valid, expected: str):
    """argparse type: ``convert(text)``, which must be ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")
_SEED = _checked(int, lambda n: n >= 0, "an integer >= 0")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_PROPORTIONS = _checked(
    lambda text: [float(p) for p in text.split(",") if p],
    lambda ps: ps and all(0.0 < p <= 1.0 for p in ps),
    "comma-separated numbers in (0, 1]",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipslabel",
        description="Generate and refine object-detection labels from "
        "indoor-positioning-beacon measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="YAML pipeline config")
    parser.add_argument("--seed", type=_SEED, default=None, help="override config seed")
    parser.add_argument("--jobs", type=_COUNT, default=1, help="parallel workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_COUNT, default=20)

    p = sub.add_parser("calibrate", help="estimate the camera extrinsic from beacon pixels")
    p.add_argument("--dataset", help="dataset dir (uses its calibration CSVs and manifest)")
    p.add_argument("--correspondences", help="correspondence CSV path")
    p.add_argument("--robot-beacons", help="robot beacon readings CSV path")
    p.add_argument("--manifest", help="manifest JSON supplying intrinsics")
    p.add_argument("--out", required=True, help="calibration report JSON")
    p.add_argument("--planar", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--delta-px", type=_POSITIVE, default=None)
    p.add_argument("--iterations", type=_COUNT, default=None,
                   help="at most this many RANSAC hypotheses (config default 2000)")

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
    p.add_argument("--proportions", type=_PROPORTIONS, default="0.05,0.1,0.25,0.5,1.0")
    p.add_argument("--trials", type=_COUNT, default=50)
    p.add_argument("--csv", default=None, help="also write the per-trial table as CSV")
    return parser


# ---------------------------------------------------------------------------
# shared input helpers


def _manifest_scene(path: str):
    from .config import SceneConfig
    from .fileio import from_dict, read_json

    return read_json(path, lambda manifest: from_dict(SceneConfig, manifest["scene"], "scene"))


def _object_specs(scene) -> dict:
    """{object id: ObjectSpec}, in id order."""
    return dict(sorted({o.object_id: o.spec for o in scene.objects}.items()))


def _entry_spec(entry: dict, specs: dict, label_path: str):
    """The manifest spec of a label entry, whose ``id`` must name an object of its class."""
    spec = specs.get(entry.get("id"))
    if spec is None or spec.class_name != entry["class"]:
        raise UsageError(
            f"{label_path}: label object {entry.get('id')!r} of class {entry['class']!r} "
            "names no manifest object of that class"
        )
    return spec


def _robot_transform_from_readings(readings: dict, path: str):
    from .geom import average_beacon_readings, frame_from_beacons, inverse

    if "robot" not in readings:
        raise UsageError(f"{path} has no 'robot' frame rows")
    pair = average_beacon_readings(r.noisy for r in readings["robot"])
    return inverse(frame_from_beacons(pair, frame="robot"))


def _extrinsic_from_report(path: str):
    from .fileio import from_dict, read_json
    from .geom import RigidTransform

    def parse(report):
        matrix = from_dict(tuple[(float,) * 16], report["extrinsic"], "extrinsic")
        return RigidTransform.from_matrix(matrix, src="robot", dst="cam")

    return read_json(path, parse)


def _sample_ids(dataset: str) -> list:
    samples_dir = os.path.join(dataset, "samples")
    ids = sorted(
        name
        for name in os.listdir(samples_dir)
        if os.path.isdir(os.path.join(samples_dir, name))
    )
    if not ids:
        raise UsageError(f"{samples_dir} holds no sample directory")
    return ids


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(ns, cfg) -> None:
    from . import sim

    sim.generate_dataset(cfg.scene, ns.out, ns.samples, cfg.seed, jobs=ns.jobs)
    print(f"wrote {ns.samples} samples to {ns.out}")


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


def cmd_calibrate(ns, cfg) -> None:
    from dataclasses import fields, replace

    from .calib import (
        MIN_PNP_POINTS,
        apply_planar_constraint,
        parse_correspondences_csv,
        solve_pnp_ransac,
    )
    from .config import CalibOptions
    from .fileio import atomic_write_text, dump_json, read_input
    from .geom import parse_beacons_csv

    corr_path = ns.correspondences
    beacon_path = ns.robot_beacons
    manifest_path = ns.manifest
    if ns.dataset:
        corr_path = corr_path or os.path.join(ns.dataset, "calibration", "correspondences.csv")
        beacon_path = beacon_path or os.path.join(ns.dataset, "calibration", "robot_beacons.csv")
        manifest_path = manifest_path or os.path.join(ns.dataset, "manifest.json")
    if not corr_path or not beacon_path:
        raise UsageError("calibrate needs --dataset or both --correspondences and --robot-beacons")
    corrs = read_input(corr_path, parse_correspondences_csv)
    if len(corrs) < MIN_PNP_POINTS:
        raise UsageError(
            f"{corr_path}: need at least {MIN_PNP_POINTS} correspondences, got {len(corrs)}"
        )
    readings = read_input(beacon_path, parse_beacons_csv)
    intr = (_manifest_scene(manifest_path) if manifest_path else cfg.scene).intrinsics
    # the calibrate flags are named after the CalibOptions fields they override
    flags = {f.name: getattr(ns, f.name) for f in fields(CalibOptions)}
    opts = replace(cfg.calibration, **{k: v for k, v in flags.items() if v is not None})
    t_robot_from_ips = _robot_transform_from_readings(readings, beacon_path)
    solve_corrs = apply_planar_constraint(corrs) if opts.planar else corrs
    result = solve_pnp_ransac(
        solve_corrs,
        intr,
        t_robot_from_ips,
        delta_px=opts.delta_px,
        iterations=opts.iterations,
        seed=cfg.seed,
    )
    report = {
        "extrinsic": [_report_float(v) for v in result.extrinsic.matrix.reshape(-1)],
        "inliers": [int(i) for i in result.inlier_indices],
        "rmse_px": _report_float(result.rmse_px),
        "method": result.solver,
        "delta_px": result.delta_px,
        "planar": opts.planar,
    }
    atomic_write_text(ns.out, dump_json(report))
    print(f"inliers: {len(result.inlier_indices)}/{len(corrs)}  rmse_px: {result.rmse_px:.6g}")


# ---------------------------------------------------------------------------
# generate


def _generate_sample(task, specs, extrinsic, lidar_from_cam, intr) -> tuple:
    from .fileio import dump_json, read_input
    from .geom import average_beacon_readings, parse_beacons_csv
    from .labelgen import box_to_camera, box_to_lidar, label_entry, labels_to_dict, object_box_ips

    sid, beacons_path = task
    readings = read_input(beacons_path, parse_beacons_csv)
    t_robot_from_ips = _robot_transform_from_readings(readings, beacons_path)
    entries = []
    for object_id, spec in specs.items():
        try:
            pair = average_beacon_readings(r.noisy for r in readings.get(object_id, ()))
            box_ips = object_box_ips(pair, spec)
            verts_cam = box_to_camera(box_ips, extrinsic, t_robot_from_ips)
            box_lidar = box_to_lidar(verts_cam, lidar_from_cam)
            entries.append(label_entry(object_id, spec.class_name, box_lidar, verts_cam, intr))
        except (DegenerateBeaconPair, EmptyReadings) as e:
            entries.append(
                {"id": object_id, "class": spec.class_name, "error": f"{type(e).__name__}: {e}"}
            )
    return sid, dump_json(labels_to_dict(sid, entries))


def cmd_generate(ns, cfg) -> None:
    from functools import partial

    from .fileio import atomic_write_text, ordered_map, require_empty_dir

    require_empty_dir(ns.out, "generate")
    scene = _manifest_scene(os.path.join(ns.dataset, "manifest.json"))
    tasks = [
        (sid, os.path.join(ns.dataset, "samples", sid, "beacons.csv"))
        for sid in _sample_ids(ns.dataset)
    ]
    worker = partial(
        _generate_sample,
        specs=_object_specs(scene),
        extrinsic=_extrinsic_from_report(ns.calibration),
        lidar_from_cam=scene.lidar_from_cam,
        intr=scene.intrinsics,
    )
    results = ordered_map(worker, tasks, ns.jobs)
    for sid, text in results:
        atomic_write_text(os.path.join(ns.out, f"{sid}.json"), text)
    print(f"labeled {len(results)} samples -> {ns.out}")


# ---------------------------------------------------------------------------
# refine


def _refine_sample(task, specs, refine_cfg, seed, lidar_from_cam, intr) -> tuple:
    from .cloud import read_ply
    from .fileio import dump_json, read_bytes, read_input, read_json
    from .geom import inverse
    from .labelgen import label_entry, label_objects, labels_to_dict
    from .refine import fit_ground_plane, refine_label
    from .rng import NS_JOB, derive_seed

    sid, sample_index, cloud_path, label_path = task
    cloud = read_input(cloud_path, read_ply, read_bytes)
    # the sample's plane and its objects' draws are seeded from their places
    # in the dataset and the manifest, so they do not depend on which other
    # samples or entries the run holds
    plane_error = None
    try:
        plane = fit_ground_plane(cloud, refine_cfg, derive_seed(seed, NS_JOB, sample_index))
    except NumericalError as e:
        plane_error = f"{type(e).__name__}: {e}"
    cam_from_lidar = inverse(lidar_from_cam)
    position = {object_id: i for i, object_id in enumerate(specs)}
    objects = []
    for entry, unrefined, _ in read_json(label_path, label_objects):
        entry = dict(entry)
        if unrefined is None:
            objects.append(entry)
            continue
        spec = _entry_spec(entry, specs, label_path)
        obj_index = position[entry["id"]]
        obj_seed = derive_seed(seed, NS_JOB, sample_index, obj_index)
        error = plane_error
        if error is None:
            try:
                refined = refine_label(cloud, unrefined, spec, refine_cfg, obj_seed, plane=plane)
            except NumericalError as e:
                error = f"{type(e).__name__}: {e}"
        if error is None:
            verts_cam = cam_from_lidar.apply(refined.vertices())
            entry = label_entry(entry["id"], spec.class_name, refined, verts_cam, intr)
            entry["refined"] = True
        else:
            entry["refined"] = False
            entry["refine_error"] = error
        objects.append(entry)
    return sid, dump_json(labels_to_dict(sid, objects))


def cmd_refine(ns, cfg) -> None:
    from functools import partial

    # _refine_sample's modules, loaded before ordered_map forks its workers
    # so that they do not each import them again
    from . import cloud, refine
    from .fileio import atomic_write_text, ordered_map, require_empty_dir

    require_empty_dir(ns.out, "refine")
    scene = _manifest_scene(os.path.join(ns.dataset, "manifest.json"))
    # seeds follow the sample's place in the dataset, so refining some of the
    # label files writes what refining all of them writes for those files
    sample_index = {sid: i for i, sid in enumerate(_sample_ids(ns.dataset))}
    fnames = sorted(f for f in os.listdir(ns.labels) if f.endswith(".json"))
    if not fnames:
        raise UsageError(f"{ns.labels} holds no label file (*.json)")
    tasks = []
    for fname in fnames:
        sid, label_path = fname[: -len(".json")], os.path.join(ns.labels, fname)
        if sid not in sample_index:
            raise UsageError(f"{label_path} names no sample of dataset {ns.dataset}")
        cloud_path = os.path.join(ns.dataset, "samples", sid, "cloud.ply")
        tasks.append((sid, sample_index[sid], cloud_path, label_path))
    worker = partial(
        _refine_sample,
        specs=_object_specs(scene),
        refine_cfg=cfg.refine,
        seed=cfg.seed,
        lidar_from_cam=scene.lidar_from_cam,
        intr=scene.intrinsics,
    )
    results = ordered_map(worker, tasks, ns.jobs)
    for sid, text in results:
        atomic_write_text(os.path.join(ns.out, f"{sid}.json"), text)
    print(f"refined {len(results)} samples -> {ns.out}")


# ---------------------------------------------------------------------------
# evaluate


def _study_csv(rows) -> str:
    lines = ["proportion,trial,fitness,error"]
    for row in rows:
        fitness_s = str(row["fitness"]) if "fitness" in row else ""
        error_s = row.get("error", "").replace(",", ";")
        lines.append(f"{row['proportion']!r},{row['trial']},{fitness_s},{error_s}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(ns, cfg) -> None:
    from .fileio import atomic_write_text, dump_json

    if ns.study == "downsample":
        if not (ns.dataset and ns.labels and ns.sample):
            raise UsageError("--study downsample needs --dataset, --labels and --sample")
        from .cloud import read_ply
        from .eval import downsample_study, study_means
        from .fileio import read_bytes, read_input, read_json
        from .labelgen import label_objects

        specs = _object_specs(_manifest_scene(os.path.join(ns.dataset, "manifest.json")))
        cloud = read_input(
            os.path.join(ns.dataset, "samples", ns.sample, "cloud.ply"), read_ply, read_bytes
        )
        label_path = os.path.join(ns.labels, f"{ns.sample}.json")
        objects = read_json(label_path, label_objects)
        entries = [
            (entry, box)
            for entry, box, _ in objects
            if box is not None and ns.object_id in (None, entry.get("id"))
        ]
        if not entries:
            raise UsageError(f"no usable object entry in {ns.sample}")
        entry, unrefined = entries[0]
        spec = _entry_spec(entry, specs, label_path)
        rows = downsample_study(
            cloud,
            unrefined,
            spec,
            ns.proportions,
            ns.trials,
            cfg.refine,
            cfg.seed,
        )
        report = {
            "study": "downsample",
            "sample": ns.sample,
            "object": entry.get("id"),
            "proportions": ns.proportions,
            "trials": ns.trials,
            "rows": rows,
            "mean_fitness": {repr(p): m for p, m in sorted(study_means(rows).items())},
        }
        atomic_write_text(ns.out, dump_json(report))
        if ns.csv:
            atomic_write_text(ns.csv, _study_csv(rows))
        print(f"downsample study: {len(rows)} trials -> {ns.out}")
        return
    if not (ns.auto and ns.reference):
        raise UsageError("evaluate needs --auto and --reference (or --study downsample)")
    from .eval import compare_labels

    report = compare_labels(ns.auto, ns.reference)
    atomic_write_text(ns.out, dump_json(report.to_dict()))
    mean2 = "n/a" if report.mean_iou_2d is None else f"{report.mean_iou_2d:.4f}"
    print(f"matched {report.matched} objects  mean IoU3D {report.mean_iou_3d:.4f}  mean IoU2D {mean2}")


# ---------------------------------------------------------------------------


_COMMANDS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "generate": cmd_generate,
    "refine": cmd_refine,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    from dataclasses import replace

    from .config import load_config

    try:
        cfg = load_config(ns.config)
        if ns.seed is not None:
            cfg = replace(cfg, seed=ns.seed)
        _COMMANDS[ns.command](ns, cfg)
        return 0
    except NumericalError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
