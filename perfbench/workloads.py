"""Benchmark workloads: inputs built from a seed, the CLI stage sequence, checks.

Every workload runs all five stages (simulate, calibrate, generate, refine,
evaluate), so every end-to-end and per-layer metric exists on every
workload; they differ in which layer carries the time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ipslabel import calib, config, sim
from ipslabel.eval import compare_labels
from ipslabel.geom import compose

PLANAR_MODES = ("--planar", "--no-planar")
OUTLIER_FRACTION = 0.3
OUTLIER_MIN_OFFSET_PX = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int
    jobs: int
    # scene.lidar overrides; empty keeps the default 16-channel, 0.2 degree LiDAR
    lidar: dict
    # extra calibrate calls on corrupted targets (seeds s..s+n-1), solved
    # --planar and --no-planar in turn
    calib_targets: int = 0
    # seed of the dataset and of the stages that consume it; None uses the
    # workload seed
    dataset_seed: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline20",
            "the fixed 20-sample workload at --jobs 1; refine is ~90% of the time, so refine changes show",
            samples=20,
            jobs=1,
            lidar={},
        ),
        Workload(
            "calib_outliers",
            "4 RANSAC-PnP calls on targets with 30% outlier pixels beside a fixed 1-sample pipeline; bypasses refine",
            samples=1,
            jobs=1,
            lidar={},
            calib_targets=4,
            # The seed varies only the outlier targets this workload is about;
            # the small pipeline beside them stays fixed, so its two objects
            # add no seed-to-seed noise to the refine, I/O and IoU metrics.
            dataset_seed=7,
        ),
        Workload(
            "dense_jobs2",
            "10 samples of a 32-channel 0.1 degree LiDAR (4x the points) at --jobs 2; stresses cloud I/O and fitness",
            samples=10,
            jobs=2,
            lidar={"channels": 32, "azimuth_step_deg": 0.1},
        ),
    )
}


def config_dict(w: Workload, seed: int) -> dict:
    scene = {"pixel_noise_sigma": 1.0}
    if w.lidar:
        scene["lidar"] = dict(w.lidar)
    return {"seed": seed, "scene": scene}


def _corrupt_target(scene, seed: int) -> tuple:
    """Calibration target of ``seed`` with 30% of its pixels replaced.

    Each replaced pixel is uniform over the image and at least 50 px from
    the projection of its beacon under the true extrinsic. Returns the CSV
    texts and the sorted clean indices.
    """
    calset = sim.make_calibration_set(scene, seed)
    corrs = list(calset.correspondences)
    rng = np.random.default_rng(seed)
    n_bad = round(OUTLIER_FRACTION * len(corrs))
    bad = set(int(i) for i in rng.choice(len(corrs), size=n_bad, replace=False))
    intr = scene.intrinsics
    t_cam_from_ips = compose(scene.cam_from_robot, calset.t_robot_from_ips)
    for i in sorted(bad):
        true_uv = np.array(calib.project(intr, t_cam_from_ips, corrs[i].beacon_ips))
        while True:
            uv = rng.uniform([0.0, 0.0], [intr.width, intr.height])
            if np.linalg.norm(uv - true_uv) >= OUTLIER_MIN_OFFSET_PX:
                break
        corrs[i] = calib.Correspondence(corrs[i].beacon_ips, uv, corrs[i].plane_tag)
    clean = [i for i in range(len(corrs)) if i not in bad]
    files = {
        "correspondences.csv": sim.correspondences_csv(corrs),
        "robot_beacons.csv": sim.beacons_csv({"robot": calset.robot_readings}),
    }
    return files, clean


def build_inputs(w: Workload, seed: int, inputs: str) -> dict:
    """Write the config and calibration targets; return what the checks need."""
    cfg = config_dict(w, seed)
    os.makedirs(inputs, exist_ok=True)
    with open(os.path.join(inputs, "config.yaml"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)  # JSON is YAML
    scene = config.config_from_dict(cfg).scene
    clean = {}
    for k in range(w.calib_targets):
        files, clean[k] = _corrupt_target(scene, seed + k)
        for name, text in files.items():
            path = os.path.join(inputs, f"target{k}", name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return {"clean_inliers": clean}


def stage_calls(w: Workload, seed: int, inputs: str, out: str, jobs: int) -> list:
    """(stage, argv) pairs in run order; argv is what follows `ipslabel`."""
    base = ["--config", os.path.join(inputs, "config.yaml"), "--jobs", str(jobs)]
    head = base if w.dataset_seed is None else base + ["--seed", str(w.dataset_seed)]
    ds = os.path.join(out, "dataset")
    calibration = os.path.join(out, "calibration.json")
    calls = [
        ("simulate", head + ["simulate", "--out", ds, "--samples", str(w.samples)]),
        ("calibrate", head + ["calibrate", "--dataset", ds, "--out", calibration]),
    ]
    for k in range(w.calib_targets):
        tgt = os.path.join(inputs, f"target{k}")
        calls.append(
            (
                "calibrate",
                base
                + ["--seed", str(seed + k), "calibrate"]
                + ["--correspondences", os.path.join(tgt, "correspondences.csv")]
                + ["--robot-beacons", os.path.join(tgt, "robot_beacons.csv")]
                + [PLANAR_MODES[k % 2], "--out", calib_report(out, k)],
            )
        )
    labels = os.path.join(out, "labels")
    refined = os.path.join(out, "refined")
    calls += [
        ("generate", head + ["generate", "--dataset", ds, "--calibration", calibration, "--out", labels]),
        ("refine", head + ["refine", "--dataset", ds, "--labels", labels, "--out", refined]),
        ("evaluate", ["evaluate", "--auto", refined, "--reference", os.path.join(ds, "truth"), "--out", os.path.join(out, "report.json")]),
    ]
    return calls


def calib_report(out: str, k: int) -> str:
    return os.path.join(out, f"calibration_target{k}.json")


def calib_reports(w: Workload, out: str) -> list:
    """(target index or None for the dataset's own, report path) per calibrate call."""
    own = [(None, os.path.join(out, "calibration.json"))]
    return own + [(k, calib_report(out, k)) for k in range(w.calib_targets)]


def tree_digest(root: str) -> dict:
    """{relative path: sha256} of every file under ``root``."""
    out = {}
    for d, _, files in os.walk(root):
        for name in files:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _label_entries(label_dir: str):
    for name in sorted(os.listdir(label_dir)):
        if name.endswith(".json"):
            yield from _load(os.path.join(label_dir, name))["objects"]


def check_outputs(w: Workload, out: str, built: dict) -> tuple:
    """Checks on one finished pass: (failed checks, failed ops, labelled objects).

    An object fails when generate recorded an ``error`` for it or refine
    fell back to the unrefined label; a calibrate call fails when its inlier
    set is not exactly the clean indices of its target.
    """
    problems = []
    failed_ops = 0
    report = _load(os.path.join(out, "report.json"))
    expected = 2 * w.samples
    if report["matched"] != expected or report["unmatched_auto"] != 0:
        problems.append(
            f"evaluate matched {report['matched']} objects "
            f"({report['unmatched_auto']} unmatched), expected {expected}"
        )
    failed_ops += sum("error" in e for e in _label_entries(os.path.join(out, "labels")))
    failed_ops += sum("refine_error" in e for e in _label_entries(os.path.join(out, "refined")))
    for k, path in calib_reports(w, out):
        if k is None:
            continue
        got = _load(path)["inliers"]
        if got != built["clean_inliers"][k]:
            failed_ops += 1
            problems.append(
                f"{os.path.basename(path)}: {len(got)} inliers, expected the "
                f"{len(built['clean_inliers'][k])} clean ones"
            )
    return problems, failed_ops, expected


def _rotation_error_deg(r_est: np.ndarray, r_true: np.ndarray) -> float:
    c = (np.trace(r_est.T @ r_true) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def label_quality(w: Workload, out: str) -> dict:
    """Label and calibration quality of one pass, against simulator truth."""
    ds = os.path.join(out, "dataset")
    truth_dir = os.path.join(ds, "truth")
    refined = _load(os.path.join(out, "report.json"))
    unrefined = compare_labels(os.path.join(out, "labels"), truth_dir).to_dict()
    ious = [m["iou_3d"] for s in refined["per_sample"] for m in s["matches"]]
    before = [m["iou_3d"] for s in unrefined["per_sample"] for m in s["matches"]]
    truth = np.array(_load(os.path.join(ds, "manifest.json"))["calibration_truth"]["cam_from_robot"]).reshape(4, 4)
    rot, trans = [], []
    for _, path in calib_reports(w, out):
        m = np.array(_load(path)["extrinsic"]).reshape(4, 4)
        rot.append(_rotation_error_deg(m[:3, :3], truth[:3, :3]))
        trans.append(100.0 * float(np.linalg.norm(m[:3, 3] - truth[:3, 3])))
    quality = {
        "iou3d_mean": refined["mean_iou_3d"],
        "iou3d_min": min(ious),
        "refine_worsened": sum(a < b for a, b in zip(ious, before)),
        "calib_rot_err_deg": float(np.mean(rot)),
        "calib_trans_err_cm": float(np.mean(trans)),
    }
    if refined["mean_iou_2d"] is not None:
        quality["iou2d_mean"] = refined["mean_iou_2d"]
    return quality
