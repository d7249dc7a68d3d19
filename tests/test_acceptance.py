"""Acceptance gates for the full pipeline.

Each test is one release criterion, self-contained and seeded, with the
quantitative threshold and the runtime budget asserted together:

1. zero-noise end-to-end labels reproduce simulator truth (IoU >= 0.999);
2. the planar height constraint helps calibration on two-plane targets;
3. seeded refinement recovers perturbed labels on noisy scenes;
4. refinement quality survives heavy point-cloud down-sampling;
5. core numerics agree with brute-force / Monte-Carlo oracles;
6. every CLI subcommand is byte-deterministic, including --jobs > 1;
7. beacon-frame heading error shrinks as beacon separation grows.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from ipslabel.calib import apply_planar_constraint, solve_pnp, solve_pnp_ransac
from ipslabel.cloud import read_ply
from ipslabel.config import ObjectSpec, RefineConfig, SceneConfig
from ipslabel.eval import downsample_study, iou_3d
from ipslabel.geom import (
    BeaconPair,
    average_beacon_readings,
    frame_from_beacons,
    inverse,
)
from ipslabel.labelgen import OrientedBox3, normalize_yaw
from ipslabel.refine import fitness, shell_scores
from ipslabel.rng import substream
from ipslabel.sim import make_calibration_set

from .conftest import run_cli, tree_digest
from .oracles import fitness_oracle, mc_iou3d_oracle
from .test_calib import INTR, make_pose_pair, rotation_angle, synth_corrs
from .test_refine import refine_fitted


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_ok(argv):
    code, stdout, stderr = run_cli(argv)
    assert code == 0, f"{argv}: exit {code}\n{stderr}"
    return stdout


@pytest.fixture(scope="module")
def noisy20(tmp_path_factory):
    """20-sample noisy dataset with unrefined labels (shared by gates 3 and 4)."""
    root = tmp_path_factory.mktemp("noisy20")
    cfg = root / "cfg.yaml"
    cfg.write_text("scene:\n  pixel_noise_sigma: 1.0\n")
    ds, cal, labels = str(root / "ds"), str(root / "cal.json"), str(root / "labels")
    run_ok(["--config", str(cfg), "simulate", "--out", ds, "--samples", "20"])
    run_ok(["--config", str(cfg), "calibrate", "--dataset", ds, "--out", cal])
    run_ok(["--config", str(cfg), "generate", "--dataset", ds, "--calibration", cal, "--out", labels])
    return {"ds": ds, "labels": labels}


def load_boxes(path):
    return {
        o["class"]: OrientedBox3.from_dict(o["box3d_lidar"])
        for o in json.loads(read(path))["objects"]
    }


def test_zero_noise_end_to_end_labels_match_truth(tmp_path):
    """Gate 1: 20 noise-free samples -> every 2D and 3D label IoU >= 0.999, < 30 s."""
    t0 = time.monotonic()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scene:\n  beacon_noise: 0.0\n  pixel_noise_sigma: 0.0\n")
    ds, cal, labels, rep = (
        str(tmp_path / "ds"), str(tmp_path / "cal.json"),
        str(tmp_path / "labels"), str(tmp_path / "rep.json"),
    )
    run_ok(["--config", str(cfg), "simulate", "--out", ds, "--samples", "20"])
    run_ok(["--config", str(cfg), "calibrate", "--dataset", ds, "--out", cal])
    run_ok(["--config", str(cfg), "generate", "--dataset", ds, "--calibration", cal, "--out", labels])
    run_ok(["evaluate", "--auto", labels, "--reference", os.path.join(ds, "truth"), "--out", rep])
    elapsed = time.monotonic() - t0
    report = json.loads(read(rep))
    assert report["matched"] == 40
    worst_3d = min(m["iou_3d"] for s in report["per_sample"] for m in s["matches"])
    worst_2d = min(m["iou_2d"] for s in report["per_sample"] for m in s["matches"])
    print(f"\n[gate 1] min IoU3D {worst_3d:.6f}  min IoU2D {worst_2d:.6f}  in {elapsed:.1f}s")
    assert worst_3d >= 0.999
    assert worst_2d >= 0.999
    assert elapsed < 30.0


def test_planar_constraint_reduces_calibration_error():
    """Gate 2: 63 correspondences, 2 cm beacon + 1 px pixel noise, 50 seeds ->
    median inlier RMSE with the height constraint <= without, at both inlier
    gates; the wide gate keeps all 63 points in >= 90% of constrained trials.
    < 60 s."""
    t0 = time.monotonic()
    scene = replace(SceneConfig(), beacon_noise=0.02, pixel_noise_sigma=1.0)
    rmse = {(d, p): [] for d in (8.0, 25.0) for p in (False, True)}
    full63 = 0
    for seed in range(50):
        cs = make_calibration_set(scene, seed)
        pair = average_beacon_readings(cs.robot_readings)
        t_robot_from_ips = inverse(frame_from_beacons(pair, frame="robot"))
        for delta in (8.0, 25.0):
            for planar in (False, True):
                corrs = apply_planar_constraint(cs.correspondences) if planar else cs.correspondences
                r = solve_pnp_ransac(
                    corrs, scene.intrinsics, t_robot_from_ips,
                    delta_px=delta, iterations=300, seed=seed,
                )
                rmse[(delta, planar)].append(r.rmse_px)
                if delta == 25.0 and planar and len(r.inlier_indices) == 63:
                    full63 += 1
    elapsed = time.monotonic() - t0
    med = {k: float(np.median(v)) for k, v in rmse.items()}
    print(
        f"\n[gate 2] median RMSE d8 {med[(8.0, True)]:.4f}<={med[(8.0, False)]:.4f}  "
        f"d25 {med[(25.0, True)]:.4f}<={med[(25.0, False)]:.4f}  "
        f"full-63 {full63}/50  in {elapsed:.1f}s"
    )
    assert med[(8.0, True)] <= med[(8.0, False)]
    assert med[(25.0, True)] <= med[(25.0, False)]
    assert full63 >= 45
    assert elapsed < 60.0


def test_refinement_recovers_perturbed_labels(noisy20):
    """Gate 3: perturb unrefined labels by +-0.10 m / +-10 deg on 20 noisy
    samples; 5000-iteration seeded refinement raises 3D IoU for >= 90% of
    objects and never lowers the mean. < 2 min."""
    t0 = time.monotonic()
    rng = substream(123, 99)
    specs = {
        "cabinet": ObjectSpec("cabinet", 0.9, 0.5, 1.3),
        "table": ObjectSpec("table", 1.2, 0.8, 0.75),
    }
    before, after = [], []
    for i in range(20):
        sid = f"sample_{i:03d}"
        pcd = read_ply(read(os.path.join(noisy20["ds"], "samples", sid, "cloud.ply")))
        labels = load_boxes(os.path.join(noisy20["labels"], f"{sid}.json"))
        truth = load_boxes(os.path.join(noisy20["ds"], "truth", f"{sid}.json"))
        for cls, box in labels.items():
            dx, dy, dz = rng.uniform(-0.10, 0.10, size=3)
            dyaw = math.radians(rng.uniform(-10.0, 10.0))
            perturbed = OrientedBox3(
                box.center + np.array([dx, dy, dz]), box.dims,
                normalize_yaw(box.yaw + dyaw), frame=box.frame,
            )
            cfg = RefineConfig(iterations=5000)
            refined = refine_fitted(pcd, perturbed, specs[cls], cfg, seed=7)
            before.append(iou_3d(perturbed, truth[cls]))
            after.append(iou_3d(refined, truth[cls]))
    elapsed = time.monotonic() - t0
    improved = sum(a > b for a, b in zip(after, before))
    print(
        f"\n[gate 3] improved {improved}/{len(before)}  "
        f"mean IoU3D {np.mean(before):.4f}->{np.mean(after):.4f}  in {elapsed:.1f}s"
    )
    assert improved >= 0.9 * len(before)
    assert np.mean(after) >= np.mean(before)
    assert elapsed < 120.0


def test_refinement_survives_downsampling(noisy20):
    """Gate 4: proportions {0.05..1.0} x 50 trials on one cabinet sample ->
    mean refined 3D IoU at 5% within 0.10 of the mean at 100%. < 5 min."""
    t0 = time.monotonic()
    sid = "sample_000"
    pcd = read_ply(read(os.path.join(noisy20["ds"], "samples", sid, "cloud.ply")))
    labels = load_boxes(os.path.join(noisy20["labels"], f"{sid}.json"))
    truth = load_boxes(os.path.join(noisy20["ds"], "truth", f"{sid}.json"))
    spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
    cfg = RefineConfig(iterations=5000)
    rows = downsample_study(
        pcd, labels["cabinet"], spec, (0.05, 0.1, 0.25, 0.5, 1.0), 50, cfg, seed=3
    )
    elapsed = time.monotonic() - t0
    by_prop = {}
    for row in rows:
        assert "error" not in row, row
        box = OrientedBox3.from_dict(row["box3d"])
        by_prop.setdefault(row["proportion"], []).append(iou_3d(box, truth["cabinet"]))
    means = {p: float(np.mean(v)) for p, v in by_prop.items()}
    gap = abs(means[0.05] - means[1.0])
    print(
        "\n[gate 4] mean IoU3D per proportion "
        + "  ".join(f"{p}:{means[p]:.4f}" for p in sorted(means))
        + f"  gap {gap:.4f}  in {elapsed:.1f}s"
    )
    assert gap <= 0.10
    assert elapsed < 300.0


def test_numerics_match_independent_oracles():
    """Gate 5: shell fitness and the batched shell scorer == brute force
    (100 pairs); box IoU within 0.01 of a 1e6-sample Monte-Carlo oracle
    (100 pairs); noise-free pose recovery within 1e-6 (100 poses);
    beacon-frame orthonormality within 1e-9 (1000 pairs). < 2 min total."""
    t0 = time.monotonic()

    rng = np.random.default_rng(50)
    for _ in range(100):
        center = rng.uniform(-2, 2, 3)
        dims = rng.uniform(0.3, 2.0, 3)
        yaw = rng.uniform(-math.pi, math.pi)
        box = OrientedBox3(center, dims, yaw)
        pts = center + rng.uniform(-1.5, 1.5, size=(400, 3))
        delta = rng.uniform(0.02, 0.15)
        expected = fitness_oracle(center, dims, yaw, pts, delta)
        assert fitness(box, pts, delta) == expected
        assert shell_scores([box.center], [box.yaw], dims, pts, delta)[0] == expected

    rng = np.random.default_rng(51)
    for _ in range(100):
        a = OrientedBox3(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.3, 2.0, 3), rng.uniform(-3, 3))
        b = OrientedBox3(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.3, 2.0, 3), rng.uniform(-3, 3))
        assert iou_3d(a, b) == pytest.approx(mc_iou3d_oracle(a, b, 1_000_000, rng), abs=0.01)

    rng = np.random.default_rng(52)
    for _ in range(100):
        t_cam_from_robot, t_robot_from_ips = make_pose_pair(rng)
        corrs = synth_corrs(20, rng, t_cam_from_robot, t_robot_from_ips)
        est = solve_pnp(corrs, INTR, t_robot_from_ips)
        assert rotation_angle(est.rotation, t_cam_from_robot.rotation) < 1e-6
        assert np.linalg.norm(est.translation - t_cam_from_robot.translation) < 1e-6

    rng = np.random.default_rng(53)
    eye = np.eye(3)
    for _ in range(1000):
        front = rng.uniform(-5, 5, 3)
        angle = rng.uniform(-math.pi, math.pi)
        gap = rng.uniform(0.05, 2.0)
        rear = front + [gap * math.cos(angle), gap * math.sin(angle), rng.uniform(-0.3, 0.3)]
        t = frame_from_beacons(BeaconPair(front, rear))
        assert np.max(np.abs(t.rotation.T @ t.rotation - eye)) <= 1e-9

    elapsed = time.monotonic() - t0
    print(f"\n[gate 5] fitness/IoU/pose/orthonormality oracles agree  in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_cli_is_byte_deterministic(tmp_path):
    """Gate 6: re-running every subcommand with the same seed/config yields
    byte-identical outputs, including under --jobs > 1."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 13\nscene:\n  pixel_noise_sigma: 1.0\nrefine:\n  iterations: 400\n")
    base = ["--config", str(cfg)]

    ds = {}
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
        ds[tag] = str(tmp_path / f"ds_{tag}")
        run_ok(base + ["--jobs", jobs, "simulate", "--out", ds[tag], "--samples", "4"])
    assert tree_digest(ds["a"]) == tree_digest(ds["b"]) == tree_digest(ds["c"])

    cal = {}
    for tag in ("a", "b"):
        cal[tag] = str(tmp_path / f"cal_{tag}.json")
        run_ok(base + ["calibrate", "--dataset", ds["a"], "--iterations", "300", "--out", cal[tag]])
    assert read(cal["a"]) == read(cal["b"])

    labels = {}
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        labels[tag] = str(tmp_path / f"labels_{tag}")
        run_ok(base + ["--jobs", jobs, "generate", "--dataset", ds["a"],
                       "--calibration", cal["a"], "--out", labels[tag]])
    assert tree_digest(labels["a"]) == tree_digest(labels["b"]) == tree_digest(labels["c"])

    refined = {}
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        refined[tag] = str(tmp_path / f"refined_{tag}")
        run_ok(base + ["--jobs", jobs, "refine", "--dataset", ds["a"],
                       "--labels", labels["a"], "--out", refined[tag]])
    assert tree_digest(refined["a"]) == tree_digest(refined["b"]) == tree_digest(refined["c"])

    reports = {}
    for tag in ("a", "b"):
        reports[tag] = str(tmp_path / f"rep_{tag}.json")
        run_ok(base + ["evaluate", "--auto", refined["a"],
                       "--reference", os.path.join(ds["a"], "truth"), "--out", reports[tag]])
    assert read(reports["a"]) == read(reports["b"])

    studies = {}
    for tag in ("a", "b"):
        studies[tag] = str(tmp_path / f"study_{tag}.json")
        run_ok(base + ["evaluate", "--study", "downsample", "--dataset", ds["a"],
                       "--labels", labels["a"], "--sample", "sample_000",
                       "--object-id", "obj0", "--proportions", "0.5,1.0",
                       "--trials", "2", "--out", studies[tag],
                       "--csv", studies[tag] + ".csv"])
    assert read(studies["a"]) == read(studies["b"])
    assert read(studies["a"] + ".csv") == read(studies["b"] + ".csv")
    print("\n[gate 6] simulate/calibrate/generate/refine/evaluate byte-identical across re-runs and --jobs")


def test_heading_error_shrinks_with_beacon_separation():
    """Gate 7: mean forward-axis angular error is monotone non-increasing
    over beacon separations {0.1, 0.5, 1.0, 2.0} m at +-2 cm noise,
    100 common-random-number seeds per separation."""
    separations = (0.1, 0.5, 1.0, 2.0)
    true_dir = np.array([1.0, 0.0, 0.0])
    means = []
    for sep in separations:
        errs = []
        for k in range(100):
            rng = substream(2026, 42, k)
            noise = rng.uniform(-0.02, 0.02, size=(2, 3))
            front = np.array([sep, 0.0, 0.3]) + noise[0]
            rear = np.array([0.0, 0.0, 0.3]) + noise[1]
            t = frame_from_beacons(BeaconPair(front, rear))
            xhat = t.rotation[:, 0]
            errs.append(math.degrees(math.acos(np.clip(xhat @ true_dir, -1.0, 1.0))))
        means.append(float(np.mean(errs)))
    print(
        "\n[gate 7] mean heading error (deg) "
        + "  ".join(f"{s}m:{m:.4f}" for s, m in zip(separations, means))
    )
    assert all(a >= b for a, b in zip(means, means[1:]))
