"""Synthetic scene simulator: ground truth for every pipeline stage.

A scene is a set of box-shaped objects on a flat floor, observed by a
robot carrying a beacon pair, a pinhole camera, and a multi-channel
ray-cast LiDAR. The robot frame is the frame the beacon construction
yields (x forward, y = x cross z, z up); the camera and LiDAR mounts are
proper rotations expressed in that frame, so the true camera extrinsic is
exactly what the PnP stage estimates.

Everything is deterministic given (seed, sample index): robot poses,
beacon noise, and pixel noise all draw from dedicated substreams.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .calib import Correspondence, correspondences_csv
from .cloud import write_ply
from .errors import UsageError
from .fileio import (
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    require_empty_dir,
    to_dict,
)
from .geom import (
    BeaconPair,
    RigidTransform,
    _project_cam,
    beacons_csv,
    chunks,
    compose,
    frame_from_beacons,
    frozen,
    inverse,
)
from .labelgen import (
    OrientedBox3,
    box_to_camera,
    box_to_lidar,
    label_entry,
    labels_to_dict,
)
from .rng import NS_BEACON, NS_CALSET, NS_POSE, substream

if TYPE_CHECKING:
    from .config import LidarConfig, ObjectPlacement, SceneConfig

TABLE_SLAB_THICKNESS = 0.15  # meters; tabletop plus apron frame, the part the LiDAR sees
TABLE_STEM_WIDTH = 0.08  # meters; square center column
# Most rays that raycast_lidar casts at a time (see _direction_blocks). On a
# 32-channel 0.1 degree scan, 2**14 cast 13% slower (more calls per scan)
# and 2**16 peaked 0.5 MB higher.
_CAST_RAYS = 1 << 15
# Draws per calibration point before the camera is taken to see none of the
# target area (on the default rig every point is accepted on its first draw).
MAX_CALIBRATION_DRAWS = 1000


# ---------------------------------------------------------------------------
# Per-sample geometry


def _mutual_clearance(scene: SceneConfig, x: float, y: float) -> float:
    """Smallest sight-line clearance from (x, y) to any object past the others.

    For every ordered object pair, measures how far the segment from the
    viewpoint to the target's center passes from the other object's
    center, minus both BEV half-diagonals. Negative means one object
    shadows another from this viewpoint.
    """
    worst = math.inf
    for target in scene.objects:
        t = np.array([target.x, target.y])
        for other in scene.objects:
            if other is target:
                continue
            o = np.array([other.x, other.y])
            a = np.array([x, y])
            seg = t - a
            seg_len2 = float(seg @ seg)
            frac = float(np.clip((o - a) @ seg / seg_len2, 0.0, 1.0)) if seg_len2 > 0 else 0.0
            gap = float(np.linalg.norm(o - (a + frac * seg)))
            spec_t, spec_o = target.spec, other.spec
            need = 0.5 * math.hypot(spec_t.length, spec_t.width)
            need += 0.5 * math.hypot(spec_o.length, spec_o.width)
            worst = min(worst, gap - need)
    return worst


def robot_pose_for_sample(scene: SceneConfig, seed: int, index: int) -> tuple:
    """(x, y, heading): on a ring around the objects, facing their centroid.

    Viewpoints from which one object shadows another are rejected and
    redrawn (a capture run records objects it can actually see); after 64
    rejections the least-shadowed draw wins so the sampler always returns.
    """
    cx = float(np.mean([o.x for o in scene.objects]))
    cy = float(np.mean([o.y for o in scene.objects]))
    rng = substream(seed, NS_POSE, index)
    best = None
    best_clearance = -math.inf
    for _ in range(64):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(scene.robot_radius_min, scene.robot_radius_max)
        x = cx + radius * math.cos(angle)
        y = cy + radius * math.sin(angle)
        jitter = math.radians(scene.heading_jitter_deg) * rng.uniform(-1.0, 1.0)
        clearance = _mutual_clearance(scene, x, y)
        if clearance > best_clearance:
            best_clearance = clearance
            best = (x, y, jitter)
        if clearance >= 0.0:
            break
    x, y, jitter = best
    heading = math.atan2(cy - y, cx - x) + jitter
    return (float(x), float(y), float(heading))


def robot_beacons(scene: SceneConfig, pose) -> BeaconPair:
    x, y, heading = pose
    front = np.array([x, y, scene.floor_z + scene.robot_beacon_height])
    back = front - scene.robot_beacon_sep * np.array(
        [math.cos(heading), math.sin(heading), 0.0]
    )
    return BeaconPair(front, back)


def object_beacons(placement: ObjectPlacement, floor_z: float) -> BeaconPair:
    """Beacons on the object's top surface, along its x axis."""
    spec = placement.spec
    mid = np.array([placement.x, placement.y, floor_z + spec.height])
    half = 0.5 * placement.beacon_sep * np.array(
        [math.cos(placement.yaw), math.sin(placement.yaw), 0.0]
    )
    return BeaconPair(mid + half, mid - half)


def true_object_box_ips(placement: ObjectPlacement, floor_z: float) -> OrientedBox3:
    """The object's box, standing on the floor at height ``floor_z``."""
    spec = placement.spec
    center = np.array([placement.x, placement.y, floor_z + spec.height / 2.0])
    return OrientedBox3(center, spec.dims, placement.yaw, frame="ips")


def _solid_boxes_ips(placement: ObjectPlacement, floor_z: float) -> list:
    """The solids the LiDAR actually sees (a table is a slab plus a stem)."""
    spec = placement.spec
    if spec.class_name == "table":
        slab_center = np.array(
            [placement.x, placement.y, floor_z + spec.height - TABLE_SLAB_THICKNESS / 2.0]
        )
        slab = OrientedBox3(
            slab_center,
            (spec.length, spec.width, TABLE_SLAB_THICKNESS),
            placement.yaw,
            frame="ips",
        )
        stem_height = spec.height - TABLE_SLAB_THICKNESS
        stem_center = np.array([placement.x, placement.y, floor_z + stem_height / 2.0])
        stem = OrientedBox3(
            stem_center,
            (TABLE_STEM_WIDTH, TABLE_STEM_WIDTH, stem_height),
            placement.yaw,
            frame="ips",
        )
        return [slab, stem]
    return [true_object_box_ips(placement, floor_z)]


def true_transforms(scene: SceneConfig, pose) -> dict:
    """Clean transform chain for a robot pose."""
    t_robot_from_ips = inverse(frame_from_beacons(robot_beacons(scene, pose), frame="robot"))
    t_cam_from_ips = compose(scene.cam_from_robot, t_robot_from_ips)
    t_lidar_from_ips = compose(scene.lidar_from_cam, t_cam_from_ips)
    return {
        "robot_from_ips": t_robot_from_ips,
        "cam_from_ips": t_cam_from_ips,
        "lidar_from_ips": t_lidar_from_ips,
    }


# ---------------------------------------------------------------------------
# LiDAR ray casting


@lru_cache
def _scan_factors(cfg: LidarConfig) -> tuple:
    """The read-only cosines and sines of the scan pattern's channel
    elevations and of its azimuths, (ce, se, ca, sa), built once per
    process for each config."""
    elevations = np.radians(np.linspace(cfg.vfov_min_deg, cfg.vfov_max_deg, cfg.channels))
    n_az = int(round(360.0 / cfg.azimuth_step_deg))
    azimuths = np.radians(np.arange(n_az) * cfg.azimuth_step_deg)
    return tuple(frozen(f(v), -1) for v in (elevations, azimuths) for f in (np.cos, np.sin))


def _direction_blocks(cfg: LidarConfig):
    """The unit direction of every ray of the scan pattern, in blocks.

    The rays are channel-major: ray (channel i, azimuth j) is row
    i * n_az + j of the concatenated blocks. Each block is a C-ordered
    (n, 3) array of whole channels, at most _CAST_RAYS rays (or one
    channel). Its entries are the products ce[i] * ca[j], ce[i] * sa[j] and
    se[i] of ``_scan_factors``, so a ray's direction has the same bits in
    any block.
    """
    ce, se, ca, sa = _scan_factors(cfg)
    for part in chunks(len(ce), len(ca), _CAST_RAYS):
        c, s = ce[part, None], se[part, None]
        block = np.empty((len(c), len(ca), 3))
        np.multiply(c, ca, out=block[..., 0])
        np.multiply(c, sa, out=block[..., 1])
        block[..., 2] = s
        yield block.reshape(-1, 3)


def raycast_lidar(scene: SceneConfig, pose) -> np.ndarray:
    """Nearest-hit ray cast against object solids and the floor: the
    read-only (N, 3) cloud in the LiDAR frame, column-major as ``read_ply``
    returns a cloud.

    Rays start at the LiDAR origin; each returns the closest intersection
    with any object face or the ground plane within max range, so
    surfaces facing away from the sensor receive no points.

    The rays are cast a block at a time (see ``_direction_blocks``), and
    only each block's hits are kept, so no array of the whole scan pattern
    is held; the cloud is one copy of the hits. Within a block, a solid is
    cast only against the rays of the cone around its bounding sphere
    (radius half its diagonal), widened by 1e-6 in cosine for the rounding
    of the unit directions and of the dot that selects them; the rays
    outside it miss the sphere and so the box. When the sensor lies inside
    the sphere, every ray is cast. A ray's entry does not depend on the
    other rays, so the cloud is the one a cast of every ray against every
    solid gives.
    """
    chain = true_transforms(scene, pose)["lidar_from_ips"]
    solids = [
        box_to_lidar(solid.vertices(), chain)
        for placement in scene.objects
        for solid in _solid_boxes_ips(placement, scene.floor_z)
    ]
    ground_z = float(chain.apply(np.array([pose[0], pose[1], scene.floor_z]))[2])
    cones = []  # each solid's (axis, least cosine), or None when the sensor is in its sphere
    for solid in solids:
        reach, dist = np.linalg.norm(solid.dims) / 2.0, np.linalg.norm(solid.center)
        cone = math.sqrt(1.0 - (reach / dist) ** 2) - 1e-6 if dist > reach else None
        cones.append(None if cone is None else (solid.center / dist, cone))
    points = []  # each block's hits, (3, hits)
    for dirs in _direction_blocks(scene.lidar):
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = ground_z / dz
        best = np.where((dz < 0) & (t_ground > 1e-9), t_ground, np.inf)
        for solid, cone in zip(solids, cones):
            if cone is None:
                np.minimum(best, solid.ray_entry(dirs), out=best)
            else:
                rows = np.flatnonzero(dirs @ cone[0] >= cone[1])
                best[rows] = np.minimum(best[rows], solid.ray_entry(dirs.take(rows, axis=0)))
        # take, not a boolean mask: gathering rows by index is several times faster
        hit = np.flatnonzero(best <= scene.lidar.max_range)
        points.append(np.multiply(dirs.take(hit, axis=0).T, best[hit], order="C"))
    points = np.concatenate(points, axis=1)  # drops the blocks' list before the copy
    return frozen(points, (3, -1)).T


# ---------------------------------------------------------------------------
# Beacon and pixel measurements


def emit_beacons(scene: SceneConfig, pose, seed: int, index: int) -> dict:
    """Noisy beacon readings per frame: {"robot": [...], "obj0": [...], ...}.

    Each frame gets ``scene.collection_readings`` readings. Noise is per-axis
    uniform in [-b, +b]. Draw order is fixed (reading, then frame, then
    front/rear), so outputs are reproducible.
    """
    rng = substream(seed, NS_BEACON, index)
    true = {"robot": robot_beacons(scene, pose)}
    for placement in scene.objects:
        true[placement.object_id] = object_beacons(placement, scene.floor_z)
    out = {frame: [] for frame in true}
    for _ in range(scene.collection_readings):
        for frame, pair in true.items():
            out[frame].append(_noisy_reading(pair, scene.beacon_noise, rng))
    return {frame: tuple(rs) for frame, rs in out.items()}


def _noisy_reading(pair: BeaconPair, b: float, rng) -> BeaconPair:
    """One reading of ``pair``: per-axis uniform noise in [-b, +b], front first."""
    front = pair.front + rng.uniform(-b, b, size=3)
    rear = pair.rear + rng.uniform(-b, b, size=3)
    return BeaconPair(front, rear)


# ---------------------------------------------------------------------------
# Ground-truth samples


@dataclass(frozen=True)
class GroundTruthSample:
    sample_id: str
    robot_pose: tuple
    readings: dict
    cloud: np.ndarray  # read-only (N, 3), LiDAR frame
    truth_objects: tuple  # label-schema dicts with truth extras
    t_robot_from_ips: RigidTransform  # true


def make_sample(scene: SceneConfig, seed: int, index: int) -> GroundTruthSample:
    pose = robot_pose_for_sample(scene, seed, index)
    chain = true_transforms(scene, pose)
    readings = emit_beacons(scene, pose, seed, index)
    cloud = raycast_lidar(scene, pose)
    entries = []
    for placement in scene.objects:
        box_ips = true_object_box_ips(placement, scene.floor_z)
        entry = label_entry(
            placement.object_id,
            placement.spec.class_name,
            box_to_lidar(box_ips.vertices(), chain["lidar_from_ips"]),
            box_to_camera(box_ips, scene.cam_from_robot, chain["robot_from_ips"]),
            scene.intrinsics,
        )
        entry["box3d_ips"] = to_dict(box_ips)
        entry["dims_spec"] = [float(v) for v in placement.spec.dims]
        entries.append(entry)
    return GroundTruthSample(
        sample_id=f"sample_{index:03d}",
        robot_pose=pose,
        readings=readings,
        cloud=cloud,
        truth_objects=tuple(entries),
        t_robot_from_ips=chain["robot_from_ips"],
    )


# ---------------------------------------------------------------------------
# Calibration set


@dataclass(frozen=True)
class CalibrationSet:
    correspondences: tuple
    robot_readings: tuple  # BeaconPair
    robot_pose: tuple
    t_robot_from_ips: RigidTransform  # true


def make_calibration_set(scene: SceneConfig, seed: int) -> CalibrationSet:
    """Beacons on the floor and table planes with measured-noise positions
    and annotated (optionally noisy) pixels, plus robot beacon readings."""
    rng = substream(seed, NS_CALSET)
    cx = float(np.mean([o.x for o in scene.objects]))
    cy = float(np.mean([o.y for o in scene.objects]))
    pose = (cx - 5.0, cy, 0.0)
    chain = true_transforms(scene, pose)
    n = scene.calibration_points
    n_floor = (n + 1) // 2
    corrs = []
    margin = 5.0
    for i in range(n):
        tag = "floor" if i < n_floor else "table"
        z = scene.floor_z if tag == "floor" else scene.floor_z + scene.table_z
        for _ in range(MAX_CALIBRATION_DRAWS):
            forward = rng.uniform(2.0, 6.0)
            lateral = rng.uniform(-0.35, 0.35) * forward
            true_pos = np.array([pose[0] + forward, pose[1] + lateral, z])
            pc = chain["cam_from_ips"].apply(true_pos)
            if pc[2] <= 0.5:
                continue
            uv = _project_cam(scene.intrinsics, pc)
            if (
                margin <= uv[0] <= scene.intrinsics.width - margin
                and margin <= uv[1] <= scene.intrinsics.height - margin
            ):
                break
        else:
            raise UsageError(
                f"scene.cam_from_robot: no {tag} calibration point 2-6 m ahead of the "
                f"robot lands inside the image in {MAX_CALIBRATION_DRAWS} draws"
            )
        measured = true_pos + rng.uniform(-scene.beacon_noise, scene.beacon_noise, size=3)
        pixel = uv + scene.pixel_noise_sigma * rng.standard_normal(2)
        corrs.append(Correspondence(measured, pixel, tag))
    true_pair = robot_beacons(scene, pose)
    robot_reads = tuple(
        _noisy_reading(true_pair, scene.beacon_noise, rng)
        for _ in range(scene.calibration_readings)
    )
    return CalibrationSet(
        correspondences=tuple(corrs),
        robot_readings=robot_reads,
        robot_pose=pose,
        t_robot_from_ips=chain["robot_from_ips"],
    )


# ---------------------------------------------------------------------------
# File rendering (pure text, written atomically by generate_dataset)


def _transform_row_major(t: RigidTransform) -> list:
    return [float(v) for v in t.matrix.reshape(-1)]


def _truth_json(sample: GroundTruthSample) -> str:
    doc = labels_to_dict(sample.sample_id, list(sample.truth_objects))
    doc["robot"] = {
        "pose": [float(v) for v in sample.robot_pose],
        "t_robot_from_ips": _transform_row_major(sample.t_robot_from_ips),
    }
    return dump_json(doc)


def _write_sample(out_dir: str, sample: GroundTruthSample) -> None:
    """Write the files of one sample, whose texts are made before the first
    is written. The sample dies with this call, since generate_dataset passes
    make_sample's result straight in."""
    sid = sample.sample_id
    beacons, truth = beacons_csv(sample.readings), _truth_json(sample)
    atomic_write_bytes(os.path.join(out_dir, "samples", sid, "cloud.ply"), write_ply(sample.cloud))
    atomic_write_text(os.path.join(out_dir, "samples", sid, "beacons.csv"), beacons)
    atomic_write_text(os.path.join(out_dir, "truth", f"{sid}.json"), truth)


def manifest_json(scene: SceneConfig, seed: int, n_samples: int, calset: CalibrationSet) -> str:
    return dump_json(
        {
            "format": "ipslabel-dataset-v2",
            "seed": int(seed),
            "n_samples": int(n_samples),
            "rig": to_dict(scene.rig),
            # the simulator's record: no stage reads "scene" or "calibration_truth"
            "scene": to_dict(scene),
            "calibration_truth": {
                "cam_from_robot": _transform_row_major(scene.cam_from_robot),
                "robot_pose": [float(v) for v in calset.robot_pose],
            },
        }
    )


def generate_dataset(scene: SceneConfig, out_dir: str, n_samples: int, seed: int) -> None:
    """Write the full dataset tree; byte-identical for a given seed.

    It runs in one process and holds one sample at a time: each sample is
    made, written and released before the next is made, which keeps the
    peak memory at that of one sample. The texts of the calibration set and
    the manifest are made first, so a rig whose camera sees no target, or
    whose texts would hold a number that no reader accepts, writes nothing;
    they are written last. A sample that raises leaves the samples before
    it on disk.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    require_empty_dir(out_dir, "simulate")
    calset = make_calibration_set(scene, seed)
    cal = os.path.join(out_dir, "calibration")
    last = {
        os.path.join(cal, "correspondences.csv"): correspondences_csv(calset.correspondences),
        os.path.join(cal, "robot_beacons.csv"): beacons_csv({"robot": calset.robot_readings}),
        os.path.join(out_dir, "manifest.json"): manifest_json(scene, seed, n_samples, calset),
    }
    for index in range(n_samples):
        _write_sample(out_dir, make_sample(scene, seed, index))
    for path, text in last.items():
        atomic_write_text(path, text)
