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
from dataclasses import dataclass, field
from functools import partial
from typing import Annotated

import numpy as np

from .calib import MIN_PNP_POINTS, CameraIntrinsics, Correspondence, _project_cam
from .cloud import PointCloud, write_ply
from .errors import UsageError
from .fileio import (
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    ordered_map,
    require_empty_dir,
    to_dict,
)
from .geom import BeaconPair, RigidTransform, compose, frame_from_beacons, inverse
from .labelgen import (
    ObjectSpec,
    OrientedBox3,
    box_from_vertices,
    box_to_camera,
    label_entry,
    labels_to_dict,
)
from .rng import NS_BEACON, NS_CALSET, NS_POSE, substream

TABLE_SLAB_THICKNESS = 0.15  # meters; tabletop plus apron frame, the part the LiDAR sees
TABLE_STEM_WIDTH = 0.08  # meters; square center column
# Draws per calibration point before the camera is taken to see none of the
# target area (on the default rig every point is accepted on its first draw).
MAX_CALIBRATION_DRAWS = 1000


def _default_cam_from_robot(pitch_deg: float = 15.0) -> RigidTransform:
    """Camera mount: optical axis ahead of the robot, pitched down."""
    a = math.radians(pitch_deg)
    base = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    pitch = np.array(
        [[1.0, 0.0, 0.0], [0.0, math.cos(a), -math.sin(a)], [0.0, math.sin(a), math.cos(a)]]
    )
    rot = pitch @ base
    cam_pos_robot = np.array([0.05, 0.0, 0.05])
    return RigidTransform(rot, -rot @ cam_pos_robot, src="robot", dst="cam")


def _default_lidar_from_cam(cam_from_robot: RigidTransform) -> RigidTransform:
    """LiDAR mount: axis-aligned with the robot, 0.1 m below the beacons."""
    lidar_pos_robot = np.array([0.0, 0.0, -0.1])
    lidar_from_robot = RigidTransform(
        np.eye(3), -lidar_pos_robot, src="robot", dst="lidar"
    )
    return compose(lidar_from_robot, inverse(cam_from_robot))


DEFAULT_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
DEFAULT_CAM_FROM_ROBOT = _default_cam_from_robot()
DEFAULT_LIDAR_FROM_CAM = _default_lidar_from_cam(DEFAULT_CAM_FROM_ROBOT)


@dataclass(frozen=True)
class LidarConfig:
    channels: int = 16
    vfov_min_deg: float = -15.0
    vfov_max_deg: float = 15.0
    azimuth_step_deg: float = 0.2
    max_range: float = 30.0

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.azimuth_step_deg <= 0 or self.max_range <= 0:
            raise ValueError("azimuth_step_deg and max_range must be positive")


@dataclass(frozen=True)
class ObjectPlacement:
    """An object instance: measured spec plus its true pose on the floor."""

    object_id: str
    spec: ObjectSpec
    x: float
    y: float
    yaw: float
    beacon_sep: float = 0.4

    # Dict form: flat, with the spec's class and dims beside the pose.
    FORM = {
        "id": str,
        "class": str,
        "dims": tuple[float, float, float],
        "x": float,
        "y": float,
        "yaw": float,
        "beacon_sep": float,
    }

    def to_dict(self) -> dict:
        return {
            "id": self.object_id,
            "class": self.spec.class_name,
            "dims": list(self.spec.dims),
            "x": self.x,
            "y": self.y,
            "yaw": self.yaw,
            "beacon_sep": self.beacon_sep,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectPlacement":
        spec = ObjectSpec(d["class"], *d["dims"])
        return cls(d["id"], spec, d["x"], d["y"], d["yaw"], d.get("beacon_sep", cls.beacon_sep))


def _default_objects() -> tuple:
    return (
        ObjectPlacement("obj0", ObjectSpec("cabinet", 0.9, 0.5, 1.3), 4.0, 0.9, 0.4),
        ObjectPlacement("obj1", ObjectSpec("table", 1.2, 0.8, 0.75), 3.4, -1.6, -0.3),
    )


@dataclass(frozen=True)
class SceneConfig:
    objects: tuple[ObjectPlacement, ...] = field(default_factory=_default_objects)
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    # Annotated with the frames (src, dst), which their dict form leaves out.
    cam_from_robot: Annotated[RigidTransform, "robot", "cam"] = DEFAULT_CAM_FROM_ROBOT
    lidar_from_cam: Annotated[RigidTransform, "cam", "lidar"] = DEFAULT_LIDAR_FROM_CAM
    lidar: LidarConfig = LidarConfig()
    beacon_noise: float = 0.02  # uniform half-width per axis, meters
    pixel_noise_sigma: float = 0.0  # Gaussian, pixels (calibration pixels only)
    robot_beacon_height: float = 0.7
    robot_beacon_sep: float = 0.4
    collection_readings: int = 1
    calibration_readings: int = 16
    calibration_points: int = 63
    floor_z: float = 0.0
    table_z: float = 0.75  # calibration table plane height
    robot_radius_min: float = 3.5
    robot_radius_max: float = 5.5
    heading_jitter_deg: float = 3.0

    def __post_init__(self):
        if self.beacon_noise < 0 or self.pixel_noise_sigma < 0:
            raise ValueError("noise levels must be >= 0")
        if not self.objects:
            raise ValueError("scene needs at least one object")
        for name in ("collection_readings", "calibration_readings"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.calibration_points < MIN_PNP_POINTS:
            raise ValueError(f"calibration_points must be >= {MIN_PNP_POINTS}")
        if self.robot_radius_min > self.robot_radius_max:
            raise ValueError("robot_radius_min must be <= robot_radius_max")


def default_scene() -> SceneConfig:
    return SceneConfig()


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
    front = np.array([x, y, scene.robot_beacon_height])
    back = front - scene.robot_beacon_sep * np.array(
        [math.cos(heading), math.sin(heading), 0.0]
    )
    return BeaconPair(front, back)


def object_beacons(placement: ObjectPlacement) -> BeaconPair:
    """Beacons on the object's top surface, along its x axis."""
    spec = placement.spec
    mid = np.array([placement.x, placement.y, spec.height])
    half = 0.5 * placement.beacon_sep * np.array(
        [math.cos(placement.yaw), math.sin(placement.yaw), 0.0]
    )
    return BeaconPair(mid + half, mid - half)


def true_object_box_ips(placement: ObjectPlacement) -> OrientedBox3:
    spec = placement.spec
    center = np.array([placement.x, placement.y, spec.height / 2.0])
    return OrientedBox3(center, spec.dims, placement.yaw, frame="ips")


def _solid_boxes_ips(placement: ObjectPlacement) -> list:
    """The solids the LiDAR actually sees (a table is a slab plus a stem)."""
    spec = placement.spec
    if spec.class_name == "table":
        slab_center = np.array(
            [placement.x, placement.y, spec.height - TABLE_SLAB_THICKNESS / 2.0]
        )
        slab = OrientedBox3(
            slab_center,
            (spec.length, spec.width, TABLE_SLAB_THICKNESS),
            placement.yaw,
            frame="ips",
        )
        stem_height = spec.height - TABLE_SLAB_THICKNESS
        stem_center = np.array([placement.x, placement.y, stem_height / 2.0])
        stem = OrientedBox3(
            stem_center,
            (TABLE_STEM_WIDTH, TABLE_STEM_WIDTH, stem_height),
            placement.yaw,
            frame="ips",
        )
        return [slab, stem]
    return [true_object_box_ips(placement)]


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


def _box_to_frame(box: OrientedBox3, t: RigidTransform) -> OrientedBox3:
    return box_from_vertices(t.apply(box.vertices()), frame=t.dst)


# ---------------------------------------------------------------------------
# LiDAR ray casting


def _lidar_directions(cfg: LidarConfig) -> np.ndarray:
    elevations = np.radians(np.linspace(cfg.vfov_min_deg, cfg.vfov_max_deg, cfg.channels))
    n_az = int(round(360.0 / cfg.azimuth_step_deg))
    azimuths = np.radians(np.arange(n_az) * cfg.azimuth_step_deg)
    ce, se = np.cos(elevations), np.sin(elevations)
    ca, sa = np.cos(azimuths), np.sin(azimuths)
    # channel-major layout: ray (channel i, azimuth j) at row i * n_az + j
    dx = np.outer(ce, ca).ravel()
    dy = np.outer(ce, sa).ravel()
    dz = np.repeat(se, n_az)
    return np.column_stack([dx, dy, dz])


def raycast_lidar(scene: SceneConfig, pose) -> PointCloud:
    """Nearest-hit ray cast against object solids and the floor.

    Rays start at the LiDAR origin; each returns the closest intersection
    with any object face or the ground plane within max range, so
    surfaces facing away from the sensor receive no points.
    """
    chain = true_transforms(scene, pose)["lidar_from_ips"]
    solids = [
        _box_to_frame(solid, chain)
        for placement in scene.objects
        for solid in _solid_boxes_ips(placement)
    ]
    ground_z = float(chain.apply(np.array([pose[0], pose[1], scene.floor_z]))[2])
    dirs = _lidar_directions(scene.lidar)
    best = np.full(dirs.shape[0], np.inf)
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = ground_z / dz
    t_ground = np.where((dz < 0) & (t_ground > 1e-9), t_ground, np.inf)
    best = np.minimum(best, t_ground)
    for solid in solids:
        best = np.minimum(best, solid.ray_entry(dirs))
    valid = best <= scene.lidar.max_range
    points = dirs[valid] * best[valid][:, None]
    return PointCloud(points, frame="lidar")


# ---------------------------------------------------------------------------
# Beacon and pixel measurements


@dataclass(frozen=True)
class BeaconReading:
    noisy: BeaconPair
    clean: BeaconPair


def emit_beacons(scene: SceneConfig, pose, seed: int, index: int) -> dict:
    """Noisy beacon readings per frame: {"robot": [...], "obj0": [...], ...}.

    Each frame gets ``scene.collection_readings`` readings. Noise is per-axis
    uniform in [-b, +b]. Draw order is fixed (reading, then frame, then
    front/rear), so outputs are reproducible.
    """
    rng = substream(seed, NS_BEACON, index)
    clean = {"robot": robot_beacons(scene, pose)}
    for placement in scene.objects:
        clean[placement.object_id] = object_beacons(placement)
    out = {frame: [] for frame in clean}
    for _ in range(scene.collection_readings):
        for frame, pair in clean.items():
            out[frame].append(_noisy_reading(pair, scene.beacon_noise, rng))
    return {frame: tuple(rs) for frame, rs in out.items()}


def _noisy_reading(pair: BeaconPair, b: float, rng) -> BeaconReading:
    """One reading of ``pair``: per-axis uniform noise in [-b, +b], front first."""
    front = pair.front + rng.uniform(-b, b, size=3)
    rear = pair.rear + rng.uniform(-b, b, size=3)
    return BeaconReading(BeaconPair(front, rear), pair)


# ---------------------------------------------------------------------------
# Ground-truth samples


@dataclass(frozen=True)
class GroundTruthSample:
    sample_id: str
    robot_pose: tuple
    readings: dict
    cloud: PointCloud
    truth_objects: tuple  # label-schema dicts with truth extras
    t_robot_from_ips: RigidTransform  # clean


def make_sample(scene: SceneConfig, seed: int, index: int) -> GroundTruthSample:
    pose = robot_pose_for_sample(scene, seed, index)
    chain = true_transforms(scene, pose)
    readings = emit_beacons(scene, pose, seed, index)
    cloud = raycast_lidar(scene, pose)
    entries = []
    for placement in scene.objects:
        box_ips = true_object_box_ips(placement)
        entry = label_entry(
            placement.object_id,
            placement.spec.class_name,
            _box_to_frame(box_ips, chain["lidar_from_ips"]),
            box_to_camera(box_ips, scene.cam_from_robot, chain["robot_from_ips"]),
            scene.intrinsics,
        )
        entry["box3d_ips"] = box_ips.to_dict()
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
    robot_readings: tuple  # BeaconReading
    robot_pose: tuple
    cam_from_robot: RigidTransform  # truth
    t_robot_from_ips: RigidTransform  # clean


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
        z = scene.floor_z if tag == "floor" else scene.table_z
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
    clean_pair = robot_beacons(scene, pose)
    robot_reads = tuple(
        _noisy_reading(clean_pair, scene.beacon_noise, rng)
        for _ in range(scene.calibration_readings)
    )
    return CalibrationSet(
        correspondences=tuple(corrs),
        robot_readings=robot_reads,
        robot_pose=pose,
        cam_from_robot=scene.cam_from_robot,
        t_robot_from_ips=chain["robot_from_ips"],
    )


# ---------------------------------------------------------------------------
# File rendering (pure text, written atomically by generate_dataset)


def beacons_csv(readings: dict) -> str:
    lines = ["frame,beacon_id,x,y,z,clean_x,clean_y,clean_z"]
    frames = list(readings)
    n_readings = len(readings[frames[0]])
    for r in range(n_readings):
        for frame in frames:
            reading = readings[frame][r]
            for beacon_id, noisy, clean in (
                ("front", reading.noisy.front, reading.clean.front),
                ("rear", reading.noisy.rear, reading.clean.rear),
            ):
                vals = [repr(float(v)) for v in (*noisy, *clean)]
                lines.append(f"{frame},{beacon_id}," + ",".join(vals))
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, header: str, numeric: slice, what: str):
    """(line number, fields, ``numeric`` fields as finite floats) of each row
    after ``header``, skipping blank lines; a bad row is a UsageError naming it."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise UsageError(f"{what} CSV must start with header {header!r}")
    width = header.count(",") + 1
    for line_no, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"expected {width} fields, got {len(parts)}")
            values = [float(v) for v in parts[numeric]]
            if not all(map(math.isfinite, values)):
                raise ValueError("non-finite value")
        except ValueError as e:
            raise UsageError(f"{what} CSV line {line_no}: {e}") from None
        yield line_no, parts, values


def parse_beacons_csv(text: str) -> dict:
    """Inverse of beacons_csv: {"frame": [BeaconReading, ...]}."""
    header = "frame,beacon_id,x,y,z,clean_x,clean_y,clean_z"
    rows = {}
    for line_no, (frame, beacon_id, *_), vals in _csv_rows(text, header, slice(2, 8), "beacon"):
        if beacon_id not in ("front", "rear"):
            raise UsageError(
                f"beacon CSV line {line_no}: beacon_id must be front or rear, got {beacon_id!r}"
            )
        rows.setdefault(frame, {"front": [], "rear": []})
        rows[frame][beacon_id].append((np.array(vals[:3]), np.array(vals[3:])))
    out = {}
    for frame, sides in rows.items():
        if len(sides["front"]) != len(sides["rear"]):
            raise UsageError(f"frame {frame!r} has unpaired beacon rows")
        readings = []
        for (fn, fc), (rn, rc) in zip(sides["front"], sides["rear"]):
            readings.append(BeaconReading(BeaconPair(fn, rn), BeaconPair(fc, rc)))
        out[frame] = readings
    return out


def correspondences_csv(corrs) -> str:
    lines = ["beacon_x,beacon_y,beacon_z,u,v,plane_tag"]
    for c in corrs:
        vals = [repr(float(v)) for v in (*c.beacon_ips, *c.pixel)]
        lines.append(",".join(vals) + f",{c.plane_tag}")
    return "\n".join(lines) + "\n"


def parse_correspondences_csv(text: str) -> list:
    header = "beacon_x,beacon_y,beacon_z,u,v,plane_tag"
    out = []
    for _, parts, vals in _csv_rows(text, header, slice(0, 5), "correspondence"):
        out.append(Correspondence(vals[:3], vals[3:5], parts[5]))
    return out


def _transform_row_major(t: RigidTransform) -> list:
    return [float(v) for v in t.matrix.reshape(-1)]


def _truth_json(sample: GroundTruthSample) -> str:
    doc = labels_to_dict(sample.sample_id, list(sample.truth_objects))
    doc["robot"] = {
        "pose": [float(v) for v in sample.robot_pose],
        "t_robot_from_ips": _transform_row_major(sample.t_robot_from_ips),
    }
    return dump_json(doc)


def render_sample_files(scene: SceneConfig, seed: int, index: int) -> dict:
    """All files of one sample as {relative path: bytes}."""
    sample = make_sample(scene, seed, index)
    sid = sample.sample_id
    return {
        f"samples/{sid}/cloud.ply": write_ply(sample.cloud),
        f"samples/{sid}/beacons.csv": beacons_csv(sample.readings).encode("utf-8"),
        f"truth/{sid}.json": _truth_json(sample).encode("utf-8"),
    }


def render_calibration_files(calset: CalibrationSet) -> dict:
    return {
        "calibration/correspondences.csv": correspondences_csv(calset.correspondences),
        "calibration/robot_beacons.csv": beacons_csv(
            {"robot": calset.robot_readings}
        ),
    }


def manifest_json(scene: SceneConfig, seed: int, n_samples: int, calset: CalibrationSet) -> str:
    return dump_json(
        {
            "format": "ipslabel-dataset-v1",
            "seed": int(seed),
            "n_samples": int(n_samples),
            "scene": to_dict(scene),
            "calibration_truth": {
                "cam_from_robot": _transform_row_major(scene.cam_from_robot),
                "robot_pose": [float(v) for v in calset.robot_pose],
            },
        }
    )


def generate_dataset(
    scene: SceneConfig, out_dir: str, n_samples: int, seed: int, jobs: int = 1
) -> None:
    """Write the full dataset tree; byte-identical for a given seed.

    With jobs > 1 samples are rendered in parallel worker processes, but
    the parent performs every write in sample order, so the tree is
    identical to a sequential run.
    """
    import os

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    require_empty_dir(out_dir, "simulate")
    calset = make_calibration_set(scene, seed)  # first, so a rig that sees no target writes nothing
    rendered = ordered_map(partial(render_sample_files, scene, seed), range(n_samples), jobs)
    for files in rendered:
        for rel, data in sorted(files.items()):
            atomic_write_bytes(os.path.join(out_dir, rel), data)
    for rel, text in sorted(render_calibration_files(calset).items()):
        atomic_write_text(os.path.join(out_dir, rel), text)
    atomic_write_text(
        os.path.join(out_dir, "manifest.json"), manifest_json(scene, seed, n_samples, calset)
    )
