"""Label generation: oriented boxes from beacon poses and their projections.

The 3D pipeline is: beacon pair -> IPS-frame box (object center is the
beacon midpoint dropped by half the object height) -> camera-frame
vertices via the calibrated chain -> LiDAR-frame yaw box. The 2D pipeline
projects the camera-frame vertices and takes pixel extrema.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import CameraIntrinsics, ObjectSpec, _manifest_rig
from .errors import (
    AllVerticesBehindCamera, DegenerateBeaconPair, EmptyReadings, FrameMismatch, UsageError,
    error_text,
)
from .fileio import (
    _sample_ids, atomic_write_text, dump_json, from_dict, read_input, read_json, require_empty_dir,
    to_dict,
)
from .geom import (
    MIN_DEPTH, VEC3, BeaconPair, RigidTransform, _project_cam, _robot_transform_from_readings,
    average_beacon_readings, beacon_yaw, compose, frozen, parse_beacons_csv,
)

# Vertex order: bottom face counter-clockwise (viewed from +z) starting at
# front-left, then the top face in the same x/y order.
#   0 FL-bottom  1 RL-bottom  2 RR-bottom  3 FR-bottom
#   4 FL-top     5 RL-top     6 RR-top     7 FR-top
_CORNER_SIGNS = np.array(
    [
        [+1.0, +1.0, -1.0],
        [-1.0, +1.0, -1.0],
        [-1.0, -1.0, -1.0],
        [+1.0, -1.0, -1.0],
        [+1.0, +1.0, +1.0],
        [-1.0, +1.0, +1.0],
        [-1.0, -1.0, +1.0],
        [+1.0, -1.0, +1.0],
    ]
)
_FRONT = (0, 3, 4, 7)
_REAR = (1, 2, 5, 6)
_LEFT = (0, 1, 4, 5)
_RIGHT = (2, 3, 6, 7)
_TOP = (4, 5, 6, 7)
_BOTTOM = (0, 1, 2, 3)


def normalize_yaw(yaw: float) -> float:
    """Wrap into (-pi, pi]; a yaw already in it comes back unchanged."""
    if -math.pi < yaw <= math.pi:
        return float(yaw)
    y = yaw - 2.0 * math.pi * math.floor((yaw + math.pi) / (2.0 * math.pi))
    if y <= -math.pi:
        y = math.pi
    return float(y)


def _yaw_rotations(yaws) -> np.ndarray:
    """(B, 3, 3) rotations about +z, from math.cos / math.sin of each yaw."""
    cos = np.array([math.cos(yaw) for yaw in yaws])
    sin = np.array([math.sin(yaw) for yaw in yaws])
    zero, one = np.zeros_like(cos), np.ones_like(cos)
    return np.stack([cos, -sin, zero, sin, cos, zero, zero, zero, one], axis=1).reshape(-1, 3, 3)


def ray_entries(centers, yaws, dims, dirs) -> np.ndarray:
    """``OrientedBox3.ray_entry`` of the yaw boxes (centers[b], dims,
    yaws[b]), shape (B, N): the slab-method entry distance of each ray from
    the origin along ``dirs`` (N, 3), in units of its direction; inf for
    misses and for rays that start inside the box.

    ``yaws`` are taken as given (``OrientedBox3`` normalizes its yaw), and
    each rotation is built from math.cos / math.sin as the box's own, so a
    row has the bits of that box's ``ray_entry``, a B = 1 call.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    rotations = _yaw_rotations(yaws)
    origin_local = ((-centers)[:, None] @ rotations)[:, 0]
    d_local = rotations.transpose(0, 2, 1) @ dirs.T  # (B, 3, N): axis rows stay contiguous
    half = np.asarray(dims, dtype=float).reshape(3) / 2.0
    for k in range(3):
        dk = d_local[:, k]
        ok = origin_local[:, k, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half[k] - ok) / dk
            t2 = (half[k] - ok) / dk
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2, out=t1)
        parallel = np.abs(dk) < 1e-15
        if parallel.any():
            # a ray parallel to the slab lies wholly in it or wholly outside it
            within = np.where(np.abs(ok) <= half[k], np.inf, -np.inf)
            np.copyto(lo, -within, where=parallel)
            np.copyto(hi, within, where=parallel)
        if k == 0:
            near, far = lo, hi
        else:
            np.maximum(near, lo, out=near)
            np.minimum(far, hi, out=far)
    return np.where((far >= near) & (near > 1e-9), near, np.inf)


@dataclass(frozen=True)
class OrientedBox3:
    """Yaw-only oriented box: center, (l, w, h) dims, rotation about +z."""

    center: np.ndarray
    dims: np.ndarray
    yaw: float
    frame: str = "lidar"

    def __post_init__(self):
        d = frozen(self.dims, 3)
        if not np.all(d > 0):
            raise ValueError(f"box dims must be positive, got {d}")
        object.__setattr__(self, "center", frozen(self.center, 3))
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    @property
    def rotation(self) -> np.ndarray:
        return _yaw_rotations([self.yaw])[0]

    def vertices(self) -> np.ndarray:
        """The 8 corners in the documented order, shape (8, 3)."""
        local = _CORNER_SIGNS * (self.dims / 2.0)
        return local @ self.rotation.T + self.center

    def ray_entry(self, dirs: np.ndarray) -> np.ndarray:
        """Slab-method entry distance of each ray from the origin along
        ``dirs`` (N, 3), in units of its direction; inf for misses and for
        rays that start inside the box (``ray_entries`` of this one box)."""
        return ray_entries(self.center[None], [self.yaw], self.dims, dirs)[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.dims))

    # Dict form: the frame is the reader's to supply.
    FORM = {"center": VEC3, "dims": VEC3, "yaw": float}

    @classmethod
    def from_dict(cls, d: dict, frame: str = "lidar") -> "OrientedBox3":
        return cls(d["center"], d["dims"], d["yaw"], frame=frame)


def box_from_vertices(vertices, frame: str) -> OrientedBox3:
    """Refit a yaw box from 8 corners in the documented vertex order.

    Dims come from opposing face-center distances and yaw from the
    horizontal direction of the length axis, so small roll/pitch picked up
    through a transform chain is projected out (center and footprint yaw
    are preserved; this is a lossy re-levelling). The result is also
    independent of the handedness of the transform that produced the
    vertices.
    """
    v = np.asarray(vertices, dtype=float).reshape(8, 3)
    center = v.mean(axis=0)
    length_vec = v[list(_FRONT)].mean(axis=0) - v[list(_REAR)].mean(axis=0)
    width_vec = v[list(_LEFT)].mean(axis=0) - v[list(_RIGHT)].mean(axis=0)
    height_vec = v[list(_TOP)].mean(axis=0) - v[list(_BOTTOM)].mean(axis=0)
    dims = (
        float(np.linalg.norm(length_vec)),
        float(np.linalg.norm(width_vec)),
        float(np.linalg.norm(height_vec)),
    )
    if np.hypot(length_vec[0], length_vec[1]) < 1e-12:
        raise ValueError("length axis is vertical; yaw undefined")
    yaw = math.atan2(length_vec[1], length_vec[0])
    return OrientedBox3(center, dims, yaw, frame=frame)


@dataclass(frozen=True)
class Box2:
    """Axis-aligned pixel box, clamped to the image."""

    u0: float
    v0: float
    u1: float
    v1: float

    def __post_init__(self):
        if self.u0 > self.u1 or self.v0 > self.v1:
            raise ValueError("Box2 corners must satisfy u0 <= u1, v0 <= v1")

    @property
    def area(self) -> float:
        return (self.u1 - self.u0) * (self.v1 - self.v0)


def object_box_ips(pair: BeaconPair, spec: ObjectSpec) -> OrientedBox3:
    """IPS-frame box from an object's beacon pair and measured dims.

    Beacons sit on the top surface along the object's x axis, so the
    center is the beacon midpoint dropped by height/2, and yaw is the
    rear-to-front beacon heading.
    """
    mid = 0.5 * (pair.front + pair.rear)
    center = mid - np.array([0.0, 0.0, spec.height / 2.0])
    return OrientedBox3(center, spec.dims, beacon_yaw(pair), frame="ips")


def box_to_camera(
    box: OrientedBox3,
    t_cam_from_robot: RigidTransform,
    t_robot_from_ips: RigidTransform,
) -> np.ndarray:
    """All 8 box vertices expressed in the camera frame, shape (8, 3)."""
    if box.frame != t_robot_from_ips.src:
        raise FrameMismatch(
            f"box is in frame {box.frame!r}, transform consumes {t_robot_from_ips.src!r}"
        )
    chain = compose(t_cam_from_robot, t_robot_from_ips)
    return chain.apply(box.vertices())


def project_box(vertices_cam, intr: CameraIntrinsics) -> tuple:
    """(2D box, truncated, behind) from pixel extrema of the projected vertices.

    Vertices behind the camera are excluded from the extrema and counted in
    ``behind``; the box is clamped to the image bounds, and ``truncated`` is
    True when clamping changed anything.
    """
    v = np.asarray(vertices_cam, dtype=float).reshape(-1, 3)
    front = v[:, 2] > MIN_DEPTH
    behind = int((~front).sum())
    if not front.any():
        raise AllVerticesBehindCamera(f"all {len(v)} vertices have depth <= {MIN_DEPTH}")
    uv = _project_cam(intr, v[front])
    u0, v0 = uv.min(axis=0)
    u1, v1 = uv.max(axis=0)
    cu0 = min(max(u0, 0.0), float(intr.width))
    cu1 = min(max(u1, 0.0), float(intr.width))
    cv0 = min(max(v0, 0.0), float(intr.height))
    cv1 = min(max(v1, 0.0), float(intr.height))
    truncated = (cu0, cv0, cu1, cv1) != (u0, v0, u1, v1)
    return Box2(cu0, cv0, cu1, cv1), truncated, behind


def box_to_lidar(vertices_cam, t_lidar_from_cam: RigidTransform) -> OrientedBox3:
    """LiDAR-frame yaw box refit from transformed camera-frame (in sim, IPS-frame) vertices."""
    v = t_lidar_from_cam.apply(np.asarray(vertices_cam, dtype=float).reshape(8, 3))
    return box_from_vertices(v, frame=t_lidar_from_cam.dst)


# ---------------------------------------------------------------------------
# Label JSON schema (one file per sample):
# {"sample": id, "objects": [{"id", "class", "box3d_lidar": {center,dims,yaw},
#                             "box2d": {...}|null, "truncated", "refined", ...}]}


def labels_to_dict(sample_id: str, objects: list) -> dict:
    return {"sample": sample_id, "objects": objects}


def label_objects(doc: dict) -> list:
    """(entry, 3D box or None, 2D box or None) for each object of a label document.

    Every entry needs a string ``class``; its ``id`` (a string),
    ``box3d_lidar`` and ``box2d`` may be missing or null, and an entry with an
    ``error`` has no boxes. A missing key or a value of the wrong type raises
    KeyError, TypeError or ValueError; a bad box names its dotted key, e.g.
    ``objects[0].box2d.u0`` (see fileio.from_dict).
    """
    out = []
    for i, entry in enumerate(doc["objects"]):
        if not isinstance(entry["class"], str) or not isinstance(entry.get("id", ""), str):
            raise TypeError(f"label object {entry.get('id')!r}: 'class' and 'id' must be strings")
        if "error" in entry:
            out.append((entry, None, None))
            continue
        boxes = (
            None if entry.get(key) is None else from_dict(typ, entry[key], f"objects[{i}].{key}")
            for key, typ in (("box3d_lidar", OrientedBox3), ("box2d", Box2))
        )
        out.append((entry, *boxes))
    return out


def label_entry(
    object_id: str, class_name: str, box3d_lidar: OrientedBox3, vertices_cam, intr
) -> dict:
    """The unrefined label entry of one object: its LiDAR box and the 2D box
    of its camera-frame vertices, or ``box2d: null`` with ``box2d_reason:
    "behind_camera"`` when every vertex is behind the camera."""
    entry = {"id": object_id, "class": class_name, "box3d_lidar": to_dict(box3d_lidar)}
    try:
        box2, truncated, behind = project_box(vertices_cam, intr)
    except AllVerticesBehindCamera:
        entry.update(
            box2d=None, truncated=False, behind_camera_vertices=None, box2d_reason="behind_camera"
        )
    else:
        entry.update(box2d=to_dict(box2), truncated=truncated, behind_camera_vertices=behind)
    entry["refined"] = False
    return entry


def _entry_spec(entry: dict, specs: dict, label_path: str) -> ObjectSpec:
    """The manifest spec of a label entry, whose ``id`` must name an object of its class."""
    spec = specs.get(entry.get("id"))
    if spec is None or spec.class_name != entry["class"]:
        raise UsageError(
            f"{label_path}: label object {entry.get('id')!r} of class {entry['class']!r} "
            "names no manifest object of that class"
        )
    return spec


def _generate_sample(dataset, rig, extrinsic, sid) -> str:
    beacons_path = os.path.join(dataset, "samples", sid, "beacons.csv")
    readings = read_input(beacons_path, parse_beacons_csv)
    t_robot_from_ips = _robot_transform_from_readings(readings, beacons_path, rig.objects)
    lidar_from_cam, intr = rig.lidar_from_cam, rig.intrinsics
    entries = []
    for object_id, spec in rig.objects.items():
        try:
            pair = average_beacon_readings(readings.get(object_id, ()))
            box_ips = object_box_ips(pair, spec)
            verts_cam = box_to_camera(box_ips, extrinsic, t_robot_from_ips)
            box_lidar = box_to_lidar(verts_cam, lidar_from_cam)
            entries.append(label_entry(object_id, spec.class_name, box_lidar, verts_cam, intr))
        except (DegenerateBeaconPair, EmptyReadings) as e:
            entries.append({"id": object_id, "class": spec.class_name, "error": error_text(e)})
    return dump_json(labels_to_dict(sid, entries))


def _extrinsic_from_report(path: str) -> RigidTransform:
    """The cam <- robot extrinsic of the calibration report at ``path``."""

    def parse(report):
        matrix = from_dict(tuple[(float,) * 16], report["extrinsic"], "extrinsic")
        return RigidTransform.from_matrix(matrix, src="robot", dst="cam")

    return read_json(path, parse)


def write_labels(dataset: str, calibration: str, out: str) -> int:
    """The generate stage: write the label file of each sample of ``dataset``,
    given the calibration report ``calibration``, into the empty or new
    directory ``out``; returns the number of files. It runs in one process,
    whatever ``--jobs`` says: a sample's labels take about a millisecond, less
    than a worker's start-up (see refine.write_refined_labels)."""
    require_empty_dir(out, "generate")
    rig = _manifest_rig(os.path.join(dataset, "manifest.json"))
    sids = _sample_ids(dataset)
    extrinsic = _extrinsic_from_report(calibration)
    # every sample is labelled before the first file is written: a bad one writes none
    texts = [_generate_sample(dataset, rig, extrinsic, sid) for sid in sids]
    for sid, text in zip(sids, texts):
        atomic_write_text(os.path.join(out, f"{sid}.json"), text)
    return len(sids)
