"""Rigid transforms, pinhole projection and beacon-pair frame construction.

Conventions:
  - A ``RigidTransform`` with ``src=A, dst=B`` maps coordinates of a point
    expressed in frame A to coordinates in frame B: ``p_B = R @ p_A + t``.
  - Frames are named by strings: ``ips``, ``robot``, ``cam``, ``lidar``,
    ``obj0``, ``obj1``, ...
  - Beacon frames are 4-DOF: position plus yaw. Their z axis is the global
    IPS z axis by construction; roll and pitch are identically zero.

Beacon frames follow the literal two-beacon construction: both z
coordinates are replaced by their mean, x points from the rear beacon to
the front beacon, z is (0, 0, 1), and y = x × z. Note that this yields an
orthonormal basis with det = -1; consumers must not assume beacon-derived
rotations are proper. Calibrated transforms (camera, LiDAR mounts) are
proper rotations.

A sample's or the calibration run's beacon readings are stored as
``beacons.csv`` (see beacons_csv and parse_beacons_csv).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateBeaconPair, EmptyReadings, FrameMismatch, UsageError
from .fileio import _csv_rows, csv_numbers

if TYPE_CHECKING:
    from .config import CameraIntrinsics

# |R^T R - I| of every rotation; compose() re-orthonormalizes a product whose
# drift exceeds half of it, so two accepted factors always compose.
ORTHONORMALITY_TOL = 1e-9

EPS_BEACON = 1e-3  # meters; minimum planar beacon separation
MIN_DEPTH = 1e-6  # meters; camera-frame z below this counts as behind the camera

# Most hypothesis x point tests that calib's batched RANSAC loop evaluates in
# one array; it bounds its buffers to a few MB.
CHUNK_TESTS = 1 << 16

VEC3 = tuple[float, float, float]


def chunks(count: int, points: int, tests: int = CHUNK_TESTS):
    """Consecutive slices of ``count`` hypotheses scored on ``points`` points
    each, at most ``tests`` tests per slice (or one hypothesis)."""
    step = max(1, tests // max(1, points))
    for lo in range(0, count, step):
        yield slice(lo, min(count, lo + step))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v (n, k)."""
    # Stacked dots give the bits of 1-D np.linalg.norm (BLAS ddot); norms along axis=1 do not.
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def frozen(values, shape) -> np.ndarray:
    """A read-only float64 copy of ``values`` in ``shape``; ``values`` itself
    stays as it was, writable or not."""
    a = np.array(values, dtype=float).reshape(shape)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RigidTransform:
    """SE(3)-style transform tagged with source and destination frames.

    ``rotation`` is a 3x3 orthonormal matrix (R^T R = I within 1e-9).
    Beacon-derived frames may carry det(R) = -1; see module docstring.
    """

    rotation: np.ndarray
    translation: np.ndarray
    src: str
    dst: str

    def __post_init__(self):
        rot = frozen(self.rotation, (3, 3))
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"rotation not orthonormal (|R^T R - I| = {err:.3e})")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", frozen(self.translation, 3))

    # Dict form: rotation rows and translation; the reader supplies the frames.
    FORM = {"rotation": tuple[VEC3, VEC3, VEC3], "translation": VEC3}

    @classmethod
    def from_dict(cls, d: dict, src: str, dst: str) -> "RigidTransform":
        return cls(d["rotation"], d["translation"], src=src, dst=dst)

    @classmethod
    def identity(cls, frame: str) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3), src=frame, dst=frame)

    @classmethod
    def from_matrix(cls, m, src: str, dst: str) -> "RigidTransform":
        m = np.asarray(m, dtype=float).reshape(4, 4)
        if np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-9:
            raise ValueError("last row of a homogeneous transform must be [0 0 0 1]")
        return cls(m[:3, :3], m[:3, 3], src=src, dst=dst)

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous form."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points) -> np.ndarray:
        """Map points from ``src`` into ``dst``. Accepts (3,) or (N, 3)."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Chain two transforms: ``b`` maps X->Y, ``a`` maps Y->Z, result maps X->Z."""
    if b.dst != a.src:
        raise FrameMismatch(
            f"cannot chain {b.src}->{b.dst} into {a.src}->{a.dst}"
        )
    rot = a.rotation @ b.rotation
    tra = a.rotation @ b.translation + a.translation
    drift = np.abs(rot.T @ rot - np.eye(3)).max()
    if drift > ORTHONORMALITY_TOL / 2:
        # Nearest orthonormal matrix, preserving handedness of the product.
        u, _, vt = np.linalg.svd(rot)
        d = np.sign(np.linalg.det(u @ vt))
        rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return RigidTransform(rot, tra, src=b.src, dst=a.dst)


def inverse(t: RigidTransform) -> RigidTransform:
    """Swap frames: R -> R^T, t -> -R^T t."""
    rot = t.rotation.T
    return RigidTransform(rot, -rot @ t.translation, src=t.dst, dst=t.src)


def _project_cam(intr: CameraIntrinsics, pts_cam: np.ndarray):
    """Pinhole projection of camera-frame points (..., 3) to pixels (..., 2).
    No depth checks: a caller keeps the points past MIN_DEPTH."""
    z = pts_cam[..., 2]
    u = intr.fx * pts_cam[..., 0] / z + intr.cx
    v = intr.fy * pts_cam[..., 1] / z + intr.cy
    return np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class BeaconPair:
    """Front and rear beacon positions, meters, global IPS frame."""

    front: np.ndarray
    rear: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "front", frozen(self.front, 3))
        object.__setattr__(self, "rear", frozen(self.rear, 3))


def frame_from_beacons(pair: BeaconPair, frame: str = "frame") -> RigidTransform:
    """Build the 4-DOF beacon frame; returns the frame->ips transform.

    Both z coordinates are first replaced by their mean, so the frame's
    xy-plane is parallel to the IPS xy-plane. The x axis points from the
    rear beacon to the front beacon, z is (0, 0, 1), y = x cross z, and
    the front beacon is the frame origin.
    """
    z_mean = 0.5 * (pair.front[2] + pair.rear[2])
    front = np.array([pair.front[0], pair.front[1], z_mean])
    rear = np.array([pair.rear[0], pair.rear[1], z_mean])
    delta = front - rear
    norm = np.linalg.norm(delta)
    if norm <= EPS_BEACON:
        raise DegenerateBeaconPair(
            f"planar beacon separation {norm:.3e} m <= {EPS_BEACON:.3e} m"
        )
    x_axis = delta / norm
    z_axis = np.array([0.0, 0.0, 1.0])
    y_axis = np.cross(x_axis, z_axis)
    rot = np.column_stack([x_axis, y_axis, z_axis])
    return RigidTransform(rot, front, src=frame, dst="ips")


def beacon_yaw(pair: BeaconPair) -> float:
    """Heading of the rear-to-front direction, radians in (-pi, pi].

    A pair that frame_from_beacons would reject (planar separation at or
    below EPS_BEACON) has no heading either.
    """
    d = pair.front[:2] - pair.rear[:2]
    norm = np.hypot(d[0], d[1])
    if norm <= EPS_BEACON:
        raise DegenerateBeaconPair(
            f"planar beacon separation {norm:.3e} m <= {EPS_BEACON:.3e} m"
        )
    return float(np.arctan2(d[1], d[0]))


def average_beacon_readings(readings) -> BeaconPair:
    """Component-wise mean of a sequence of readings (BeaconPairs)."""
    if not readings:
        raise EmptyReadings("no beacon readings")
    front = np.mean([r.front for r in readings], axis=0)
    rear = np.mean([r.rear for r in readings], axis=0)
    return BeaconPair(front, rear)


# ---------------------------------------------------------------------------
# beacons.csv: the readings of a sample or of the calibration run


def beacons_csv(readings: dict) -> str:
    """{"frame": [BeaconPair, ...]} as CSV text; every frame has as many readings."""
    lines = ["frame,beacon_id,x,y,z"]
    frames = list(readings)
    for r in range(len(readings[frames[0]])):
        for frame in frames:
            pair = readings[frame][r]
            for beacon_id, position in (("front", pair.front), ("rear", pair.rear)):
                where = f"beacon CSV line {len(lines) + 1}"
                lines.append(f"{frame},{beacon_id}," + csv_numbers(position, where))
    return "\n".join(lines) + "\n"


def parse_beacons_csv(text: str) -> dict:
    """Inverse of beacons_csv: {"frame": [BeaconPair, ...]}."""
    header = "frame,beacon_id,x,y,z"
    rows = {}
    for line_no, (frame, beacon_id, *_), vals in _csv_rows(text, header, slice(2, 5), "beacon"):
        if beacon_id not in ("front", "rear"):
            raise UsageError(
                f"beacon CSV line {line_no}: beacon_id must be front or rear, got {beacon_id!r}"
            )
        rows.setdefault(frame, {"front": [], "rear": []})[beacon_id].append(vals)
    out = {}
    for frame, sides in rows.items():
        if len(sides["front"]) != len(sides["rear"]):
            raise UsageError(f"frame {frame!r} has unpaired beacon rows")
        out[frame] = [BeaconPair(f, r) for f, r in zip(sides["front"], sides["rear"])]
    return out


def _robot_transform_from_readings(readings: dict, path: str, objects=()) -> RigidTransform:
    """robot <- ips from the averaged 'robot' rows of parsed beacons.csv ``path``,
    whose other frames must be among the ids ``objects``."""
    unknown = sorted(set(readings) - {"robot", *objects})
    if unknown:
        what = "name neither 'robot' nor a rig object" if objects else "are not 'robot'"
        raise UsageError(f"{path}: frame(s) {unknown} {what}")
    if "robot" not in readings:
        raise UsageError(f"{path} has no 'robot' frame rows")
    pair = average_beacon_readings(readings["robot"])
    return inverse(frame_from_beacons(pair, frame="robot"))
