"""Point-cloud label refinement via generalized RANSAC.

Each iteration samples a class-specific model proposal function (MPF) and
the few points it needs, builds a candidate box of the object's known
dimensions tangent to the fitted ground plane, and scores it by counting
cloud points inside a +-delta shell around the box surface. The best
proposal wins; strict improvement keeps the earliest best.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .errors import (
    AllProposalsDegenerate,
    ConfigError,
    DegenerateSample,
    EmptyNeighborhood,
    NoPlaneFound,
    TooFewPoints,
)
from .labelgen import ObjectSpec, OrientedBox3
from .rng import NS_PLANE_RANSAC, NS_REFINE, substream

_MIN_SEPARATION = 1e-6  # meters between projected sample points


@dataclass(frozen=True)
class GroundPlane:
    """Plane n . p = d with unit normal pointing up."""

    normal: np.ndarray
    d: float

    def __post_init__(self):
        n = np.array(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-9:
            n = n / norm
        if n[2] <= 0:
            raise ValueError("ground plane normal must point up (n_z > 0)")
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "d", float(self.d))

    def height(self, points) -> np.ndarray:
        """Signed distance above the plane."""
        return np.asarray(points, dtype=float) @ self.normal - self.d

    def project(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        h = self.height(p)
        if p.ndim == 1:
            return p - h * self.normal
        return p - h[:, None] * self.normal


class MpfKind(enum.Enum):
    """Model proposal functions and the point count each one samples."""

    CABINET_LEFT_FRONT = "cabinet_left_front"
    CABINET_RIGHT_FRONT = "cabinet_right_front"
    CABINET_TWO_POINT_FACE = "cabinet_two_point_face"
    TABLE_STEM = "table_stem"

    @property
    def sample_size(self) -> int:
        return 2 if self is MpfKind.CABINET_TWO_POINT_FACE else 3


CLASS_KINDS = {
    "cabinet": (
        MpfKind.CABINET_LEFT_FRONT,
        MpfKind.CABINET_RIGHT_FRONT,
        MpfKind.CABINET_TWO_POINT_FACE,
    ),
    "table": (MpfKind.TABLE_STEM,),
}


def kinds_for_class(class_name: str):
    try:
        return CLASS_KINDS[class_name]
    except KeyError:
        known = "; ".join(
            f"{cls}: {', '.join(k.value for k in kinds)}"
            for cls, kinds in sorted(CLASS_KINDS.items())
        )
        raise ConfigError(
            f"no model proposal functions for class {class_name!r}; available: {known}"
        ) from None


@dataclass(frozen=True)
class RefineConfig:
    radius: float = 1.5  # neighborhood around the unrefined center, meters
    shell_delta: float = 0.05  # shell half-thickness, meters
    iterations: int = 5000
    ground_threshold: float = 0.03  # plane inlier / ground strip distance, meters
    table_min_height: float = 0.3  # drop points below this height for tables
    plane_iterations: int = 100
    # Set per object by the caller, so it is not part of the config file.
    seed: int = field(default=0, metadata={"dict": False})

    def __post_init__(self):
        for name in (
            "radius",
            "shell_delta",
            "iterations",
            "ground_threshold",
            "table_min_height",
            "plane_iterations",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"RefineConfig.{name} must be positive")


def fit_ground_plane(pcd: PointCloud, cfg: RefineConfig) -> GroundPlane:
    """Three-point RANSAC plane fit, least-squares refit on the inliers.

    Hypotheses tilted more than ~60 degrees from horizontal are rejected:
    a ground plane faces up, and without this guard a densely scanned
    vertical object face can out-vote the floor.
    """
    pts = pcd.points
    n = len(pts)
    if n < 3:
        raise TooFewPoints(f"plane fit needs >= 3 points, got {n}")
    best_count = 0
    best_mask = None
    for i in range(cfg.plane_iterations):
        rng = substream(cfg.seed, NS_PLANE_RANSAC, i)
        idx = rng.choice(n, size=3, replace=False)
        p1, p2, p3 = pts[idx]
        normal = np.cross(p2 - p1, p3 - p1)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        if normal[2] < 0:
            normal = -normal
        if normal[2] <= 0.5:
            continue
        d = float(normal @ p1)
        mask = np.abs(pts @ normal - d) <= cfg.ground_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    if best_mask is None or best_count < max(3, 0.1 * n):
        raise NoPlaneFound(
            f"best plane hypothesis covers {best_count}/{n} points (< 10%)"
        )
    inl = pts[best_mask]
    centroid = inl.mean(axis=0)
    _, _, vt = np.linalg.svd(inl - centroid, full_matrices=False)
    normal = vt[-1]
    if normal[2] < 0:
        normal = -normal
    return GroundPlane(normal, float(normal @ centroid))


def crop_and_strip(
    pcd: PointCloud,
    unrefined: OrientedBox3,
    plane: GroundPlane,
    cfg: RefineConfig,
    min_height: float | None = None,
) -> PointCloud:
    """Neighborhood of the unrefined label with ground points removed.

    Keeps points within ``cfg.radius`` of the unrefined center whose
    height above the plane exceeds ``cfg.ground_threshold``. When
    ``min_height`` is given (table refinement), points lower than that are
    dropped as well.
    """
    pts = pcd.points
    near = np.linalg.norm(pts - unrefined.center, axis=1) <= cfg.radius
    above = plane.height(pts) > cfg.ground_threshold
    keep = near & above
    if min_height is not None:
        keep &= plane.height(pts) >= min_height
    if not keep.any():
        raise EmptyNeighborhood(
            f"no points within {cfg.radius} m of the label after ground removal"
        )
    return PointCloud(pts[keep], frame=pcd.frame)


def _bisector_axes(p1, p2, p3, plane: GroundPlane):
    """Projected corner construction shared by cabinet and table MPFs.

    Returns (q3, s_hat, o_hat): the projected reference point, the unit
    angle bisector of the two projected edge directions, and the in-plane
    orthogonal axis n x s.
    """
    q1, q2, q3 = plane.project(np.stack([p1, p2, p3]))
    if (
        np.linalg.norm(q1 - q3) < _MIN_SEPARATION
        or np.linalg.norm(q2 - q3) < _MIN_SEPARATION
        or np.linalg.norm(q1 - q2) < _MIN_SEPARATION
    ):
        raise DegenerateSample("projected sample points coincide")
    v1 = (q1 - q3) / np.linalg.norm(q1 - q3)
    v2 = (q2 - q3) / np.linalg.norm(q2 - q3)
    s = v1 + v2
    s_norm = np.linalg.norm(s)
    if s_norm < 1e-9:
        raise DegenerateSample("edge directions are opposite; bisector undefined")
    s_hat = s / s_norm
    o_hat = np.cross(plane.normal, s_hat)
    return q3, s_hat, o_hat


def _box_from_bottom_rect(bottom_center, length_dir, spec, plane):
    """Yaw box with the given bottom-face center, tangent to the plane."""
    center = bottom_center + (spec.height / 2.0) * plane.normal
    yaw = math.atan2(length_dir[1], length_dir[0])
    return OrientedBox3(center, spec.dims, yaw, frame="lidar")


def mpf_cabinet(p1, p2, p3, plane: GroundPlane, spec: ObjectSpec, kind: MpfKind) -> OrientedBox3:
    """Cabinet proposal from two edge points and a front corner P3.

    The box spans the quadrant between the two projected edge directions:
    width along (s - o) and length along (s + o), scaled by w/sqrt(2) and
    l/sqrt(2). ``kind`` selects whether P3 is the left or the right front
    vertex, which swaps the two edge roles.
    """
    if kind not in (MpfKind.CABINET_LEFT_FRONT, MpfKind.CABINET_RIGHT_FRONT):
        raise ValueError(f"not a three-point cabinet kind: {kind}")
    q3, s_hat, o_hat = _bisector_axes(p1, p2, p3, plane)
    w_vec = (spec.width / math.sqrt(2.0)) * (s_hat - o_hat)
    l_vec = (spec.length / math.sqrt(2.0)) * (s_hat + o_hat)
    if kind is MpfKind.CABINET_RIGHT_FRONT:
        w_vec = (spec.width / math.sqrt(2.0)) * (s_hat + o_hat)
        l_vec = (spec.length / math.sqrt(2.0)) * (s_hat - o_hat)
    bottom_center = q3 + 0.5 * (w_vec + l_vec)
    return _box_from_bottom_rect(bottom_center, l_vec, spec, plane)


def mpf_cabinet_two_point(
    p1,
    p2,
    plane: GroundPlane,
    spec: ObjectSpec,
    side: int = 1,
) -> OrientedBox3:
    """Cabinet proposal from two points along one face.

    The face runs through both projected points; the box is extruded
    inward by the object width. ``side`` (+1/-1) picks which of the two
    inward directions to use. The sampler resolves the ambiguity by
    viewpoint: a scanned surface faces the sensor, so the solid extends
    away from it. This construction is an interpretation: only the
    two-points-on-a-face idea is given, not its geometry.
    """
    q1, q2 = plane.project(np.stack([p1, p2]))
    gap = np.linalg.norm(q1 - q2)
    if gap < _MIN_SEPARATION:
        raise DegenerateSample("projected sample points coincide")
    u_hat = (q1 - q2) / gap
    inward = float(side) * np.cross(plane.normal, u_hat)
    mid = 0.5 * (q1 + q2)
    bottom_center = mid + (spec.width / 2.0) * inward
    return _box_from_bottom_rect(bottom_center, u_hat, spec, plane)


def mpf_table(p1, p2, p3, plane: GroundPlane, spec: ObjectSpec) -> OrientedBox3:
    """Table proposal: P3 is a stem (center column) point, not a corner.

    Orientation comes from the same bisector construction as the cabinet;
    the box is centered horizontally on the projected stem point. The
    centering is an assumption about where the stem sits.
    """
    q3, s_hat, o_hat = _bisector_axes(p1, p2, p3, plane)
    length_dir = s_hat + o_hat
    return _box_from_bottom_rect(q3, length_dir, spec, plane)


def fitness(box: OrientedBox3, cloud, delta: float) -> int:
    """Shell-counting score: points within +-delta of the box surface.

    A point in the shell is counted once per axis pair whose faces it is
    near, so a corner point contributes 3. Boundary points at exactly
    half-extent +- delta are included.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if len(pts) == 0:
        return 0
    local = np.abs(box.to_local(pts))
    half = box.dims / 2.0
    inside = np.all(local <= half + delta, axis=1)
    near_face = local >= (half - delta)
    return int((inside[:, None] & near_face).sum())


def _away_side(p1, p2, plane: GroundPlane) -> int:
    """Extrusion side pointing away from the sensor at the cloud origin.

    The cloud is expressed in the sensor frame, so the sensor sits at the
    origin; points lie on surfaces that face it and the solid extends
    behind them. A face plane passing through the origin leaves the side
    genuinely ambiguous, signalled by returning 0.
    """
    q1, q2 = plane.project(np.stack([p1, p2]))
    gap = np.linalg.norm(q1 - q2)
    if gap < _MIN_SEPARATION:
        return 0
    u_hat = (q1 - q2) / gap
    inward = np.cross(plane.normal, u_hat)
    origin = plane.project(np.zeros((1, 3)))[0]
    depth = float(np.dot(inward, 0.5 * (q1 + q2) - origin))
    if abs(depth) < 1e-9:
        return 0
    return 1 if depth > 0 else -1


def _propose(kind: MpfKind, sample: np.ndarray, plane, spec, rng) -> OrientedBox3:
    if kind is MpfKind.CABINET_TWO_POINT_FACE:
        side = _away_side(sample[0], sample[1], plane)
        if side == 0:
            side = 1 if rng.integers(2) == 0 else -1
        return mpf_cabinet_two_point(sample[0], sample[1], plane, spec, side=side)
    if kind is MpfKind.TABLE_STEM:
        return mpf_table(sample[0], sample[1], sample[2], plane, spec)
    return mpf_cabinet(sample[0], sample[1], sample[2], plane, spec, kind)


def refine_label(
    pcd: PointCloud,
    unrefined: OrientedBox3,
    spec: ObjectSpec,
    cfg: RefineConfig,
) -> OrientedBox3:
    """Best-of-n proposal search around an unrefined label.

    The ground plane is fitted on the full cloud (the floor is the
    dominant horizontal surface of a scan; fitting only the label's
    neighborhood can latch onto a horizontal object face such as a table
    top). The neighborhood is then cropped and ground-stripped, and each
    of the ``cfg.iterations`` rounds draws a kind uniformly from
    ``kinds_for_class(spec.class_name)``, samples the points it needs
    without replacement, and scores the proposal on the cropped cloud.
    Degenerate proposals score -inf but still consume an iteration. A class
    without proposal functions raises ConfigError before any work.
    """
    kinds = kinds_for_class(spec.class_name)
    plane = fit_ground_plane(pcd, cfg)
    min_height = cfg.table_min_height if MpfKind.TABLE_STEM in kinds else None
    cropped = crop_and_strip(pcd, unrefined, plane, cfg, min_height=min_height)
    needed = max(k.sample_size for k in kinds)
    if len(cropped) < needed:
        raise EmptyNeighborhood(
            f"{len(cropped)} points survive cropping, need {needed} to sample"
        )
    pts = cropped.points
    best_box = None
    best_fitness = -math.inf
    rng = substream(cfg.seed, NS_REFINE)
    for _ in range(cfg.iterations):
        kind = kinds[int(rng.integers(len(kinds)))]
        idx = rng.choice(len(pts), size=kind.sample_size, replace=False)
        try:
            box = _propose(kind, pts[idx], plane, spec, rng)
        except DegenerateSample:
            continue
        score = fitness(box, cropped, cfg.shell_delta)
        if score > best_fitness:
            best_fitness = score
            best_box = box
    if best_box is None:
        raise AllProposalsDegenerate(
            f"all {cfg.iterations} proposals were degenerate"
        )
    return best_box
