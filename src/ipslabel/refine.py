"""Point-cloud label refinement via generalized RANSAC.

Each iteration samples a class-specific model proposal function (MPF) and
the few points it needs, which give a candidate box of the object's known
dimensions tangent to the fitted ground plane, scored by counting cloud
points inside a +-delta shell around the box surface. The draws are plain
arrays from the object's seeded stream (see ``_draw``); the candidates are
built and scored as arrays too. The best proposal wins, and among equal
scores the earliest, unless the sensor's rays cross a solid object's box
(see ``_first_clear``). The ground plane is fitted once per scan by a
preemptively scored RANSAC (see ``fit_ground_plane``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
from .geom import chunks, row_norms
from .labelgen import ObjectSpec, OrientedBox3
from .rng import NS_GROUND_PLANE, NS_REFINE_DRAWS, distinct_rows, substream

_MIN_SEPARATION = 1e-6  # meters between projected sample points
# Cloud points on which every ground-plane hypothesis is scored; only the
# winner is scored on the full cloud.
_PLANE_SUBSET = 1024
# Most sensor rays that may cross a solid candidate box, shrunk by
# shell_delta, before they reach their points; a few stray points must not
# veto the right box.
_CROSSING_RAYS = 2
# Most box x point tests that shell_scores makes at a time: its float64 work
# arrays then take 128 KB each and stay in a core's L2 cache.
_SHELL_TESTS = 1 << 14


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
        return p - np.asarray(self.height(p))[..., None] * self.normal


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


def fit_ground_plane(pcd: PointCloud, cfg: RefineConfig, seed: int = 0) -> GroundPlane:
    """Three-point RANSAC plane fit, least-squares refit on the inliers.

    All ``cfg.plane_iterations`` triples, and then a random subset of
    _PLANE_SUBSET cloud points, are drawn as arrays from the stream of
    ``seed``. Every hypothesis is scored on that subset, and the
    earliest best wins (preemptive RANSAC: Nister, ICCV 2003); only the
    winner is scored on the full cloud, and it must hold at least 10% of
    the points. Hypotheses tilted more than ~60 degrees from horizontal
    are rejected: a ground plane faces up, and without this guard a
    densely scanned vertical object face can out-vote the floor.
    """
    pts = pcd.points
    n = len(pts)
    if n < 3:
        raise TooFewPoints(f"plane fit needs >= 3 points, got {n}")
    rng = substream(seed, NS_GROUND_PLANE)
    p1, p2, p3 = pts[distinct_rows(rng, n, 3, cfg.plane_iterations).T]
    normals = np.cross(p2 - p1, p3 - p1)
    norms = row_norms(normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        normals /= np.where(normals[:, 2] < 0, -norms, norms)[:, None]
    upright = (norms >= 1e-12) & (normals[:, 2] > 0.5)
    if not upright.any():
        raise NoPlaneFound(f"no plane hypothesis of {cfg.plane_iterations} faces up")
    normals, ds = normals[upright], (normals[upright] * p1[upright]).sum(axis=1)
    subset = pts if n <= _PLANE_SUBSET else pts[rng.choice(n, _PLANE_SUBSET, replace=False)]
    counts = (np.abs(subset @ normals.T - ds) <= cfg.ground_threshold).sum(axis=0)
    best = int(np.argmax(counts))
    mask = np.abs(pts @ normals[best] - ds[best]) <= cfg.ground_threshold
    count = int(mask.sum())
    if count < max(3, 0.1 * n):
        raise NoPlaneFound(f"best plane hypothesis covers {count}/{n} points (< 10%)")
    inl = pts[mask]
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
    height = plane.height(pts)
    keep = (np.linalg.norm(pts - unrefined.center, axis=1) <= cfg.radius) & (
        height > cfg.ground_threshold
    )
    if min_height is not None:
        keep &= height >= min_height
    if not keep.any():
        raise EmptyNeighborhood(
            f"no points within {cfg.radius} m of the label after ground removal"
        )
    return PointCloud(pts[keep], frame=pcd.frame)


def _propose_one(kind: MpfKind, points, plane: GroundPlane, spec: ObjectSpec, side: int = 0):
    """The box ``_proposals`` builds from one sample of raw points."""
    q = plane.project(np.asarray(points, dtype=float))[None]
    centers, lengths, degenerate = _proposals(
        (kind,), np.zeros(1, dtype=np.intp), q, np.array([side]), plane, spec
    )
    if degenerate[0]:
        raise DegenerateSample(
            "projected sample points coincide or the edge directions are opposite"
        )
    return _box(centers[0], lengths[0], spec)


def _box(center, length, spec: ObjectSpec) -> OrientedBox3:
    """Yaw box of the spec's dims whose length axis runs along ``length``."""
    # math.atan2, not np.arctan2: the SIMD arctan2 differs from it in the last bit.
    return OrientedBox3(center, spec.dims, math.atan2(length[1], length[0]), frame="lidar")


def mpf_cabinet(p1, p2, p3, plane: GroundPlane, spec: ObjectSpec, kind: MpfKind) -> OrientedBox3:
    """Cabinet proposal from two edge points and a front corner P3.

    The box spans the quadrant between the two projected edge directions:
    width along (s - o) and length along (s + o), scaled by w/sqrt(2) and
    l/sqrt(2). ``kind`` selects whether P3 is the left or the right front
    vertex, which swaps the two edge roles.
    """
    if kind not in (MpfKind.CABINET_LEFT_FRONT, MpfKind.CABINET_RIGHT_FRONT):
        raise ValueError(f"not a three-point cabinet kind: {kind}")
    return _propose_one(kind, [p1, p2, p3], plane, spec)


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
    return _propose_one(MpfKind.CABINET_TWO_POINT_FACE, [p1, p2], plane, spec, side)


def mpf_table(p1, p2, p3, plane: GroundPlane, spec: ObjectSpec) -> OrientedBox3:
    """Table proposal: P3 is a stem (center column) point, not a corner.

    Orientation comes from the same bisector construction as the cabinet;
    the box is centered horizontally on the projected stem point. The
    centering is an assumption about where the stem sits.
    """
    return _propose_one(MpfKind.TABLE_STEM, [p1, p2, p3], plane, spec)


def fitness(box: OrientedBox3, cloud, delta: float) -> int:
    """Shell-counting score: points within +-delta of the box surface.

    A point in the shell is counted once per axis pair whose faces it is
    near, so a corner point contributes 3. Boundary points at exactly
    half-extent +- delta are included.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else cloud
    return int(shell_scores([box.center], [box.yaw], box.dims, pts, delta)[0])


def shell_scores(centers, yaws, dims, points, delta: float) -> np.ndarray:
    """``fitness`` of the yaw boxes (centers[i], dims, yaws[i]) on one cloud.

    Makes at most _SHELL_TESTS box x point tests at a time (one box at a
    time on a larger cloud), into work arrays allocated once per call.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    yaws = np.asarray(yaws, dtype=float).reshape(-1)
    px, py, pz = np.asarray(points, dtype=float).reshape(-1, 3).T.copy()
    half = np.asarray(dims, dtype=float).reshape(3) / 2.0
    outer, inner = half + delta, half - delta
    scores = np.zeros(len(centers), dtype=np.int64)
    cos, sin = np.cos(yaws)[:, None], np.sin(yaws)[:, None]
    parts = list(chunks(len(centers), len(px), _SHELL_TESTS))
    rows = parts[0].stop if parts else 0
    dx, dy, a, b = np.empty((4, rows, len(px)))
    inside, near = np.empty((2, rows, len(px)), dtype=bool)
    faces = np.empty((rows, len(px)), dtype=np.uint8)
    for part in parts:
        c, k = centers[part], part.stop - part.start
        dx_, dy_, a_, b_ = dx[:k], dy[:k], a[:k], b[:k]
        inside_, near_, faces_ = inside[:k], near[:k], faces[:k]
        np.subtract(px, c[:, 0:1], out=dx_)
        np.subtract(py, c[:, 1:2], out=dy_)
        # lx = |dx cos + dy sin|
        np.multiply(dx_, cos[part], out=a_)
        np.multiply(dy_, sin[part], out=b_)
        np.abs(np.add(a_, b_, out=a_), out=a_)
        np.less_equal(a_, outer[0], out=inside_)
        np.greater_equal(a_, inner[0], out=faces_.view(bool))
        # ly = |dy cos - dx sin|
        np.multiply(dy_, cos[part], out=a_)
        np.multiply(dx_, sin[part], out=b_)
        np.abs(np.subtract(a_, b_, out=a_), out=a_)
        inside_ &= np.less_equal(a_, outer[1], out=near_)
        faces_ += np.greater_equal(a_, inner[1], out=near_).view(np.uint8)
        # lz = |pz - cz|
        np.abs(np.subtract(pz, c[:, 2:3], out=a_), out=a_)
        inside_ &= np.less_equal(a_, outer[2], out=near_)
        faces_ += np.greater_equal(a_, inner[2], out=near_).view(np.uint8)
        faces_ *= inside_.view(np.uint8)
        scores[part] = faces_.sum(axis=1, dtype=np.int32)
    return scores


def _away_sides(q1: np.ndarray, q2: np.ndarray, plane: GroundPlane) -> np.ndarray:
    """Extrusion side pointing away from the sensor, for projected pairs.

    The cloud is expressed in the sensor frame, so the sensor sits at the
    origin; points lie on surfaces that face it and the solid extends
    behind them. A face plane passing through the origin, or coincident
    points, leave the side genuinely ambiguous, signalled by 0.
    """
    gap = np.linalg.norm(q1 - q2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inward = np.cross(plane.normal, (q1 - q2) / gap[:, None])
    rel = 0.5 * (q1 + q2) - plane.project(np.zeros(3))
    depth = (inward * rel).sum(axis=1)
    side = np.where(depth > 0, 1, -1)
    return np.where((gap < _MIN_SEPARATION) | ~(np.abs(depth) >= 1e-9), 0, side)


def _draw(kinds, projected: np.ndarray, plane: GroundPlane, iterations: int, rng):
    """Every iteration's kind index, sample indices and face side.

    Three draws from ``rng``, each one array over the iterations, in this
    order: the kinds ``rng.integers(len(kinds), size=iterations)``; the
    samples, as ``distinct_rows`` of the largest sample size (a two-point
    kind uses the first two columns); and one coin per iteration, which
    gives the side (+1 for 0, -1 for 1) of a two-point face whose side the
    viewpoint leaves ambiguous. The sides of other kinds are 0.
    """
    kind = rng.integers(len(kinds), size=iterations)
    idx = distinct_rows(rng, len(projected), max(k.sample_size for k in kinds), iterations)
    coin = rng.integers(2, size=iterations)
    two = np.array([k is MpfKind.CABINET_TWO_POINT_FACE for k in kinds])[kind]
    side = np.zeros(iterations, dtype=np.int64)
    side[two] = _away_sides(projected[idx[two, 0]], projected[idx[two, 1]], plane)
    return kind, idx, np.where(two & (side == 0), 1 - 2 * coin, side)


def _first_clear(order, centers, lengths, spec: ObjectSpec, delta: float, points, around):
    """The first proposal of ``order`` whose box, shrunk by ``delta``, at
    most _CROSSING_RAYS rays cross; ``order[0]`` when every one is crossed.

    The cloud is in the sensor frame, so each point's ray runs from the
    origin to it. Scanned surfaces face the sensor and the solid lies behind
    them, so no ray crosses a solid object's box before reaching its point;
    a box standing in front of the scanned face is crossed by the rays to
    that face (free space, as in Hu et al., "What You See Is What You Get",
    CVPR 2020). Rays that pass farther from ``around`` than any box of
    ``order`` reaches cannot cross one, so they are not tested.
    """
    reach = row_norms(centers[order] - around).max() + np.linalg.norm(spec.dims) / 2.0
    along = np.clip(points @ around / np.maximum((points * points).sum(axis=1), 1e-12), 0.0, 1.0)
    rays = points[row_norms(along[:, None] * points - around) <= reach]
    shrunk = np.asarray(spec.dims) - 2.0 * delta
    for i in order:
        box = OrientedBox3(centers[i], shrunk, math.atan2(lengths[i, 1], lengths[i, 0]))
        if np.count_nonzero(box.ray_entry(rays) < 1.0) <= _CROSSING_RAYS:
            return i
    return order[0]


def _proposals(kinds, kind, q, side, plane: GroundPlane, spec: ObjectSpec):
    """Centres, length vectors and a degenerate mask of B proposals.

    Row i is the box of kind ``kinds[kind[i]]`` built from the projected
    samples q[i] (B, 3, 3; a two-point face uses the first two) and, for a
    two-point face, extruded to side side[i]. The box's length axis runs
    along its length vector. A row is degenerate where two projected
    samples coincide or a corner's two edge directions are opposite.
    """
    count = len(kind)
    centers = np.zeros((count, 3))
    lengths = np.zeros((count, 3))
    degenerate = np.zeros(count, dtype=bool)
    up = (spec.height / 2.0) * plane.normal
    for k, mpf in enumerate(kinds):
        rows = np.flatnonzero(kind == k)
        if rows.size == 0:
            continue
        q1, q2 = q[rows, 0], q[rows, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            if mpf is MpfKind.CABINET_TWO_POINT_FACE:
                gap = row_norms(q1 - q2)
                bad = gap < _MIN_SEPARATION
                length = (q1 - q2) / gap[:, None]
                inward = side[rows, None] * np.cross(plane.normal, length)
                bottom = 0.5 * (q1 + q2) + (spec.width / 2.0) * inward
            else:
                q3 = q[rows, 2]
                n13, n23 = row_norms(q1 - q3), row_norms(q2 - q3)
                bad = (
                    (n13 < _MIN_SEPARATION)
                    | (n23 < _MIN_SEPARATION)
                    | (row_norms(q1 - q2) < _MIN_SEPARATION)
                )
                s = (q1 - q3) / n13[:, None] + (q2 - q3) / n23[:, None]
                s_norm = row_norms(s)
                bad |= s_norm < 1e-9
                s_hat = s / s_norm[:, None]
                o_hat = np.cross(plane.normal, s_hat)
                if mpf is MpfKind.TABLE_STEM:
                    bottom, length = q3, s_hat + o_hat
                else:
                    w_dir, l_dir = s_hat - o_hat, s_hat + o_hat
                    if mpf is MpfKind.CABINET_RIGHT_FRONT:
                        w_dir, l_dir = l_dir, w_dir
                    length = (spec.length / math.sqrt(2.0)) * l_dir
                    bottom = q3 + 0.5 * ((spec.width / math.sqrt(2.0)) * w_dir + length)
        degenerate[rows] = bad
        centers[rows] = bottom + up
        lengths[rows] = length
    return centers, lengths, degenerate


def refine_label(
    pcd: PointCloud,
    unrefined: OrientedBox3,
    spec: ObjectSpec,
    cfg: RefineConfig,
    seed: int = 0,
    plane: GroundPlane | None = None,
) -> OrientedBox3:
    """Best-of-n proposal search around an unrefined label.

    ``plane`` is the ground plane of the cloud; without it,
    ``fit_ground_plane(pcd, cfg, seed)`` fits it. Either way it comes from
    the full cloud (the floor is the dominant horizontal surface of a scan;
    fitting only the label's neighborhood can latch onto a horizontal
    object face such as a table top), so all objects of one scan can
    share one fit. The neighborhood is then cropped and ground-stripped,
    and each of the ``cfg.iterations`` rounds draws a kind uniformly from
    ``kinds_for_class(spec.class_name)`` and samples the points it needs
    without replacement, from the stream of ``seed`` (see ``_draw``). The
    proposals are then built and scored on the cropped cloud in fixed-size
    batches, and the earliest best wins, except that for a solid class
    (not a table) the winner is the best proposal, from the best score
    down to half of it, whose box the sensor's rays do not cross (see
    ``_first_clear``); the best one when every such box is crossed.
    Degenerate proposals never win but still consume an iteration. A class
    without proposal functions raises ConfigError before any work.
    """
    kinds = kinds_for_class(spec.class_name)
    if plane is None:
        plane = fit_ground_plane(pcd, cfg, seed)
    min_height = cfg.table_min_height if MpfKind.TABLE_STEM in kinds else None
    cropped = crop_and_strip(pcd, unrefined, plane, cfg, min_height=min_height)
    needed = max(k.sample_size for k in kinds)
    if len(cropped) < needed:
        raise EmptyNeighborhood(
            f"{len(cropped)} points survive cropping, need {needed} to sample"
        )
    pts = cropped.points
    projected = plane.project(pts)
    rng = substream(seed, NS_REFINE_DRAWS)
    kind, idx, side = _draw(kinds, projected, plane, cfg.iterations, rng)
    centers, lengths, degenerate = _proposals(kinds, kind, projected[idx], side, plane, spec)
    live = np.flatnonzero(~degenerate)
    if live.size == 0:
        raise AllProposalsDegenerate(
            f"all {cfg.iterations} proposals were degenerate"
        )
    yaws = np.arctan2(lengths[live, 1], lengths[live, 0])
    scores = shell_scores(centers[live], yaws, spec.dims, pts, cfg.shell_delta)
    ranked = np.argsort(-scores, kind="stable")
    # Below half the best score a box explains too little of the object to
    # win; this also keeps the best box of a cloud that is not one scan,
    # whose rays cross every box near the object.
    order = live[ranked[: np.count_nonzero(2 * scores >= scores[ranked[0]])]]
    best = order[0]
    # a table's box is not solid: rays pass under its top, beside the stem
    if min_height is None and min(spec.dims) > 2.0 * cfg.shell_delta:
        best = _first_clear(
            order, centers, lengths, spec, cfg.shell_delta, pcd.points, unrefined.center
        )
    return _box(centers[best], lengths[best], spec)
