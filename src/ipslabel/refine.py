"""Point-cloud label refinement via generalized RANSAC.

Each iteration samples a class-specific model proposal function (MPF) and
the few points it needs, which give a candidate box of the object's known
dimensions tangent to the fitted ground plane, scored by counting cloud
points inside a +-delta shell around the box surface. The draws are those
of one Generator call per draw, computed as arrays from the stream's
words; the candidates are built and scored as arrays too. The best
proposal wins, and among equal scores the earliest.
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
from .geom import chunks, row_norms
from .labelgen import ObjectSpec, OrientedBox3
from .rng import (
    NS_PLANE_RANSAC,
    NS_REFINE,
    WordStream,
    choice_bounds,
    choice_rows,
    lemire,
    substream,
)

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


# Most RANSAC iterations whose draws one array pass computes.
_PASS = 1024


def shell_scores(centers, yaws, dims, points, delta: float) -> np.ndarray:
    """``fitness`` of the yaw boxes (centers[i], dims, yaws[i]) on one cloud.

    Makes at most CHUNK_TESTS box x point tests at a time.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    yaws = np.asarray(yaws, dtype=float).reshape(-1)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    half = np.asarray(dims, dtype=float).reshape(3) / 2.0
    outer, inner = half + delta, half - delta
    scores = np.zeros(len(centers), dtype=np.int64)
    for part in chunks(len(centers), len(pts)):
        c = centers[part]
        cos, sin = np.cos(yaws[part])[:, None], np.sin(yaws[part])[:, None]
        dx = pts[:, 0] - c[:, 0:1]
        dy = pts[:, 1] - c[:, 1:2]
        lx = np.abs(dx * cos + dy * sin)
        ly = np.abs(dy * cos - dx * sin)
        lz = np.abs(pts[:, 2] - c[:, 2:3])
        inside = (lx <= outer[0]) & (ly <= outer[1]) & (lz <= outer[2])
        faces = (
            (lx >= inner[0]).astype(np.int8)
            + (ly >= inner[1]).astype(np.int8)
            + (lz >= inner[2]).astype(np.int8)
        )
        scores[part] = np.where(inside, faces, 0).sum(axis=1)
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

    The values are those of drawing, iteration by iteration, the kind
    ``rng.integers(len(kinds))``, the sample ``rng.choice(n, size,
    replace=False)`` and, for a two-point face whose side the viewpoint
    leaves ambiguous, a coin ``rng.integers(2)`` for the side. They are
    computed as arrays from the stream's 32-bit words (see ``rng``), at most
    _PASS iterations per pass. A pass stops at its first special iteration,
    one that flips a coin or has a word that might be redrawn. That one is
    read word by word, and the next pass starts after it. Unused sample
    columns and the sides of other kinds are 0.
    """
    n = len(projected)
    sizes = np.array([k.sample_size for k in kinds])
    two_point = np.array([k is MpfKind.CABINET_TWO_POINT_FACE for k in kinds])
    # Per kind, the bounds of an iteration's draws (the kind, then the
    # sample's; 0 pads) and which of the iteration's words each one reads.
    bounds = np.zeros((len(kinds), 2 * sizes.max()), dtype=np.uint64)
    for k, s in enumerate(sizes):
        bounds[k, 0] = len(kinds) - 1
        bounds[k, 1 : 2 * s] = choice_bounds(n, s)
    reads = bounds > 0
    offset = np.where(reads, np.cumsum(reads, axis=1) - 1, 0)
    cost = reads.sum(axis=1)
    longest = int(cost.max())
    words = WordStream(rng, ahead=longest * iterations)
    kind = np.zeros(iterations, dtype=np.intp)
    idx = np.zeros((iterations, sizes.max()), dtype=np.intp)
    side = np.zeros(iterations, dtype=np.int64)
    start = 0
    while start < iterations:
        count = min(_PASS, iterations - start)
        w = words.have(count * longest)[words.pos :]
        kinds_at = lemire(w[: count * longest], len(kinds) - 1)[0]
        if len(kinds) == 1:
            begin = longest * np.arange(count + 1)
        else:  # each iteration begins where the one before it ends
            step, at, begin = cost[kinds_at].tolist(), 0, [0]
            for _ in range(count):
                at += step[at]
                begin.append(at)
            begin = np.array(begin)
        k = kinds_at[begin[:-1]]
        values, maybe = lemire(w[begin[:-1, None] + offset[k]], bounds[k])
        sample = np.zeros((count, idx.shape[1]), dtype=np.intp)
        for s in set(sizes.tolist()):
            rows = sizes[k] == s
            sample[rows, :s] = choice_rows(values[rows, 1 : 2 * s], n, s)
        two = two_point[k]
        sides = np.zeros(count, dtype=np.int64)
        sides[two] = _away_sides(projected[sample[two, 0]], projected[sample[two, 1]], plane)
        special = maybe.any(axis=1) | (two & (sides == 0))
        stop = int(np.argmax(special)) if special.any() else count
        kind[start : start + stop] = k[:stop]
        idx[start : start + stop] = sample[:stop]
        side[start : start + stop] = sides[:stop]
        words.pos += int(begin[stop])
        start += stop
        if stop < count:
            i = start
            k = kind[i] = words.integer(len(kinds) - 1)
            idx[i, : sizes[k]] = words.choice(n, int(sizes[k]))
            if two_point[k]:
                side[i] = _away_sides(projected[idx[i, :1]], projected[idx[i, 1:2]], plane)[0]
                if side[i] == 0:
                    side[i] = 1 if words.integer(1) == 0 else -1
            start += 1
    return kind, idx, side


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
) -> OrientedBox3:
    """Best-of-n proposal search around an unrefined label.

    The ground plane is fitted on the full cloud (the floor is the
    dominant horizontal surface of a scan; fitting only the label's
    neighborhood can latch onto a horizontal object face such as a table
    top). The neighborhood is then cropped and ground-stripped, and each
    of the ``cfg.iterations`` rounds draws a kind uniformly from
    ``kinds_for_class(spec.class_name)`` and samples the points it needs
    without replacement (see ``_draw``). The proposals are then built and
    scored on the cropped cloud in fixed-size batches, and
    the earliest best wins. Degenerate proposals never win but still
    consume an iteration. A class without proposal functions raises
    ConfigError before any work.
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
    projected = plane.project(pts)
    rng = substream(cfg.seed, NS_REFINE)
    kind, idx, side = _draw(kinds, projected, plane, cfg.iterations, rng)
    centers, lengths, degenerate = _proposals(kinds, kind, projected[idx], side, plane, spec)
    live = np.flatnonzero(~degenerate)
    if live.size == 0:
        raise AllProposalsDegenerate(
            f"all {cfg.iterations} proposals were degenerate"
        )
    yaws = np.arctan2(lengths[live, 1], lengths[live, 0])
    scores = shell_scores(centers[live], yaws, spec.dims, pts, cfg.shell_delta)
    best = int(live[np.argmax(scores)])
    return _box(centers[best], lengths[best], spec)
