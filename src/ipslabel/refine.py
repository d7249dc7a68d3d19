"""Point-cloud label refinement via generalized RANSAC.

Each iteration samples a class-specific model proposal function (MPF) and
the few points it needs, which give a candidate box of the object's known
dimensions tangent to the fitted ground plane, scored by counting cloud
points inside a +-delta shell around the box surface. The draws are plain
arrays from the object's seeded stream (see ``_draw``); the candidates are
built and scored as arrays too, preemptively on a dense crop (see
``refine_label``). The best proposal wins, and among equal scores the
earliest, unless the sensor's rays cross a solid object's box (see
``_first_clear``). The ground plane is fitted once per scan by a
preemptively scored RANSAC (see ``fit_ground_plane``).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cloud import read_ply
from .config import ObjectSpec, RefineConfig, _manifest_rig
from .errors import (
    AllProposalsDegenerate, ConfigError, DegenerateSample, EmptyNeighborhood, NoPlaneFound,
    NumericalError, TooFewPoints, UsageError, error_text,
)
from .fileio import (
    _sample_ids, atomic_write_text, dump_json, read_bytes, read_input, read_json,
    require_empty_dir,
)
from .geom import chunks, frozen, inverse, row_norms
from .labelgen import (
    OrientedBox3, _entry_spec, label_entry, label_objects, labels_to_dict, normalize_yaw,
    ray_entries,
)
from .rng import NS_GROUND_PLANE, NS_JOB, NS_REFINE_DRAWS, derive_seed, distinct_rows, substream

_MIN_SEPARATION = 1e-6  # meters between projected sample points
# Cloud points on which every ground-plane hypothesis is scored; only the
# winner is scored on the full cloud.
_PLANE_SUBSET = 1024
# Most sensor rays that may cross a solid candidate box, shrunk by
# shell_delta, before they reach their points; a few stray points must not
# veto the right box.
_CROSSING_RAYS = 2
# Most box x point tests that shell_scores makes at a time; 2**14 and 2**16
# both measured slower.
_SHELL_TESTS = 1 << 15
# Preemptive proposal scoring (Nister, ICCV 2003): every live proposal is
# scored on every _PREEMPT_STRIDE-th cropped point, and only the
# _PREEMPT_KEEP best of those on all the points. A stride of 8 scored faster
# than 4 and kept as many winners; keeping 256 kept the winner of 39 of 40
# objects where keeping 64 kept 37.
_PREEMPT_STRIDE = 8
_PREEMPT_KEEP = 256
# Smallest crop that is scored preemptively: its subset holds at least 64
# points, and a smaller subset cannot tell 5,000 boxes apart (an end-on
# cabinet's 182-point crop lost its winner). Smaller crops are scored in full.
_PREEMPT_MIN_CROP = 512
# Most box x ray tests that the free-space check makes at a time, and rows
# of its per-ray pass: ray_entries allocates about 90 bytes per test, so a
# chunk stays well below a dense scan's cloud.
_RAY_TESTS = 1 << 13
# Strides of the free-space check's two prefilter passes over the rays, the
# coarse one first; one pass of 16, or passes of 16 and 4, measured slower.
_COARSE_STRIDE = 32
_FINE_STRIDE = 8
# Meters by which the free-space check's plane prefilter widens the reach,
# far above the rounding of the distances it stands in for.
_RAY_MARGIN = 1e-3


@dataclass(frozen=True)
class GroundPlane:
    """Plane n . p = d with unit normal pointing up."""

    normal: np.ndarray
    d: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        n = frozen(n if abs(norm - 1.0) <= 1e-9 else n / norm, 3)
        if n[2] <= 0:
            raise ValueError("ground plane normal must point up (n_z > 0)")
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


def fit_ground_plane(cloud: np.ndarray, cfg: RefineConfig, seed: int = 0) -> GroundPlane:
    """Three-point RANSAC plane fit, least-squares refit on the inliers.

    All ``cfg.plane_iterations`` triples, and then a random subset of
    _PLANE_SUBSET cloud points, are drawn as arrays from the stream of
    ``seed``. Every hypothesis is scored on that subset, and the
    earliest best wins (preemptive RANSAC: Nister, ICCV 2003); only the
    winner is scored on the full cloud, and it must hold at least 10% of
    the points. Hypotheses tilted more than ~60 degrees from horizontal
    are rejected: a ground plane faces up, and without this guard a
    densely scanned vertical object face can out-vote the floor.

    The refit's normal comes from the SVD of the centred inliers' 3 x 3 R
    factor, which gives the bits of their thin SVD (see the comment in the
    body) without building their left singular vectors.
    """
    n = len(cloud)
    if n < 3:
        raise TooFewPoints(f"plane fit needs >= 3 points, got {n}")
    rng = substream(seed, NS_GROUND_PLANE)
    p1, p2, p3 = cloud[distinct_rows(rng, n, 3, cfg.plane_iterations).T]
    normals = np.cross(p2 - p1, p3 - p1)
    norms = row_norms(normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        normals /= np.where(normals[:, 2] < 0, -norms, norms)[:, None]
    upright = (norms >= 1e-12) & (normals[:, 2] > 0.5)
    if not upright.any():
        raise NoPlaneFound(f"no plane hypothesis of {cfg.plane_iterations} faces up")
    normals, ds = normals[upright], (normals[upright] * p1[upright]).sum(axis=1)
    subset = cloud if n <= _PLANE_SUBSET else cloud[rng.choice(n, _PLANE_SUBSET, replace=False)]
    counts = (_abs_offsets(subset @ normals.T, ds) <= cfg.ground_threshold).sum(axis=0)
    best = int(np.argmax(counts))
    # over the whole cloud: a row's BLAS dot takes bits from its place in it
    mask = _abs_offsets(cloud @ normals[best], ds[best]) <= cfg.ground_threshold
    count = int(mask.sum())
    if count < max(3, 0.1 * n):
        raise NoPlaneFound(f"best plane hypothesis covers {count}/{n} points (< 10%)")
    inl = cloud[mask]
    centroid = inl.mean(axis=0)
    inl -= centroid
    # LAPACK's dgesdd QR-factors a matrix of 3 columns and at least 5 rows (its
    # crossover) and bidiagonalises R, so the SVD of R has the same vt bits and
    # builds no U; with 3 or 4 rows it bidiagonalises the rows themselves.
    factor = np.linalg.qr(inl, mode="r") if len(inl) >= 5 else inl
    _, _, vt = np.linalg.svd(factor, full_matrices=False)
    normal = vt[-1]
    if normal[2] < 0:
        normal = -normal
    return GroundPlane(normal, float(normal @ centroid))


def _abs_offsets(values: np.ndarray, offsets) -> np.ndarray:
    """|values - offsets|, computed in the fresh array ``values``."""
    values -= offsets
    return np.abs(values, out=values)


def neighborhood(points: np.ndarray, unrefined: OrientedBox3, cfg: RefineConfig) -> np.ndarray:
    """Mask of the points within ``cfg.radius`` of the unrefined center."""
    return np.linalg.norm(points - unrefined.center, axis=1) <= cfg.radius


def crop_and_strip(
    cloud: np.ndarray,
    unrefined: OrientedBox3,
    plane: GroundPlane,
    cfg: RefineConfig,
    min_height: float | None = None,
) -> np.ndarray:
    """Neighborhood of the unrefined label with ground points removed, as
    the read-only rows of ``cloud`` it keeps.

    Keeps points within ``cfg.radius`` of the unrefined center whose
    height above the plane exceeds ``cfg.ground_threshold``. When
    ``min_height`` is given (table refinement), points lower than that are
    dropped as well. Only the points in the square (widened by 1e-9
    relative) that holds the radius ball around the center are measured
    with ``neighborhood``: a point's norm is taken along its row, so it is
    the same on any subset of the cloud.
    """
    reach = cfg.radius * (1.0 + 1e-9)
    x, y = unrefined.center[:2]
    near = np.flatnonzero((np.abs(cloud[:, 0] - x) <= reach) & (np.abs(cloud[:, 1] - y) <= reach))
    # over the whole cloud: a row's BLAS dot takes bits from its place in it
    height = plane.height(cloud)[near]
    keep = neighborhood(cloud[near], unrefined, cfg) & (height > cfg.ground_threshold)
    if min_height is not None:
        keep &= height >= min_height
    if not keep.any():
        raise EmptyNeighborhood(
            f"no points within {cfg.radius} m of the label after ground removal"
        )
    return frozen(cloud[near[keep]], (-1, 3))


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
    return _box(centers[0], lengths[0], spec.dims)


def _box(center, length, dims) -> OrientedBox3:
    """Yaw box of ``dims`` whose length axis runs along ``length``."""
    # math.atan2, not np.arctan2: the SIMD arctan2 differs from it in the last bit.
    return OrientedBox3(center, dims, math.atan2(length[1], length[0]), frame="lidar")


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
    return int(shell_scores([box.center], [box.yaw], box.dims, cloud, delta)[0])


def shell_scores(centers, yaws, dims, points, delta: float) -> np.ndarray:
    """``fitness`` of the yaw boxes (centers[i], dims, yaws[i]) on one cloud.

    A box's frame coordinates are affine in a point's (x, y, z, 1), so one
    product of the boxes' (3, 4) frame rows with the homogeneous point
    columns gives them all. Each chunk of at most _SHELL_TESTS box x point
    tests (one box on a larger cloud) takes the product one axis at a time:
    an axis ANDs its "within half + delta" mask into the inside mask and
    adds its "beyond half - delta" mask, as uint8, into the face count.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    cx, cy, cz = np.asarray(centers, dtype=float).reshape(-1, 3).T
    yaws = np.asarray(yaws, dtype=float).reshape(-1)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    half = np.asarray(dims, dtype=float).reshape(3) / 2.0
    cos, sin = np.cos(yaws), np.sin(yaws)
    zero, one = np.zeros_like(cos), np.ones_like(cos)
    frames = np.array(
        [
            [cos, sin, zero, -(cx * cos + cy * sin)],
            [-sin, cos, zero, cx * sin - cy * cos],
            [zero, zero, one, -cz],
        ]
    ).transpose(0, 2, 1)
    homogeneous = np.vstack([points.T, np.ones(len(points))])
    scores = np.zeros(len(cx), dtype=np.int64)
    for part in chunks(len(cx), len(points), _SHELL_TESTS):
        for k in range(3):
            local = frames[k, part] @ homogeneous
            np.abs(local, out=local)
            if k == 0:
                inside = local <= half[k] + delta
                faces = (local >= half[k] - delta).view(np.uint8)
            else:
                inside &= local <= half[k] + delta
                faces += (local >= half[k] - delta).view(np.uint8)
        faces *= inside
        scores[part] = faces.sum(1)
    return scores


def _away_sides(q1: np.ndarray, q2: np.ndarray, plane: GroundPlane) -> np.ndarray:
    """Extrusion side (+1/-1) pointing away from the sensor, for projected pairs.

    The cloud is expressed in the sensor frame, so the sensor sits at the
    origin; points lie on surfaces that face it and the solid extends
    behind them. Coincident points get -1, but ``_proposals`` marks their
    face degenerate whatever its side.
    """
    inward = np.cross(plane.normal, q1 - q2)
    depth = (inward * (0.5 * (q1 + q2) - plane.project(np.zeros(3)))).sum(axis=1)
    return np.where(depth > 0, 1, -1)


def _draw(kinds, projected: np.ndarray, plane: GroundPlane, iterations: int, rng):
    """Every iteration's kind index, sample indices and face side.

    Two draws from ``rng``, each one array over the iterations, in this
    order: the kinds ``rng.integers(len(kinds), size=iterations)``, and the
    samples, as ``distinct_rows`` of the largest sample size (a two-point
    kind uses the first two columns). A two-point face takes the side away
    from the sensor (see ``_away_sides``); the sides of other kinds are 0.
    """
    kind = rng.integers(len(kinds), size=iterations)
    idx = distinct_rows(rng, len(projected), max(k.sample_size for k in kinds), iterations)
    two = np.array([k is MpfKind.CABINET_TWO_POINT_FACE for k in kinds])[kind]
    side = np.zeros(iterations, dtype=np.int64)
    side[two] = _away_sides(projected[idx[two, 0]], projected[idx[two, 1]], plane)
    return kind, idx, side


def _first_clear(order, centers, lengths, spec: ObjectSpec, delta: float, points, around):
    """The first proposal of ``order`` whose box, shrunk by ``delta``, at
    most _CROSSING_RAYS rays cross; ``order[0]`` when every one is crossed.

    The cloud is in the sensor frame, so each point's ray runs from the
    origin to it. Scanned surfaces face the sensor and the solid lies behind
    them, so no ray crosses a solid object's box before reaching its point;
    a box standing in front of the scanned face is crossed by the rays to
    that face (free space, as in Hu et al., "What You See Is What You Get",
    CVPR 2020). Rays that pass farther from ``around`` than any box of
    ``order`` reaches cannot cross one, so they are not tested. When the
    sensor is farther than that reach from ``around``, such a ray ends past
    the plane normal to ``around`` at the near side of the reach, so only
    the points past it (less _RAY_MARGIN) are measured.

    ``order[0]``, which is usually clear, gets the full test first. The rest
    are prefiltered in chunks against every _COARSE_STRIDE-th ray, the
    survivors of a chunk in chunks against every _FINE_STRIDE-th ray;
    only the survivors of those get the full test, in order. The rays of a
    stride are a subset of all the rays, and a ray's entry does not depend
    on the other rays, so a box that more than _CROSSING_RAYS of them cross
    is crossed, and the first clear box is the one a walk of full tests
    finds.
    """
    reach = row_norms(centers[order] - around).max() + np.linalg.norm(spec.dims) / 2.0
    # over the whole cloud: a row's BLAS dot takes bits from its place in it
    dots = points @ around
    gap = np.linalg.norm(around) - reach - _RAY_MARGIN
    if gap > 0:
        near = np.flatnonzero(dots >= np.linalg.norm(around) * gap)
        points, dots = points[near], dots[near]
    # in row blocks: each value is its row's own, so a block gives its bits
    reaching = np.zeros(len(points), dtype=bool)
    for part in chunks(len(points), 1, _RAY_TESTS):
        block = points[part]
        along = np.clip(dots[part] / np.maximum((block * block).sum(axis=1), 1e-12), 0.0, 1.0)
        reaching[part] = row_norms(along[:, None] * block - around) <= reach
    rays = points[reaching]
    shrunk = np.asarray(spec.dims) - 2.0 * delta

    def clear(rows, dirs):
        # the yaw of _box's OrientedBox3, so each row has its ray_entry bits
        yaws = [normalize_yaw(math.atan2(y, x)) for x, y in lengths[rows, :2].tolist()]
        crossings = np.zeros(len(rows), dtype=np.int64)
        for part in chunks(len(dirs), len(rows), _RAY_TESTS):
            crossings += np.count_nonzero(
                ray_entries(centers[rows], yaws, shrunk, dirs[part]) < 1.0, axis=1
            )
        return crossings <= _CROSSING_RAYS

    if clear(order[:1], rays)[0]:
        return order[0]
    rest, coarse, fine = order[1:], rays[::_COARSE_STRIDE], rays[::_FINE_STRIDE]
    for part in chunks(len(rest), len(coarse), _RAY_TESTS):
        kept = rest[part][clear(rest[part], coarse)]
        for sub in chunks(len(kept), len(fine), _RAY_TESTS):
            for i in kept[sub][clear(kept[sub], fine)]:
                if clear([i], rays)[0]:
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
    cloud: np.ndarray,
    unrefined: OrientedBox3,
    spec: ObjectSpec,
    cfg: RefineConfig,
    seed: int = 0,
    *,
    plane: GroundPlane,
) -> OrientedBox3:
    """Best-of-n proposal search around an unrefined label.

    ``plane`` is the ground plane of the full cloud, as
    ``fit_ground_plane`` fits it (the floor is the dominant horizontal
    surface of a scan; fitting only the label's neighborhood can latch
    onto a horizontal object face such as a table top), so all objects of
    one scan share one fit. The neighborhood is cropped and ground-stripped,
    and each of the ``cfg.iterations`` rounds draws a kind uniformly from
    ``kinds_for_class(spec.class_name)`` and samples the points it needs
    without replacement, from the stream of ``seed`` (see ``_draw``). The
    proposals are then built and scored on the cropped cloud in fixed-size
    batches. A crop of at least _PREEMPT_MIN_CROP points first scores every
    live proposal on every _PREEMPT_STRIDE-th point and keeps only the
    _PREEMPT_KEEP best, earliest first among equals, for the full score
    (preemptive RANSAC, as in ``fit_ground_plane``). Of the proposals
    scored in full, the earliest best wins, except that for a
    solid class (not a table) the winner is the best proposal, from the
    best score down to half of it, whose box the sensor's rays do not cross
    (see ``_first_clear``); the best one when every such box is crossed.
    Degenerate proposals never win but still consume an iteration. A class
    without proposal functions raises ConfigError before any work.
    """
    kinds = kinds_for_class(spec.class_name)
    min_height = cfg.table_min_height if MpfKind.TABLE_STEM in kinds else None
    pts = crop_and_strip(cloud, unrefined, plane, cfg, min_height=min_height)
    needed = max(k.sample_size for k in kinds)
    if len(pts) < needed:
        raise EmptyNeighborhood(
            f"{len(pts)} points survive cropping, need {needed} to sample"
        )
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
    if len(pts) >= _PREEMPT_MIN_CROP:
        subset = shell_scores(
            centers[live], yaws, spec.dims, pts[::_PREEMPT_STRIDE], cfg.shell_delta
        )
        # the best of the subset scores, earliest first, back in iteration order
        kept = np.sort(np.argsort(-subset, kind="stable")[:_PREEMPT_KEEP])
        live, yaws = live[kept], yaws[kept]
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
            order, centers, lengths, spec, cfg.shell_delta, cloud, unrefined.center
        )
    return _box(centers[best], lengths[best], spec.dims)


def _refine_sample(dataset, rig, cfg, seed, task) -> str:
    sid, sample_index, label_path = task
    cloud = read_input(os.path.join(dataset, "samples", sid, "cloud.ply"), read_ply, read_bytes)
    # the sample's plane and its objects' draws are seeded from their places
    # in the dataset and the manifest, so they do not depend on which other
    # samples or entries the run holds
    plane_error = None
    try:
        plane = fit_ground_plane(cloud, cfg, derive_seed(seed, NS_JOB, sample_index))
    except NumericalError as e:
        plane_error = error_text(e)
    cam_from_lidar = inverse(rig.lidar_from_cam)
    position = {object_id: i for i, object_id in enumerate(rig.objects)}
    objects = []
    for entry, unrefined, _ in read_json(label_path, label_objects):
        entry = dict(entry)
        if unrefined is None:
            objects.append(entry)
            continue
        spec = _entry_spec(entry, rig.objects, label_path)
        obj_seed = derive_seed(seed, NS_JOB, sample_index, position[entry["id"]])
        error = plane_error
        if error is None:
            try:
                refined = refine_label(cloud, unrefined, spec, cfg, obj_seed, plane=plane)
            except NumericalError as e:
                error = error_text(e)
        if error is None:
            verts_cam = cam_from_lidar.apply(refined.vertices())
            entry = label_entry(entry["id"], spec.class_name, refined, verts_cam, rig.intrinsics)
            entry["refined"] = True
        else:
            entry["refined"] = False
            entry["refine_error"] = error
        objects.append(entry)
    return dump_json(labels_to_dict(sid, objects))


def write_refined_labels(
    dataset: str, labels: str, out: str, cfg: RefineConfig, seed: int, jobs: int = 1
) -> int:
    """The refine stage: refine each label file in ``labels`` against its
    sample's cloud in ``dataset`` into the empty or new directory ``out``;
    returns the number of files.

    With ``jobs`` > 1 the files are refined on min(jobs, files) worker
    processes, the one pool of the pipeline. Every text is made, in file
    order, before the first is written, so the files are the same for every
    ``jobs`` and a bad label file writes none.
    """
    require_empty_dir(out, "refine")
    rig = _manifest_rig(os.path.join(dataset, "manifest.json"))
    # seeds follow the sample's place in the dataset, so refining some of the
    # label files writes what refining all of them writes for those files
    sample_index = {sid: i for i, sid in enumerate(_sample_ids(dataset))}
    fnames = sorted(f for f in os.listdir(labels) if f.endswith(".json"))
    if not fnames:
        raise UsageError(f"{labels} holds no label file (*.json)")
    tasks = []
    for fname in fnames:
        sid, label_path = fname[: -len(".json")], os.path.join(labels, fname)
        if sid not in sample_index:
            raise UsageError(f"{label_path} names no sample of dataset {dataset}")
        tasks.append((sid, sample_index[sid], label_path))
    worker = partial(_refine_sample, dataset, rig, cfg, seed)
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imports multiprocessing, which only a pool should pay for
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            texts = list(pool.map(worker, tasks))
    else:
        texts = [worker(task) for task in tasks]
    for (sid, _, _), text in zip(tasks, texts):
        atomic_write_text(os.path.join(out, f"{sid}.json"), text)
    return len(tasks)
