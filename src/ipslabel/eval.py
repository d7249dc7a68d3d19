"""Evaluation: 2D/3D IoU, label-set comparison, down-sampling study.

3D IoU is exact for yaw-only boxes: the bird's-eye-view footprints are
convex polygons, so their intersection comes from Sutherland-Hodgman
clipping, and the vertical extent overlaps as an interval.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import ClassMismatch, FrameMismatch, MissingSample, NumericalError, UsageError
from .fileio import read_json
from .labelgen import Box2, ObjectSpec, OrientedBox3, label_objects
from .refine import RefineConfig, fitness, refine_label
from .rng import NS_DOWNSAMPLE, derive_seed, substream

MATCH_GATE = 2.0  # meters; max center distance when pairing labels


def iou_2d(a: Box2, b: Box2) -> float:
    iw = min(a.u1, b.u1) - max(a.u0, b.u0)
    ih = min(a.v1, b.v1) - max(a.v0, b.v0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return float(inter / union)


def _footprint(box: OrientedBox3) -> np.ndarray:
    """BEV corners (4, 2), counter-clockwise."""
    return box.vertices()[:4, :2]


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon by a convex CCW polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = b - a
        if not output:
            break
        polygon = output
        output = []
        prev = polygon[-1]
        prev_inside = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0
        for cur in polygon:
            cur_inside = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= 0
            if cur_inside != prev_inside:
                d = cur - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                if abs(denom) > 1e-15:
                    t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / denom
                    output.append(prev + t * d)
            if cur_inside:
                output.append(cur)
            prev = cur
            prev_inside = cur_inside
    return np.array(output) if output else np.zeros((0, 2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def iou_3d(a: OrientedBox3, b: OrientedBox3) -> float:
    """Volume IoU of two yaw-only boxes sharing a frame."""
    if a.frame != b.frame:
        raise FrameMismatch(f"boxes live in different frames: {a.frame!r} vs {b.frame!r}")
    fa, fb = _footprint(a), _footprint(b)
    inter_area = _polygon_area(_clip_polygon(fa, fb))
    za0, za1 = a.center[2] - a.dims[2] / 2.0, a.center[2] + a.dims[2] / 2.0
    zb0, zb1 = b.center[2] - b.dims[2] / 2.0, b.center[2] + b.dims[2] / 2.0
    dz = min(za1, zb1) - max(za0, zb0)
    inter = inter_area * max(dz, 0.0)
    union = a.volume + b.volume - inter
    if union <= 0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Down-sampling study


def downsample_study(
    pcd: PointCloud,
    unrefined: OrientedBox3,
    spec: ObjectSpec,
    proportions,
    trials: int,
    cfg: RefineConfig,
    seed: int = 0,
) -> list:
    """Refinement robustness vs point density.

    For each proportion p, each trial keeps a random fraction p of the
    points within cfg.radius of the unrefined label (the rest of the cloud
    is untouched), refines on the down-sampled cloud, and reports the best
    box plus its fitness evaluated on the original full cloud. Each trial's
    subset and refinement draw from streams of ``seed``. Numerical
    refinement failures are recorded per trial instead of aborting the
    study; a usage error (such as a class without proposal functions) ends it.
    """
    proportions = [float(p) for p in proportions]
    if any(not (0.0 < p <= 1.0) for p in proportions):
        raise ValueError("proportions must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pts = pcd.points
    near = np.linalg.norm(pts - unrefined.center, axis=1) <= cfg.radius
    near_idx, far_idx = np.flatnonzero(near), np.flatnonzero(~near)
    rows = []
    for pi, proportion in enumerate(proportions):
        for trial in range(trials):
            rng = substream(seed, NS_DOWNSAMPLE, pi, trial)
            keep_n = max(1, int(round(proportion * near_idx.size))) if near_idx.size else 0
            keep = rng.choice(near_idx.size, size=keep_n, replace=False)
            sub = PointCloud(
                np.vstack([pts[near_idx[np.sort(keep)]], pts[far_idx]]), frame=pcd.frame
            )
            trial_seed = derive_seed(seed, NS_DOWNSAMPLE, pi, trial, 1)
            row = {"proportion": proportion, "trial": trial}
            try:
                box = refine_label(sub, unrefined, spec, cfg, trial_seed)
                row["box3d"] = box.to_dict()
                row["fitness"] = fitness(box, pcd, cfg.shell_delta)
            except NumericalError as e:
                row["error"] = f"{type(e).__name__}: {e}"
            rows.append(row)
    return rows


def study_means(rows) -> dict:
    """Mean fitness per proportion over successful trials."""
    sums, counts = {}, {}
    for row in rows:
        if "fitness" not in row:
            continue
        p = row["proportion"]
        sums[p] = sums.get(p, 0.0) + row["fitness"]
        counts[p] = counts.get(p, 0) + 1
    return {p: sums[p] / counts[p] for p in sums}


# ---------------------------------------------------------------------------
# Label-set comparison


@dataclass(frozen=True)
class EvalReport:
    per_sample: tuple
    mean_iou_2d: float | None
    mean_iou_3d: float
    matched: int
    unmatched_auto: int

    def to_dict(self) -> dict:
        return {
            "per_sample": list(self.per_sample),
            "mean_iou_2d": self.mean_iou_2d,
            "mean_iou_3d": self.mean_iou_3d,
            "matched": self.matched,
            "unmatched_auto": self.unmatched_auto,
        }


def _load_label_dir(path: str) -> dict:
    """{sample id: [(class, 3D box, 2D box or None), ...]} of a label directory."""
    out = {}
    for name in sorted(f for f in os.listdir(path) if f.endswith(".json")):
        file = os.path.join(path, name)
        objects = read_json(file, label_objects)
        if any(box3 is None for _, box3, _ in objects):
            raise UsageError(f"{file}: an object has no box3d_lidar to evaluate")
        out[name[: -len(".json")]] = [(entry["class"], box3, box2) for entry, box3, box2 in objects]
    return out


def compare_labels(auto_dir: str, reference_dir: str) -> EvalReport:
    """Pair labels by (sample id, class, nearest center within 2 m) and
    aggregate IoUs."""
    auto = _load_label_dir(auto_dir)
    ref = _load_label_dir(reference_dir)
    if not set(ref) & set(auto):
        raise MissingSample(
            f"no common sample ids between {auto_dir!r} and {reference_dir!r}"
        )
    per_sample = []
    all_3d, all_2d = [], []
    matched = 0
    unmatched_auto = 0
    for sid in sorted(ref):
        if sid not in auto:
            raise MissingSample(f"reference sample {sid!r} has no auto labels")
        auto_objs = auto[sid]
        used = [False] * len(auto_objs)
        matches = []
        for rclass, rbox, rbox2 in ref[sid]:
            best_j, best_d = None, MATCH_GATE
            for j, (aclass, abox, _) in enumerate(auto_objs):
                if used[j] or aclass != rclass:
                    continue
                d = float(np.linalg.norm(abox.center - rbox.center))
                if d <= best_d:
                    best_j, best_d = j, d
            if best_j is None:
                raise ClassMismatch(
                    f"sample {sid!r}: no auto label of class {rclass!r} "
                    f"within {MATCH_GATE} m of the reference box"
                )
            used[best_j] = True
            matched += 1
            _, abox, abox2 = auto_objs[best_j]
            i3 = iou_3d(abox, rbox)
            i2 = iou_2d(abox2, rbox2) if (rbox2 is not None and abox2 is not None) else None
            all_3d.append(i3)
            if i2 is not None:
                all_2d.append(i2)
            matches.append(
                {"class": rclass, "iou_3d": i3, "iou_2d": i2}
            )
        unmatched_auto += used.count(False)
        per_sample.append({"sample": sid, "matches": matches})
    return EvalReport(
        per_sample=tuple(per_sample),
        mean_iou_2d=float(np.mean(all_2d)) if all_2d else None,
        mean_iou_3d=float(np.mean(all_3d)),
        matched=matched,
        unmatched_auto=unmatched_auto,
    )
