"""Camera extrinsic calibration from beacon-pixel correspondences.

Estimates the camera-from-robot transform with a direct linear transform
(DLT) initialization followed by damped Gauss-Newton reprojection
minimization, wrapped in a locally optimised RANSAC loop. The planar
constraint snaps measured beacon heights to their per-plane group mean
before solving, exploiting the fact that calibration beacons sit on two
parallel planes. The correspondences are stored as ``correspondences.csv``
(see correspondences_csv and parse_correspondences_csv).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .config import MIN_PNP_POINTS, CalibOptions, CameraIntrinsics
from .errors import DegenerateConfiguration, NoConvergence, NumericalError, TooFewInliers, UsageError
from .fileio import _csv_rows, atomic_write_text, csv_numbers, dump_json, read_input
from .geom import (
    MIN_DEPTH, RigidTransform, _project_cam, _robot_transform_from_readings, chunks, compose,
    frozen, parse_beacons_csv, row_norms,
)
from .rng import NS_CALIB_RANSAC, distinct_rows, substream

# RANSAC: Gauss-Newton steps per hypothesis (a rough pose is enough to score
# it), how many of the best hypotheses are refit on their inliers, the
# chance of having drawn an all-inlier sample at which the hypotheses stop
# (Fischler & Bolles 1981), and the first block of hypotheses scored before
# that is checked.
HYPOTHESIS_STEPS = 2
LOCAL_OPTIMISED = 8
# Gauss-Newton stops once its best step lowers the RMSE by less than this, pixels.
GN_TOL_PX = 1e-10
CONFIDENCE = 1.0 - 1e-6
FIRST_BLOCK = 64


@dataclass(frozen=True)
class Correspondence:
    """A beacon position (global IPS frame, meters) and its image pixel."""

    beacon_ips: np.ndarray
    pixel: np.ndarray
    plane_tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "beacon_ips", frozen(self.beacon_ips, 3))
        object.__setattr__(self, "pixel", frozen(self.pixel, 2))


@dataclass(frozen=True)
class CalibrationResult:
    extrinsic: RigidTransform  # cam <- robot
    inlier_indices: tuple
    rmse_px: float
    hypotheses: int | None = None  # RANSAC hypotheses scored; not reported

    def __post_init__(self):
        if self.rmse_px < 0:
            raise ValueError("rmse_px must be >= 0")
        if len(self.inlier_indices) == 0:
            raise ValueError("inlier set must be non-empty")


def correspondences_csv(corrs) -> str:
    lines = ["beacon_x,beacon_y,beacon_z,u,v,plane_tag"]
    for c in corrs:
        where = f"correspondence CSV line {len(lines) + 1}"
        lines.append(csv_numbers((*c.beacon_ips, *c.pixel), where) + f",{c.plane_tag}")
    return "\n".join(lines) + "\n"


def parse_correspondences_csv(text: str) -> list:
    """Inverse of correspondences_csv: [Correspondence, ...]."""
    header = "beacon_x,beacon_y,beacon_z,u,v,plane_tag"
    out = []
    for _, parts, vals in _csv_rows(text, header, slice(0, 5), "correspondence"):
        out.append(Correspondence(vals[:3], vals[3:5], parts[5]))
    return out


def apply_planar_constraint(corrs) -> list:
    """Replace each beacon z by the mean z of its plane_tag group.

    x, y and pixels are untouched. Idempotent: a second application is a
    no-op because every group already has constant z.
    """
    corrs = list(corrs)
    for i, c in enumerate(corrs):
        if not c.plane_tag:
            raise UsageError(f"correspondence {i} has no plane_tag")
    mean_z = {}
    for tag in {c.plane_tag for c in corrs}:
        mean_z[tag] = float(
            np.mean([c.beacon_ips[2] for c in corrs if c.plane_tag == tag])
        )
    out = []
    for c in corrs:
        b = np.array([c.beacon_ips[0], c.beacon_ips[1], mean_z[c.plane_tag]])
        out.append(Correspondence(b, c.pixel, c.plane_tag))
    return out


def project(intr: CameraIntrinsics, t_cam_from_ips: RigidTransform, p) -> tuple:
    """Pinhole-project an IPS-frame point; raises NumericalError when z <= 1e-6."""
    pc = t_cam_from_ips.apply(np.asarray(p, dtype=float))
    if pc[2] <= MIN_DEPTH:
        raise NumericalError(f"point has camera-frame depth {pc[2]:.3e} m")
    u, v = _project_cam(intr, pc)
    return float(u), float(v)


def _pixel_errors(intr, rot, tra, pts_robot, pixels) -> np.ndarray:
    """Reprojection distances of the points (n, 3) under the pose (rot, tra),
    or under each pose of a stack (..., 3, 3), (..., 3): shape (..., n).
    Points behind the camera get inf."""
    # Stacked @, not einsum: einsum's sums differ from BLAS in the last bit.
    pc = pts_robot @ np.swapaxes(rot, -1, -2) + tra[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = _project_cam(intr, pc) - pixels
    return np.where(pc[..., 2] > MIN_DEPTH, np.hypot(d[..., 0], d[..., 1]), np.inf)


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a vector, or of each row of an array."""
    sk = np.zeros(v.shape + (3,))
    sk[..., 0, 1] = -v[..., 2]
    sk[..., 0, 2] = v[..., 1]
    sk[..., 1, 0] = v[..., 2]
    sk[..., 1, 2] = -v[..., 0]
    sk[..., 2, 0] = -v[..., 1]
    sk[..., 2, 1] = v[..., 0]
    return sk


def _jacobian(pc: np.ndarray, front: np.ndarray, tra: np.ndarray, intr: CameraIntrinsics):
    """Pixel Jacobian of camera points pc (..., m, 3), of a pose with
    translation tra, in the rotation increment and the translation:
    shape (..., 2m, 6), rows u then v of each point. The rows of the
    points outside ``front`` (..., m) are 0."""
    apix = np.zeros(pc.shape[:-1] + (2, 3))
    z = np.where(front, pc[..., 2], np.inf)
    apix[..., 0, 0] = intr.fx / z
    apix[..., 0, 2] = -intr.fx * pc[..., 0] / z**2
    apix[..., 1, 1] = intr.fy / z
    apix[..., 1, 2] = -intr.fy * pc[..., 1] / z**2
    q = pc - tra  # = R @ X, the lever arm of the rotation increment
    jw = -np.einsum("...ij,...jk->...ik", apix, _skew(q))
    return np.concatenate([jw, apix], axis=-1).reshape(pc.shape[:-2] + (-1, 6))


def _row_medians(v: np.ndarray) -> np.ndarray:
    """np.median(v, axis=1) from one np.sort, up to the sign of a zero: the
    middle value, or the mean of the two middle values when a row's length
    is even. np.median would import numpy.ma on its first call."""
    s = np.sort(v, axis=1)
    mid = v.shape[1] // 2
    if v.shape[1] % 2:
        return s[:, mid]
    return (s[:, mid - 1] + s[:, mid]) / 2.0


def _dlt_poses(pts: np.ndarray, pixels: np.ndarray, intr: CameraIntrinsics):
    """Initial poses from the direct linear transform on normalized pixels,
    of every hypothesis: pts (B, m, 3), pixels (B, m, 2).

    Returns rotations (B, 3, 3), translations (B, 3) and a mask of the
    degenerate hypotheses: those whose DLT system is rank-deficient or
    whose rotation block has zero scale.
    """
    b, m = pts.shape[:2]
    xn = (pixels[..., 0] - intr.cx) / intr.fx
    yn = (pixels[..., 1] - intr.cy) / intr.fy
    xh = np.concatenate([pts, np.ones((b, m, 1))], axis=2)
    a = np.zeros((b, 2 * m, 12))
    a[:, 0::2, 4:8] = -xh
    a[:, 0::2, 8:12] = yn[..., None] * xh
    a[:, 1::2, 0:4] = xh
    a[:, 1::2, 8:12] = -xn[..., None] * xh
    _, s, vt = np.linalg.svd(a)
    degenerate = s[:, 10] < 1e-9 * s[:, 0]
    p = vt[:, -1].reshape(b, 3, 4)
    # Cheirality: most points must land in front of the camera.
    behind = _row_medians(np.einsum("bmk,bk->bm", xh, p[:, 2])) < 0
    p[behind] = -p[behind]
    u, sv, vt_m = np.linalg.svd(p[:, :, :3])
    scale = np.mean(sv, axis=1)
    degenerate |= scale < 1e-12
    rot = u @ vt_m
    mirrored = np.linalg.det(rot) < 0
    rot[mirrored] = u[mirrored] @ np.diag([1.0, 1.0, -1.0]) @ vt_m[mirrored]
    with np.errstate(divide="ignore", invalid="ignore"):
        tra = p[:, :, 3] / scale[:, None]
    return rot, tra, degenerate


def _exp_so3_batch(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for each rotation vector row of w (B, 3)."""
    theta = row_norms(w)
    small = theta < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        kx = _skew(np.where(small[:, None], w, w / theta[:, None]))
    eye = np.broadcast_to(np.eye(3), kx.shape)
    big = (
        eye
        + np.sin(theta)[:, None, None] * kx
        + (1.0 - np.cos(theta))[:, None, None] * (kx @ kx)
    )
    return np.where(small[:, None, None], eye + kx, big)


def _residuals(rot, tra, pts, pixels, intr):
    """Camera points, residuals, RMSE and front mask of each hypothesis.

    Only the points in front of the camera count: the residuals of the
    others are 0 and the RMSE covers the front points. ``ok`` is False
    where fewer than MIN_PNP_POINTS points are in front or the RMSE is not
    finite.
    """
    # Stacked @, not einsum: einsum's sums differ from BLAS in the last bit.
    pc = pts @ rot.transpose(0, 2, 1) + tra[:, None, :]
    front = pc[..., 2] > MIN_DEPTH
    count = front.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.where(front[..., None], _project_cam(intr, pc) - pixels, 0.0)
        rmse = np.sqrt(np.square(d).sum(axis=2).sum(axis=1) / count)
    ok = (count >= MIN_PNP_POINTS) & np.isfinite(rmse)
    return pc, front, d.reshape(len(pts), -1), rmse, ok


def _refine_poses(rot, tra, pts, pixels, intr, max_iter=100):
    """Damped Gauss-Newton on the 6 pose parameters of B hypotheses at once.

    pts (B, m, 3), pixels (B, m, 2). Left-multiplicative axis-angle
    increment on the rotation. Every hypothesis keeps its own damping λ and
    its own accept, damping and stop decisions: it iterates until no damped
    step lowers its RMSE, the RMSE decrease drops below ``GN_TOL_PX``, or
    ``max_iter`` iterations: 100 for a full fit, ``HYPOTHESIS_STEPS`` for a
    RANSAC hypothesis. Only the points in front of the camera count (see
    ``_residuals``). Returns the refined poses and a mask of the hypotheses
    whose initial pose leaves fewer than MIN_PNP_POINTS points in front of
    the camera or a non-finite RMSE.
    """
    rot, tra = rot.copy(), tra.copy()
    pc, front, res, rmse, ok = _residuals(rot, tra, pts, pixels, intr)
    failed = ~ok
    lam = np.zeros(len(rot))
    active = np.flatnonzero(ok)
    for _ in range(max_iter):
        if active.size == 0:
            break
        jac = _jacobian(pc[active], front[active], tra[active, None, :], intr)
        jac_t = jac.transpose(0, 2, 1)
        jtj = jac_t @ jac
        # Stacked @, not einsum: einsum's sums differ from BLAS in the last bit.
        jtr = (jac_t @ res[active][..., None])[..., 0]
        diag = np.einsum("bii->bi", jtj)
        trying = np.arange(len(active))
        improvement = np.zeros(len(active))
        for _try in range(25):
            if trying.size == 0:
                break
            h = active[trying]
            damped = jtj[trying]
            damped[:, range(6), range(6)] += lam[h, None] * diag[trying]
            step = _solve_each(damped, -jtr[trying])
            finite = np.all(np.isfinite(step), axis=1)
            cand_r = _exp_so3_batch(np.where(finite[:, None], step[:, :3], 0.0)) @ rot[h]
            cand_t = tra[h] + step[:, 3:]
            c_pc, c_front, c_res, c_rmse, c_ok = _residuals(cand_r, cand_t, pts[h], pixels[h], intr)
            accept = finite & c_ok & (c_rmse < rmse[h])
            won, kept = h[accept], trying[accept]
            improvement[kept] = rmse[won] - c_rmse[accept]
            rot[won], tra[won] = cand_r[accept], cand_t[accept]
            pc[won], front[won] = c_pc[accept], c_front[accept]
            res[won], rmse[won] = c_res[accept], c_rmse[accept]
            lam[won] = np.where(lam[won] < 1e-10, 0.0, lam[won] / 3.0)
            lost = h[~accept]
            lam[lost] = np.where(lam[lost] == 0.0, 1e-6, lam[lost] * 10.0)
            trying = trying[~accept]
        stays = np.ones(len(active), dtype=bool)
        stays[trying] = False
        stays &= improvement >= GN_TOL_PX
        active = active[stays]
    # Undo accumulated floating-point drift from the incremental updates.
    u, _, vt = np.linalg.svd(rot)
    return u @ vt, tra, failed


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve per system; a singular system gives a NaN step."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def solve_pnp(corrs, intr: CameraIntrinsics, t_robot_from_ips: RigidTransform) -> RigidTransform:
    """Estimate cam<-robot from >= 6 beacon-pixel correspondences.

    DLT initialization on intrinsics-normalized pixels, then Gauss-Newton
    refinement of the reprojection RMSE.
    """
    corrs = list(corrs)
    if len(corrs) < MIN_PNP_POINTS:
        raise DegenerateConfiguration(
            f"need at least {MIN_PNP_POINTS} correspondences, got {len(corrs)}"
        )
    beacons = np.stack([c.beacon_ips for c in corrs])
    pixels = np.stack([c.pixel for c in corrs])
    pts_robot = t_robot_from_ips.apply(beacons)[None]
    rot, tra, degenerate = _dlt_poses(pts_robot, pixels[None], intr)
    if degenerate[0]:
        raise DegenerateConfiguration(
            "DLT system is rank-deficient or its rotation block has zero scale "
            "(points nearly collinear or coincident)"
        )
    rot, tra, failed = _refine_poses(rot, tra, pts_robot, pixels[None], intr)
    if failed[0]:
        raise NoConvergence("initial pose leaves too few points in front of the camera")
    return RigidTransform(rot[0], tra[0], src=t_robot_from_ips.dst, dst="cam")


def reprojection_rmse(corrs, intr, extrinsic, t_robot_from_ips, subset=None) -> float:
    """RMSE in pixels over ``subset`` (all correspondences by default).

    Points behind the camera contribute an infinite error.
    """
    corrs = list(corrs)
    idx = np.arange(len(corrs)) if subset is None else np.asarray(list(subset), dtype=int)
    if idx.size == 0:
        raise UsageError("empty correspondence subset")
    t = compose(extrinsic, t_robot_from_ips)
    beacons = np.stack([corrs[i].beacon_ips for i in idx])
    pixels = np.stack([corrs[i].pixel for i in idx])
    return _rmse(_pixel_errors(intr, t.rotation, t.translation, beacons, pixels))


def _consensus(err: np.ndarray, delta_px: float):
    """Inlier masks, counts and inlier RMSEs of the pixel errors (..., n)."""
    masks = err < delta_px
    counts = masks.sum(axis=-1)
    with np.errstate(invalid="ignore"):
        rmses = np.sqrt(np.where(masks, np.square(err), 0.0).sum(axis=-1) / counts)
    return masks, counts, rmses


def hypotheses_needed(inliers: int, n: int) -> float:
    """How many 6-point samples of n correspondences, ``inliers`` of them
    inliers, draw one of only inliers with probability ``CONFIDENCE``:
    ceil(log(1 - CONFIDENCE) / log(1 - w**6)) with w = inliers / n. 0 when
    every correspondence is an inlier, inf when none is."""
    p_clean = (inliers / n) ** MIN_PNP_POINTS
    if p_clean >= 1.0:
        return 0
    if p_clean <= 0.0:
        return math.inf
    return math.ceil(math.log(1.0 - CONFIDENCE) / math.log1p(-p_clean))


def solve_pnp_ransac(
    corrs,
    intr: CameraIntrinsics,
    t_robot_from_ips: RigidTransform,
    delta_px: float = 8.0,
    iterations: int = 2000,
    seed: int = 0,
) -> CalibrationResult:
    """Locally optimised RANSAC over at most ``iterations`` 6-point PnP
    hypotheses.

    Each iteration samples 6 correspondences without replacement, fits a
    pose to them with the DLT and ``HYPOTHESIS_STEPS`` Gauss-Newton steps,
    and counts points with reprojection error strictly below ``delta_px``.
    The samples of all iterations are one ``distinct_rows`` array from the
    stream of ``seed``. They are scored in blocks of ``FIRST_BLOCK``, twice
    that, and so on; after a block the loop stops once the hypotheses scored
    reach ``hypotheses_needed`` of the best inlier count so far, so the
    scored hypotheses are a prefix of the samples (``hypotheses`` of the
    result counts them). Hypotheses rank by inlier count, then lower inlier
    RMSE, then the earlier iteration. Each of the ``LOCAL_OPTIMISED`` best
    is refit with ``solve_pnp`` on its inliers and rescored, for as long as
    its inlier count grows (Chum, Matas & Kittler 2003); a refit that fails
    ends it. The best of these hypotheses and refits, by the same ranking
    (a refit ranks as its hypothesis's iteration), gives the inlier set.
    The final model is a PnP refit on that set; ``rmse_px`` is reported
    over those inliers only. Each inlier set is fit once: a set that several
    refits reach is fit the first time, and the final model is the local
    optimisation's fit of the winning set.
    """
    corrs = list(corrs)
    n = len(corrs)
    if n < MIN_PNP_POINTS:
        raise TooFewInliers(f"need at least {MIN_PNP_POINTS} correspondences, got {n}")
    if not 0.0 < delta_px < math.inf:
        raise ValueError(f"delta_px must be a finite number > 0, got {delta_px}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    beacons = np.stack([c.beacon_ips for c in corrs])
    pixels = np.stack([c.pixel for c in corrs])
    pts_robot = t_robot_from_ips.apply(beacons)

    draws = distinct_rows(substream(seed, NS_CALIB_RANSAC), n, MIN_PNP_POINTS, iterations)
    # (count, -rmse, -iteration, mask) of the best hypotheses so far
    top = []
    rank = itemgetter(0, 1, 2)
    scored, block = 0, FIRST_BLOCK
    while scored < iterations and scored < hypotheses_needed(top[0][0] if top else 0, n):
        start, scored, block = scored, min(iterations, scored + block), 2 * block
        for part in chunks(scored - start, n):
            samples = draws[start:scored][part]
            rot, tra, degenerate = _dlt_poses(pts_robot[samples], pixels[samples], intr)
            live = np.flatnonzero(~degenerate)
            if live.size == 0:
                continue
            rot, tra, failed = _refine_poses(
                rot[live], tra[live], pts_robot[samples[live]], pixels[samples[live]], intr,
                max_iter=HYPOTHESIS_STEPS,
            )
            err = _pixel_errors(intr, rot[~failed], tra[~failed], pts_robot, pixels)
            masks, counts, rmses = _consensus(err, delta_px)
            iteration = start + part.start + live[~failed]
            # the largest count, then the lowest RMSE, then the earliest hypothesis
            best = np.lexsort((rmses, -counts))[:LOCAL_OPTIMISED]
            top += [(int(counts[j]), -float(rmses[j]), -int(iteration[j]), masks[j]) for j in best if counts[j]]
            top = sorted(top, key=rank, reverse=True)[:LOCAL_OPTIMISED]
    fits = {}  # the solve_pnp fit of each inlier mask, by its bytes; a failed one raises again

    def fit_of(mask):
        key = mask.tobytes()
        if key not in fits:
            fits[key] = solve_pnp([corrs[j] for j in np.flatnonzero(mask)], intr, t_robot_from_ips)
        return fits[key]

    ranked = list(top)
    for count, _, order, mask in top:
        while True:
            try:
                fit = fit_of(mask)
            except (DegenerateConfiguration, NoConvergence):
                break
            err = _pixel_errors(intr, fit.rotation, fit.translation, pts_robot, pixels)
            mask, grown, rmse = _consensus(err, delta_px)
            if grown <= count:
                break
            count = int(grown)
            ranked.append((count, -float(rmse), order, mask))
    count, _, _, best_mask = max(ranked, key=rank, default=(0, 0, 0, None))
    if count < MIN_PNP_POINTS:
        raise TooFewInliers(f"best hypothesis has {count} inliers, need {MIN_PNP_POINTS}")
    inliers = tuple(int(j) for j in np.flatnonzero(best_mask))
    final = fit_of(best_mask)
    rmse = reprojection_rmse(corrs, intr, final, t_robot_from_ips, subset=inliers)
    return CalibrationResult(
        extrinsic=final,
        inlier_indices=inliers,
        rmse_px=rmse,
        hypotheses=scored,
    )


# The calibration report writes its derived floats (the extrinsic entries and
# rmse_px) rounded to this many decimal places, with -0.0 written as 0.0.
# Their last digits (about 1e-15) depend on which BLAS/LAPACK kernel runs the
# SVDs and the Gauss-Newton solve; the rounding gives the report one byte form
# across BLAS builds, unless a value's spread straddles a rounding step.
# CalibrationResult itself keeps full precision.
REPORT_DECIMALS = 12


def _report_float(x) -> float:
    return round(float(x), REPORT_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0


def write_calibration(
    corr_path: str, beacon_path: str, intr: CameraIntrinsics, opts: CalibOptions, seed: int, out: str
) -> tuple:
    """The calibrate stage: calibrate from a correspondences.csv and the robot's
    beacons.csv, write the report JSON to ``out``; returns (result, correspondence count)."""
    corrs = read_input(corr_path, parse_correspondences_csv)
    if len(corrs) < MIN_PNP_POINTS:
        raise UsageError(
            f"{corr_path}: need at least {MIN_PNP_POINTS} correspondences, got {len(corrs)}"
        )
    readings = read_input(beacon_path, parse_beacons_csv)
    t_robot_from_ips = _robot_transform_from_readings(readings, beacon_path)
    solve_corrs = apply_planar_constraint(corrs) if opts.planar else corrs
    result = solve_pnp_ransac(
        solve_corrs, intr, t_robot_from_ips, opts.delta_px, opts.iterations, seed
    )
    report = {
        "extrinsic": [_report_float(v) for v in result.extrinsic.matrix.reshape(-1)],
        "inliers": [int(i) for i in result.inlier_indices],
        "rmse_px": _report_float(result.rmse_px),
        "method": "dlt+gauss-newton",
        "delta_px": float(opts.delta_px),
        "planar": opts.planar,
    }
    atomic_write_text(out, dump_json(report))
    return result, len(corrs)

