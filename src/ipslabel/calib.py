"""Camera extrinsic calibration from beacon-pixel correspondences.

Estimates the camera-from-robot transform with a direct linear transform
(DLT) initialization followed by damped Gauss-Newton reprojection
minimization, wrapped in a RANSAC loop. The planar constraint snaps
measured beacon heights to their per-plane group mean before solving,
exploiting the fact that calibration beacons sit on two parallel planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    EmptySubset,
    MissingPlaneTag,
    NoConvergence,
    TooFewInliers,
)
from .geom import RigidTransform, chunks, compose, row_norms
from .rng import NS_CALIB_RANSAC, distinct_rows, substream

MIN_PNP_POINTS = 6
MIN_DEPTH = 1e-6  # meters; camera-frame z below this counts as behind the camera


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; images are assumed rectified (no distortion)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image size must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class Correspondence:
    """A beacon position (global IPS frame, meters) and its image pixel."""

    beacon_ips: np.ndarray
    pixel: np.ndarray
    plane_tag: str | None = None

    def __post_init__(self):
        b = np.array(self.beacon_ips, dtype=float).reshape(3)
        p = np.array(self.pixel, dtype=float).reshape(2)
        b.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "beacon_ips", b)
        object.__setattr__(self, "pixel", p)


@dataclass(frozen=True)
class CalibrationResult:
    extrinsic: RigidTransform  # cam <- robot
    inlier_indices: tuple
    rmse_px: float
    solver: str = "dlt+gauss-newton"
    delta_px: float | None = None

    def __post_init__(self):
        if self.rmse_px < 0:
            raise ValueError("rmse_px must be >= 0")
        if len(self.inlier_indices) == 0:
            raise ValueError("inlier set must be non-empty")


def apply_planar_constraint(corrs) -> list:
    """Replace each beacon z by the mean z of its plane_tag group.

    x, y and pixels are untouched. Idempotent: a second application is a
    no-op because every group already has constant z.
    """
    corrs = list(corrs)
    for i, c in enumerate(corrs):
        if not c.plane_tag:
            raise MissingPlaneTag(f"correspondence {i} has no plane_tag")
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
    """Pinhole-project an IPS-frame point; raises BehindCamera when z <= 1e-6."""
    pc = t_cam_from_ips.apply(np.asarray(p, dtype=float))
    if pc[2] <= MIN_DEPTH:
        raise BehindCamera(f"point has camera-frame depth {pc[2]:.3e} m")
    u, v = _project_cam(intr, pc)
    return float(u), float(v)


def _project_cam(intr: CameraIntrinsics, pts_cam: np.ndarray):
    """Pinhole projection of camera-frame points (..., 3) to pixels (..., 2).
    No depth checks."""
    z = pts_cam[..., 2]
    u = intr.fx * pts_cam[..., 0] / z + intr.cx
    v = intr.fy * pts_cam[..., 1] / z + intr.cy
    return np.stack([u, v], axis=-1)


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
    behind = np.median(np.einsum("bmk,bk->bm", xh, p[:, 2]), axis=1) < 0
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


def _refine_poses(rot, tra, pts, pixels, intr, max_iter=100, tol=1e-10):
    """Damped Gauss-Newton on the 6 pose parameters of B hypotheses at once.

    pts (B, m, 3), pixels (B, m, 2). Left-multiplicative axis-angle
    increment on the rotation. Every hypothesis keeps its own damping λ and
    its own accept, damping and stop decisions: it iterates until no damped
    step lowers its RMSE, the RMSE decrease drops below ``tol`` pixels, or
    ``max_iter`` iterations. Only the points in front of the camera count
    (see ``_residuals``). Returns the refined poses and a mask of the
    hypotheses whose initial pose leaves fewer than MIN_PNP_POINTS points
    in front of the camera or a non-finite RMSE.
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
        stays &= improvement >= tol
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
        raise EmptySubset("empty correspondence subset")
    t = compose(extrinsic, t_robot_from_ips)
    beacons = np.stack([corrs[i].beacon_ips for i in idx])
    pixels = np.stack([corrs[i].pixel for i in idx])
    return _rmse(_pixel_errors(intr, t.rotation, t.translation, beacons, pixels))


def solve_pnp_ransac(
    corrs,
    intr: CameraIntrinsics,
    t_robot_from_ips: RigidTransform,
    delta_px: float = 8.0,
    iterations: int = 2000,
    seed: int = 0,
) -> CalibrationResult:
    """RANSAC over 6-point PnP hypotheses.

    Each iteration samples 6 correspondences without replacement, solves
    PnP on them, and counts points with reprojection error strictly below
    ``delta_px``. The samples of all iterations are one ``distinct_rows``
    array from the stream of ``seed``. Ties break toward lower inlier RMSE,
    then the earlier iteration. The final model is a PnP refit on the
    winning inlier set; ``rmse_px`` is reported over those inliers only.
    """
    corrs = list(corrs)
    n = len(corrs)
    if n < MIN_PNP_POINTS:
        raise TooFewInliers(f"need at least {MIN_PNP_POINTS} correspondences, got {n}")
    if delta_px <= 0:
        raise ValueError("delta_px must be positive")
    beacons = np.stack([c.beacon_ips for c in corrs])
    pixels = np.stack([c.pixel for c in corrs])
    pts_robot = t_robot_from_ips.apply(beacons)

    draws = distinct_rows(substream(seed, NS_CALIB_RANSAC), n, MIN_PNP_POINTS, iterations)
    best_key = None
    best_mask = None
    for part in chunks(iterations, n):
        samples = draws[part]
        rot, tra, degenerate = _dlt_poses(pts_robot[samples], pixels[samples], intr)
        live = np.flatnonzero(~degenerate)
        if live.size == 0:
            continue
        rot, tra, failed = _refine_poses(
            rot[live], tra[live], pts_robot[samples[live]], pixels[samples[live]], intr
        )
        err = _pixel_errors(intr, rot[~failed], tra[~failed], pts_robot, pixels)
        masks = err < delta_px
        counts = masks.sum(axis=1)
        if counts.size == 0 or counts.max() == 0:
            continue
        with np.errstate(invalid="ignore"):
            rmses = np.sqrt(np.where(masks, np.square(err), 0.0).sum(axis=1) / counts)
        # the largest count, then the lowest RMSE, then the earliest hypothesis
        j = np.lexsort((rmses, -counts))[0]
        key = (int(counts[j]), -float(rmses[j]))
        if best_key is None or key > best_key:
            best_key = key
            best_mask = masks[j]
    if best_mask is None or int(best_mask.sum()) < MIN_PNP_POINTS:
        found = 0 if best_mask is None else int(best_mask.sum())
        raise TooFewInliers(
            f"best hypothesis has {found} inliers, need {MIN_PNP_POINTS}"
        )
    inliers = tuple(int(j) for j in np.flatnonzero(best_mask))
    final = solve_pnp([corrs[j] for j in inliers], intr, t_robot_from_ips)
    rmse = reprojection_rmse(corrs, intr, final, t_robot_from_ips, subset=inliers)
    return CalibrationResult(
        extrinsic=final,
        inlier_indices=inliers,
        rmse_px=rmse,
        delta_px=float(delta_px),
    )
