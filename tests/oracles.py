"""Independent reference implementations used as test oracles.

Everything here is written from first principles (scalar loops, explicit
formulas, homogeneous matrices) rather than calling into the package, so
these functions can disagree with the library when the library is wrong.
Keep them boring and slow.
"""

from __future__ import annotations

import math

import numpy as np


def cross_oracle(a, b) -> np.ndarray:
    """Cross product from the explicit determinant formula."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def homogeneous_matrix(rotation, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = np.asarray(rotation, dtype=float)
    m[:3, 3] = np.asarray(translation, dtype=float)
    return m


def transform_point_oracle(matrix_4x4, p) -> np.ndarray:
    """Apply a 4x4 homogeneous transform to a single point."""
    ph = np.array([p[0], p[1], p[2], 1.0])
    out = np.asarray(matrix_4x4, dtype=float) @ ph
    return out[:3] / out[3]


def project_oracle(fx, fy, cx, cy, matrix_cam_from_x, p):
    """Pinhole projection via an explicit 3x4 projection matrix."""
    proj = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    pc = transform_point_oracle(matrix_cam_from_x, p)
    if pc[2] <= 0:
        raise ValueError("point behind camera in oracle")
    uvw = proj @ pc
    return uvw[0] / uvw[2], uvw[1] / uvw[2]


def rmse_oracle(errors) -> float:
    errors = [float(e) for e in errors]
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random proper rotation from QR decomposition."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def yaw_rotation(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def box_contains_oracle(center, dims, yaw, points) -> np.ndarray:
    """Boolean membership of points in a yaw box, via explicit rotation."""
    center = np.asarray(center, dtype=float)
    dims = np.asarray(dims, dtype=float)
    local = (np.asarray(points, dtype=float) - center) @ yaw_rotation(yaw)
    return np.all(np.abs(local) <= dims / 2.0 + 1e-12, axis=1)


def fitness_oracle(center, dims, yaw, points, delta) -> int:
    """Shell count, one point and one axis at a time."""
    rot = yaw_rotation(yaw)
    half = np.asarray(dims, dtype=float) / 2.0
    total = 0
    for p in np.asarray(points, dtype=float):
        local = rot.T @ (np.asarray(p) - center)
        if any(abs(local[k]) > half[k] + delta for k in range(3)):
            continue
        for k in range(3):
            if abs(local[k]) >= half[k] - delta:
                total += 1
    return total


def mc_iou3d_oracle(box_a, box_b, n_samples, rng) -> float:
    """Monte-Carlo volume IoU of two yaw boxes.

    Samples uniformly over the joint axis-aligned bounding box and forms
    the ratio of |A and B| to |A or B| counts.
    """
    corners = []
    for box in (box_a, box_b):
        local = (
            np.array(
                [
                    [sx, sy, sz]
                    for sx in (-1.0, 1.0)
                    for sy in (-1.0, 1.0)
                    for sz in (-1.0, 1.0)
                ]
            )
            * np.asarray(box.dims)
            / 2.0
        )
        corners.append(local @ yaw_rotation(box.yaw).T + np.asarray(box.center))
    corners = np.vstack(corners)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a = box_contains_oracle(box_a.center, box_a.dims, box_a.yaw, pts)
    in_b = box_contains_oracle(box_b.center, box_b.dims, box_b.yaw, pts)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return float(np.count_nonzero(in_a & in_b) / union)


def ray_box_hit_oracle(origin, direction, center, dims, yaw):
    """Nearest ray/solid-box intersection distance, or None.

    Classic slab test carried out axis by axis in the box frame, written
    independently of the simulator's vectorized version.
    """
    rot = yaw_rotation(yaw)
    o = rot.T @ (np.asarray(origin, dtype=float) - np.asarray(center, dtype=float))
    d = rot.T @ np.asarray(direction, dtype=float)
    half = np.asarray(dims, dtype=float) / 2.0
    t_near, t_far = -math.inf, math.inf
    for k in range(3):
        if abs(d[k]) < 1e-15:
            if abs(o[k]) > half[k]:
                return None
            continue
        t1 = (-half[k] - o[k]) / d[k]
        t2 = (half[k] - o[k]) / d[k]
        t1, t2 = min(t1, t2), max(t1, t2)
        t_near = max(t_near, t1)
        t_far = min(t_far, t2)
    if t_near > t_far or t_far < 0:
        return None
    return t_near if t_near > 0 else t_far


def crop_filter_oracle(points, center, radius, normal, d, threshold, min_height=None):
    """Brute-force index list for the neighborhood crop + ground strip."""
    keep = []
    normal = np.asarray(normal, dtype=float)
    for i, p in enumerate(np.asarray(points, dtype=float)):
        if math.dist(p, center) > radius:
            continue
        height = float(normal @ p - d)
        if height <= threshold:
            continue
        if min_height is not None and height < min_height:
            continue
        keep.append(i)
    return keep


def point_on_box_surface_oracle(p, center, dims, yaw, tol) -> bool:
    """Is p within tol of the surface of a yaw box?"""
    rot = yaw_rotation(yaw)
    local = rot.T @ (np.asarray(p, dtype=float) - np.asarray(center, dtype=float))
    half = np.asarray(dims, dtype=float) / 2.0
    if np.any(np.abs(local) > half + tol):
        return False
    return bool(np.any(np.abs(np.abs(local) - half) <= tol))


def ascii_ply(points) -> str:
    """An ASCII PLY of (N, 3) points, as tools other than ipslabel write it:
    7 header lines, then one row per point of the shortest decimal text that
    round-trips each float (``repr``)."""
    rows = [f"{x!r} {y!r} {z!r}" for x, y, z in np.asarray(points, dtype=float).tolist()]
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}",
              "property double x", "property double y", "property double z", "end_header"]
    return "\n".join(header + rows) + "\n"
