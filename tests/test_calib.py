"""Planar constraint, projection, PnP, and the RANSAC wrapper."""

import math
import os

import numpy as np
import pytest

from ipslabel import calib
from ipslabel.calib import (
    CameraIntrinsics,
    Correspondence,
    apply_planar_constraint,
    parse_correspondences_csv,
    project,
    reprojection_rmse,
    solve_pnp,
    solve_pnp_ransac,
    write_calibration,
)
from ipslabel.calib import (
    CONFIDENCE,
    FIRST_BLOCK,
    HYPOTHESIS_STEPS,
    LOCAL_OPTIMISED,
    _dlt_poses,
    _pixel_errors,
    _refine_poses,
    _rmse,
    _row_medians,
    _solve_each,
    hypotheses_needed,
)
from ipslabel.errors import (
    DegenerateConfiguration,
    NoConvergence,
    NumericalError,
    TooFewInliers,
    UsageError,
)
from ipslabel.config import CalibOptions, _manifest_rig
from ipslabel.fileio import read_input
from ipslabel.geom import (
    RigidTransform,
    _robot_transform_from_readings,
    compose,
    parse_beacons_csv,
)
from ipslabel.rng import NS_CALIB_RANSAC, distinct_rows, substream

from .conftest import FIXTURES
from .oracles import homogeneous_matrix, project_oracle, random_rotation, rmse_oracle

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


def make_pose_pair(rng):
    """A random true extrinsic (cam<-robot) and robot<-ips transform."""
    t_true = RigidTransform(random_rotation(rng), rng.uniform(-0.5, 0.5, 3), src="robot", dst="cam")
    t_ri = RigidTransform(random_rotation(rng), rng.uniform(-2, 2, 3), src="ips", dst="robot")
    return t_true, t_ri


def synth_corrs(n, rng, t_true, t_ri, pixel_sigma=0.0, intr=INTR, behind=0):
    """Correspondences built by the oracle projection, not the library's.

    The first ``behind`` beacons lie behind the camera; their pixels are
    where the pinhole formula puts them, which no camera sees.
    """
    t_cam_from_ips = compose(t_true, t_ri)
    m_ips_from_cam = np.linalg.inv(homogeneous_matrix(t_cam_from_ips.rotation, t_cam_from_ips.translation))
    m_identity = np.eye(4)
    corrs = []
    for i in range(n):
        z = rng.uniform(2.0, 8.0)
        pc = np.array([rng.uniform(-0.5, 0.5) * z, rng.uniform(-0.35, 0.35) * z, z])
        if i < behind:
            pc = -pc
            u = intr.fx * pc[0] / pc[2] + intr.cx
            v = intr.fy * pc[1] / pc[2] + intr.cy
        else:
            u, v = project_oracle(intr.fx, intr.fy, intr.cx, intr.cy, m_identity, pc)
        p_ips = (m_ips_from_cam @ np.append(pc, 1.0))[:3]
        pixel = np.array([u, v]) + pixel_sigma * rng.standard_normal(2)
        corrs.append(Correspondence(p_ips, pixel))
    return corrs


def rotation_angle(r_a, r_b) -> float:
    """Angle of the relative rotation between two matrices, radians."""
    cos = (np.trace(r_a @ r_b.T) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, cos)))


# ---------------------------------------------------------------------------
# apply_planar_constraint


class TestApplyPlanarConstraint:
    def test_group_z_replaced_by_mean(self):
        corrs = [
            Correspondence((1, 2, 0.01), (10, 20), "floor"),
            Correspondence((3, 4, -0.01), (30, 40), "floor"),
        ]
        out = apply_planar_constraint(corrs)
        assert [c.beacon_ips[2] for c in out] == [0.0, 0.0]
        # x, y and pixels untouched
        np.testing.assert_array_equal(out[0].beacon_ips[:2], (1, 2))
        np.testing.assert_array_equal(out[1].beacon_ips[:2], (3, 4))
        np.testing.assert_array_equal(out[0].pixel, (10, 20))

    def test_constant_group_is_unchanged(self):
        corrs = [Correspondence((i, 0, 0.75), (i, i), "table") for i in range(4)]
        out = apply_planar_constraint(corrs)
        for before, after in zip(corrs, out):
            np.testing.assert_array_equal(after.beacon_ips, before.beacon_ips)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        corrs = [
            Correspondence(rng.uniform(-3, 3, 3), rng.uniform(0, 640, 2), "floor" if i % 2 else "table")
            for i in range(10)
        ]
        once = apply_planar_constraint(corrs)
        twice = apply_planar_constraint(once)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a.beacon_ips, b.beacon_ips)

    def test_two_groups_collapse_to_their_means(self):
        rng = np.random.default_rng(1)
        floor_z = rng.uniform(-0.02, 0.02, 8)
        table_z = 0.75 + rng.uniform(-0.02, 0.02, 8)
        corrs = [Correspondence((i, i, z), (0, 0), "floor") for i, z in enumerate(floor_z)]
        corrs += [Correspondence((i, i, z), (0, 0), "table") for i, z in enumerate(table_z)]
        out = apply_planar_constraint(corrs)
        out_floor = [c.beacon_ips[2] for c in out[:8]]
        out_table = [c.beacon_ips[2] for c in out[8:]]
        assert max(out_floor) == min(out_floor)  # intra-group variance exactly 0
        assert max(out_table) == min(out_table)
        mean_floor = sum(floor_z) / 8.0
        mean_table = sum(table_z) / 8.0
        assert out_floor[0] == pytest.approx(mean_floor, abs=1e-15)
        assert out_table[0] - out_floor[0] == pytest.approx(mean_table - mean_floor, abs=1e-12)

    def test_missing_tag_rejected(self):
        corrs = [Correspondence((0, 0, 0), (0, 0), "floor"), Correspondence((1, 1, 1), (5, 5))]
        with pytest.raises(UsageError, match="correspondence 1 has no plane_tag"):
            apply_planar_constraint(corrs)


# ---------------------------------------------------------------------------
# project


class TestProject:
    def setup_method(self):
        self.intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
        self.ident = RigidTransform(np.eye(3), np.zeros(3), src="ips", dst="cam")

    def test_optical_axis_hits_principal_point(self):
        assert project(self.intr, self.ident, (0, 0, 1)) == (0.0, 0.0)

    def test_similar_triangles(self):
        assert project(self.intr, self.ident, (0.5, 0, 1)) == (50.0, 0.0)

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rot = random_rotation(rng)
            tra = rng.uniform(-1, 1, 3)
            t = RigidTransform(rot, tra, src="ips", dst="cam")
            # choose the point in camera coordinates so depth is positive
            pc = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 6)])
            p = np.linalg.inv(homogeneous_matrix(rot, tra)) @ np.append(pc, 1.0)
            u, v = project(INTR, t, p[:3])
            eu, ev = project_oracle(INTR.fx, INTR.fy, INTR.cx, INTR.cy, homogeneous_matrix(rot, tra), p[:3])
            assert u == pytest.approx(eu, abs=1e-9)
            assert v == pytest.approx(ev, abs=1e-9)

    def test_point_behind_camera_raises(self):
        with pytest.raises(NumericalError, match="camera-frame depth"):
            project(self.intr, self.ident, (0, 0, -1.0))


# ---------------------------------------------------------------------------
# solve_pnp


class TestSolvePnp:
    def test_recovers_known_pose_from_exact_projections(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t_true, t_ri = make_pose_pair(rng)
            corrs = synth_corrs(20, rng, t_true, t_ri)
            est = solve_pnp(corrs, INTR, t_ri)
            assert rotation_angle(est.rotation, t_true.rotation) <= 1e-6
            assert np.abs(est.translation - t_true.translation).max() <= 1e-6
            assert est.src == "robot" and est.dst == "cam"

    def test_pixel_noise_keeps_rmse_bounded(self):
        rng = np.random.default_rng(4)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(63, rng, t_true, t_ri, pixel_sigma=0.5)
        est = solve_pnp(corrs, INTR, t_ri)
        assert reprojection_rmse(corrs, INTR, est, t_ri) <= 1.0

    def test_two_plane_points_recover_identity(self):
        # Structure on the z = 0 and z = 0.75 planes, viewed through a
        # permutation robot frame so every point has positive depth.
        rng = np.random.default_rng(5)
        rot_ri = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        t_ri = RigidTransform(rot_ri, np.zeros(3), src="ips", dst="robot")
        corrs = []
        for i in range(16):
            z = 0.0 if i % 2 else 0.75
            p = np.array([rng.uniform(2, 6), rng.uniform(-1.5, 1.5), z])
            pr = rot_ri @ p
            u = INTR.fx * pr[0] / pr[2] + INTR.cx
            v = INTR.fy * pr[1] / pr[2] + INTR.cy
            corrs.append(Correspondence(p, (u, v), "floor" if z == 0 else "table"))
        est = solve_pnp(corrs, INTR, t_ri)
        assert rotation_angle(est.rotation, np.eye(3)) <= 1e-6
        assert np.abs(est.translation).max() <= 1e-6

    def test_too_few_correspondences_rejected(self):
        rng = np.random.default_rng(6)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(5, rng, t_true, t_ri)
        with pytest.raises(DegenerateConfiguration):
            solve_pnp(corrs, INTR, t_ri)

    @pytest.mark.parametrize("behind, front", [(1, 6), (2, 6), (2, 12)])
    def test_beacons_behind_the_camera_leave_the_fit(self, behind, front):
        rng = np.random.default_rng(30 + behind + front)
        for _ in range(3):
            t_true, t_ri = make_pose_pair(rng)
            corrs = synth_corrs(behind + front, rng, t_true, t_ri, behind=behind)
            est = solve_pnp(corrs, INTR, t_ri)
            assert rotation_angle(est.rotation, t_true.rotation) <= 1e-6
            assert np.abs(est.translation - t_true.translation).max() <= 1e-6

    @pytest.mark.parametrize("behind, front", [(1, 5), (3, 5)])
    def test_fewer_than_six_beacons_in_front_do_not_converge(self, behind, front):
        rng = np.random.default_rng(40 + behind)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(behind + front, rng, t_true, t_ri, behind=behind)
        with pytest.raises(NoConvergence):
            solve_pnp(corrs, INTR, t_ri)


@pytest.mark.parametrize("max_iter", [100, HYPOTHESIS_STEPS])
def test_a_batch_of_gauss_newton_fits_equals_its_single_fits(max_iter):
    # 9 beacons each: 2 behind the camera, 4 behind (5 in front, too few),
    # and none behind; noisy pixels, so that every fit iterates
    rng = np.random.default_rng(50)
    pts, pixels = [], []
    for behind in (2, 4, 0):
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(9, rng, t_true, t_ri, pixel_sigma=1.0, behind=behind)
        pts.append(t_ri.apply(np.stack([c.beacon_ips for c in corrs])))
        pixels.append(np.stack([c.pixel for c in corrs]))
    pts, pixels = np.stack(pts), np.stack(pixels)
    rot, tra, degenerate = _dlt_poses(pts, pixels, INTR)
    assert not degenerate.any()
    got_rot, got_tra, failed = _refine_poses(rot, tra, pts, pixels, INTR, max_iter=max_iter)
    assert failed.tolist() == [False, True, False]
    for i in range(3):
        one = _refine_poses(
            rot[i : i + 1], tra[i : i + 1], pts[i : i + 1], pixels[i : i + 1], INTR, max_iter=max_iter
        )
        np.testing.assert_array_equal(one[0][0], got_rot[i])
        np.testing.assert_array_equal(one[1][0], got_tra[i])
        assert one[2][0] == failed[i]


# ---------------------------------------------------------------------------
# reprojection_rmse


class TestReprojectionRmse:
    def test_exact_correspondences_give_zero(self):
        rng = np.random.default_rng(7)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(12, rng, t_true, t_ri)
        assert reprojection_rmse(corrs, INTR, t_true, t_ri) <= 1e-9

    def test_single_offset_point_is_hypotenuse(self):
        rng = np.random.default_rng(8)
        t_true, t_ri = make_pose_pair(rng)
        clean = synth_corrs(1, rng, t_true, t_ri)[0]
        off = Correspondence(clean.beacon_ips, clean.pixel + np.array([3.0, 4.0]))
        assert reprojection_rmse([off], INTR, t_true, t_ri) == pytest.approx(5.0, abs=1e-9)

    def test_matches_per_point_error_oracle(self):
        rng = np.random.default_rng(9)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(30, rng, t_true, t_ri, pixel_sigma=2.0)
        t_cam_from_ips = compose(t_true, t_ri)
        m = homogeneous_matrix(t_cam_from_ips.rotation, t_cam_from_ips.translation)
        per_point = []
        for c in corrs:
            u, v = project_oracle(INTR.fx, INTR.fy, INTR.cx, INTR.cy, m, c.beacon_ips)
            per_point.append(math.hypot(u - c.pixel[0], v - c.pixel[1]))
        assert reprojection_rmse(corrs, INTR, t_true, t_ri) == pytest.approx(
            rmse_oracle(per_point), abs=1e-12
        )

    def test_subset_selects_points(self):
        rng = np.random.default_rng(10)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(4, rng, t_true, t_ri)
        corrs[2] = Correspondence(corrs[2].beacon_ips, corrs[2].pixel + np.array([6.0, 8.0]))
        assert reprojection_rmse(corrs, INTR, t_true, t_ri, subset=[0, 1, 3]) <= 1e-9
        assert reprojection_rmse(corrs, INTR, t_true, t_ri, subset=[2]) == pytest.approx(10.0, abs=1e-9)

    def test_empty_subset_rejected(self):
        rng = np.random.default_rng(11)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(4, rng, t_true, t_ri)
        with pytest.raises(UsageError, match="empty correspondence subset"):
            reprojection_rmse(corrs, INTR, t_true, t_ri, subset=[])

    def test_point_behind_camera_scores_infinite(self):
        t = RigidTransform(np.eye(3), np.zeros(3), src="robot", dst="cam")
        t_ri = RigidTransform(np.eye(3), np.zeros(3), src="ips", dst="robot")
        behind = Correspondence((0, 0, -2.0), (320, 240))
        assert reprojection_rmse([behind], INTR, t, t_ri) == math.inf


# ---------------------------------------------------------------------------
# solve_pnp_ransac


class TestSolvePnpRansac:
    def test_corrupted_points_are_excluded(self):
        rng = np.random.default_rng(12)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(63, rng, t_true, t_ri)
        bad = sorted(rng.choice(63, size=13, replace=False).tolist())
        for j in bad:
            direction = rng.uniform(-1, 1, 2)
            offset = 50.0 * direction / np.linalg.norm(direction)
            corrs[j] = Correspondence(corrs[j].beacon_ips, corrs[j].pixel + offset)
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=8.0, iterations=500, seed=1)
        assert set(result.inlier_indices) == set(range(63)) - set(bad)
        assert result.rmse_px <= 1e-6

    def test_wide_delta_matches_full_solve(self):
        rng = np.random.default_rng(13)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(30, rng, t_true, t_ri, pixel_sigma=0.5)
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=1e9, iterations=50, seed=2)
        assert result.inlier_indices == tuple(range(30))
        direct = solve_pnp(corrs, INTR, t_ri)
        np.testing.assert_array_equal(result.extrinsic.rotation, direct.rotation)
        np.testing.assert_array_equal(result.extrinsic.translation, direct.translation)

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(14)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(40, rng, t_true, t_ri, pixel_sigma=1.0)
        a = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=8.0, iterations=200, seed=9)
        b = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=8.0, iterations=200, seed=9)
        assert a.inlier_indices == b.inlier_indices
        assert a.rmse_px == b.rmse_px
        np.testing.assert_array_equal(a.extrinsic.rotation, b.extrinsic.rotation)
        np.testing.assert_array_equal(a.extrinsic.translation, b.extrinsic.translation)

    def test_too_few_correspondences_rejected(self):
        rng = np.random.default_rng(15)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(5, rng, t_true, t_ri)
        with pytest.raises(TooFewInliers):
            solve_pnp_ransac(corrs, INTR, t_ri)

    def test_nonpositive_delta_rejected(self):
        rng = np.random.default_rng(16)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(10, rng, t_true, t_ri)
        with pytest.raises(ValueError):
            solve_pnp_ransac(corrs, INTR, t_ri, delta_px=0.0)

    @pytest.mark.parametrize("delta_px", [math.nan, math.inf])
    def test_nonfinite_delta_rejected(self, delta_px):
        rng = np.random.default_rng(16)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(10, rng, t_true, t_ri)
        with pytest.raises(ValueError, match="delta_px"):
            solve_pnp_ransac(corrs, INTR, t_ri, delta_px=delta_px)

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_fewer_than_one_iteration_rejected(self, iterations):
        rng = np.random.default_rng(17)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(10, rng, t_true, t_ri)
        with pytest.raises(ValueError, match="iterations"):
            solve_pnp_ransac(corrs, INTR, t_ri, iterations=iterations)


# ---------------------------------------------------------------------------
# batched solve_pnp_ransac == scalar loops over the same samples


def capped_pose(pts, pixels, intr):
    """The DLT and HYPOTHESIS_STEPS Gauss-Newton steps on one sample, as
    solve_pnp raises its errors."""
    rot, tra, degenerate = _dlt_poses(pts[None], pixels[None], intr)
    if degenerate[0]:
        raise DegenerateConfiguration("degenerate sample")
    rot, tra, failed = _refine_poses(rot, tra, pts[None], pixels[None], intr, max_iter=HYPOTHESIS_STEPS)
    if failed[0]:
        raise NoConvergence("too few points in front")
    return rot[0], tra[0]


def scalar_hypotheses(corrs, intr, t_ri, delta_px, iterations, seed, capped):
    """Score each sample solve_pnp_ransac draws, one fit at a time: capped
    (capped_pose) or full (solve_pnp). Returns the (count, -rmse,
    -iteration, mask) of each hypothesis with an inlier, and the number of
    fits that failed."""
    pts = t_ri.apply(np.stack([c.beacon_ips for c in corrs]))
    pixels = np.stack([c.pixel for c in corrs])
    hyps, failures = [], 0
    samples = distinct_rows(substream(seed, NS_CALIB_RANSAC), len(corrs), 6, iterations)
    for i, sample in enumerate(samples):
        try:
            if capped:
                rot, tra = capped_pose(pts[sample], pixels[sample], intr)
            else:
                fit = solve_pnp([corrs[j] for j in sample], intr, t_ri)
                rot, tra = fit.rotation, fit.translation
        except (DegenerateConfiguration, NoConvergence):
            failures += 1
            continue
        err = _pixel_errors(intr, rot, tra, pts, pixels)
        mask = err < delta_px
        if mask.any():
            hyps.append((int(mask.sum()), -_rmse(err[mask]), -i, mask))
    return hyps, failures


def rank(hyp):
    return hyp[:3]


def final_refit(corrs, intr, t_ri, mask):
    inliers = tuple(int(j) for j in np.flatnonzero(mask))
    final = solve_pnp([corrs[j] for j in inliers], intr, t_ri)
    return inliers, reprojection_rmse(corrs, intr, final, t_ri, subset=inliers)


def full_gauss_newton_ransac(corrs, intr, t_ri, delta_px, iterations, seed):
    """The rule before local optimisation: every hypothesis is a full
    solve_pnp fit and the best one gives the inliers."""
    hyps, _ = scalar_hypotheses(corrs, intr, t_ri, delta_px, iterations, seed, capped=False)
    return final_refit(corrs, intr, t_ri, max(hyps, key=rank)[3])


def local_optimisation(corrs, intr, t_ri, delta_px, hyp):
    """The hypothesis and each refit on its inliers while the count grows."""
    pts = t_ri.apply(np.stack([c.beacon_ips for c in corrs]))
    pixels = np.stack([c.pixel for c in corrs])
    count, _, order, mask = hyp
    out = [hyp]
    while True:
        try:
            fit = solve_pnp([corrs[j] for j in np.flatnonzero(mask)], intr, t_ri)
        except (DegenerateConfiguration, NoConvergence):
            return out
        err = _pixel_errors(intr, fit.rotation, fit.translation, pts, pixels)
        mask = err < delta_px
        if mask.sum() <= count:
            return out
        count = int(mask.sum())
        out.append((count, -_rmse(err[mask]), order, mask))


def needed(inliers, n):
    """The stop rule's sample count, as Fischler & Bolles write it."""
    w = inliers / n
    if w == 1.0:
        return 0
    if w == 0.0:
        return math.inf
    return math.ceil(math.log(1.0 - CONFIDENCE) / math.log(1.0 - w**6))


def stopped_prefix(hyps, n, iterations):
    """How many hypotheses the block-end stop scores: blocks of FIRST_BLOCK,
    twice that and so on, until the number scored reaches ``needed`` of the
    best inlier count among them, or ``iterations``."""
    scored, block = 0, FIRST_BLOCK
    while scored < iterations:
        scored, block = min(iterations, scored + block), 2 * block
        best = max((hyp[0] for hyp in hyps if -hyp[2] < scored), default=0)
        if scored >= needed(best, n):
            break
    return scored


def reference_ransac(corrs, intr, t_ri, delta_px, iterations, seed, stop=True):
    """Scalar loop of solve_pnp_ransac's rule: a capped fit per hypothesis,
    up to the block-end stop unless ``stop`` is False, then the local
    optimisation of the LOCAL_OPTIMISED best. Returns the inlier tuple, its
    rmse_px and the number of failed hypothesis fits."""
    hyps, failures = scalar_hypotheses(corrs, intr, t_ri, delta_px, iterations, seed, capped=True)
    if stop:
        scored = stopped_prefix(hyps, len(corrs), iterations)
        hyps = [hyp for hyp in hyps if -hyp[2] < scored]
    top = sorted(hyps, key=rank, reverse=True)[:LOCAL_OPTIMISED]
    ranked = [r for hyp in top for r in local_optimisation(corrs, intr, t_ri, delta_px, hyp)]
    return (*final_refit(corrs, intr, t_ri, max(ranked, key=rank)[3]), failures)


def corrupted_target(seed, n=40, outliers=12, duplicates=6):
    """Noisy correspondences with outlier pixels 20-80 px off and a few
    duplicated correspondences, so that some 6-point samples are
    rank-deficient."""
    rng = np.random.default_rng(seed)
    t_true, t_ri = make_pose_pair(rng)
    corrs = synth_corrs(n, rng, t_true, t_ri, pixel_sigma=1.0)
    for j in rng.choice(n, size=outliers, replace=False):
        direction = rng.uniform(-1, 1, 2)
        offset = rng.uniform(20.0, 80.0) * direction / np.linalg.norm(direction)
        corrs[j] = Correspondence(corrs[j].beacon_ips, corrs[j].pixel + offset)
    return corrs + corrs[:duplicates], t_ri


class TestBatchedRansacMatchesScalarLoop:
    # at 2 px, seed 33 ends with one inlier fewer if each hypothesis gets
    # the full Gauss-Newton instead of HYPOTHESIS_STEPS
    @pytest.mark.parametrize("seed", [21, 22, 23, 33])
    @pytest.mark.parametrize("delta_px", [2.0, 8.0])
    def test_same_inliers_and_rmse(self, seed, delta_px):
        corrs, t_ri = corrupted_target(seed)
        inliers, rmse, failures = reference_ransac(corrs, INTR, t_ri, delta_px, 120, seed)
        assert failures > 0  # the loop must skip rejected hypotheses as the scalar one does
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=delta_px, iterations=120, seed=seed)
        assert result.inlier_indices == inliers
        assert result.rmse_px == rmse

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_wide_gate_keeps_the_full_gauss_newton_result(self, seed):
        corrs, t_ri = corrupted_target(seed)
        inliers, rmse = full_gauss_newton_ransac(corrs, INTR, t_ri, 8.0, 120, seed)
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=8.0, iterations=120, seed=seed)
        assert result.inlier_indices == inliers
        assert result.rmse_px == rmse


def test_local_optimisation_never_shrinks_the_consensus():
    grew = 0
    for seed in (24, 25, 26, 27):
        corrs, t_ri = corrupted_target(seed)
        hyps, _ = scalar_hypotheses(corrs, INTR, t_ri, 2.0, 120, seed, capped=True)
        plain = int(max(hyps, key=rank)[0])
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=2.0, iterations=120, seed=seed)
        assert len(result.inlier_indices) >= plain
        grew += len(result.inlier_indices) > plain
    assert grew > 0  # the local optimisation added inliers somewhere


class TestEachInlierSetIsFitOnce:
    """solve_pnp_ransac fits each inlier set once: a set that two local
    optimisations reach is fit for the first, and the final model is the
    local optimisation's fit of the winning set."""

    @staticmethod
    def counted_fits(monkeypatch):
        """The correspondence sets solve_pnp fits from now on, in call order."""
        fits = []

        def counting(corrs, intr, t_ri):
            fits.append(tuple(map(id, corrs)))
            return solve_pnp(corrs, intr, t_ri)

        monkeypatch.setattr(calib, "solve_pnp", counting)
        return fits

    def check(self, monkeypatch, corrs, intr, t_ri, delta_px, iterations, seed):
        """solve_pnp_ransac fits no set twice and returns the inliers and
        rmse of the scalar rule, and the solve_pnp fit of those inliers."""
        inliers, rmse, _ = reference_ransac(corrs, intr, t_ri, delta_px, iterations, seed)
        final = solve_pnp([corrs[j] for j in inliers], intr, t_ri)
        fits = self.counted_fits(monkeypatch)
        result = solve_pnp_ransac(corrs, intr, t_ri, delta_px, iterations, seed)
        assert len(fits) == len(set(fits)) > 0
        assert result.inlier_indices == inliers
        assert result.rmse_px == rmse
        assert result.extrinsic.matrix.tobytes() == final.matrix.tobytes()

    @pytest.mark.parametrize("seed", [21, 22, 23, 33])
    @pytest.mark.parametrize("delta_px", [2.0, 8.0])
    def test_corrupted_targets(self, monkeypatch, seed, delta_px):
        corrs, t_ri = corrupted_target(seed)
        self.check(monkeypatch, corrs, INTR, t_ri, delta_px, 120, seed)

    @pytest.mark.parametrize("planar", [True, False])
    def test_the_fixture_at_a_2_px_gate(self, monkeypatch, planar):
        corrs, t_ri, intr = fixture_target(planar)
        self.check(monkeypatch, corrs, intr, t_ri, 2.0, 300, 20)

    @pytest.mark.parametrize(
        "planar, fits, frozen",
        # every correspondence is an inlier, and the final model is the
        # local optimisation's fit of them all, not a second fit
        [(True, 1, "expected_planar.json"), (False, 4, "expected_noplanar.json")],
    )
    def test_the_frozen_reports_keep_their_bytes(self, monkeypatch, tmp_path, planar, fits, frozen):
        intr = _manifest_rig(os.path.join(FIXTURES, "manifest.json")).intrinsics
        paths = [os.path.join(FIXTURES, name) for name in ("correspondences.csv", "robot_beacons.csv")]
        counted = self.counted_fits(monkeypatch)
        out = str(tmp_path / "cal.json")
        write_calibration(*paths, intr, CalibOptions(planar=planar), 20, out)
        assert len(counted) == len(set(counted)) == fits
        with open(out, "rb") as got, open(os.path.join(FIXTURES, frozen), "rb") as want:
            assert got.read() == want.read()


# ---------------------------------------------------------------------------
# the block-end stop of solve_pnp_ransac


def fixture_target(planar):
    """The frozen tests/fixtures correspondences, robot<-ips transform and
    intrinsics, as the calibrate command reads them."""
    corrs = read_input(os.path.join(FIXTURES, "correspondences.csv"), parse_correspondences_csv)
    path = os.path.join(FIXTURES, "robot_beacons.csv")
    t_ri = _robot_transform_from_readings(read_input(path, parse_beacons_csv), path)
    intr = _manifest_rig(os.path.join(FIXTURES, "manifest.json")).intrinsics
    return (apply_planar_constraint(corrs) if planar else corrs), t_ri, intr


class TestStopRule:
    @pytest.mark.parametrize(
        "inliers, n, expected",
        # 44/63 is the calib_outliers inlier ratio; 1/2 needs
        # ceil(log(1e-6) / log(63/64)) samples
        [(44, 63, 112), (32, 64, 878), (62, 63, 6), (63, 63, 0), (40, 40, 0), (0, 63, math.inf)],
    )
    def test_samples_needed_in_closed_form(self, inliers, n, expected):
        assert hypotheses_needed(inliers, n) == expected
        assert needed(inliers, n) == expected

    def test_every_inlier_stops_after_the_first_block(self):
        rng = np.random.default_rng(3)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(40, rng, t_true, t_ri)
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=8.0, iterations=2000, seed=3)
        assert len(result.inlier_indices) == 40
        assert result.hypotheses == FIRST_BLOCK

    def test_no_inlier_never_stops_early(self, monkeypatch):
        rng = np.random.default_rng(4)
        t_true, t_ri = make_pose_pair(rng)
        corrs = synth_corrs(20, rng, t_true, t_ri, pixel_sigma=1.0)
        drawn = []

        def counting_dlt(pts, pixels, intr):
            drawn.append(len(pts))
            return _dlt_poses(pts, pixels, intr)

        monkeypatch.setattr(calib, "_dlt_poses", counting_dlt)
        # with 1 px noise no pixel lies within 1e-9 px of a rough 6-point pose
        with pytest.raises(TooFewInliers, match="0 inliers"):
            solve_pnp_ransac(corrs, INTR, t_ri, delta_px=1e-9, iterations=500, seed=4)
        assert sum(drawn) == 500

    @pytest.mark.parametrize("iterations", [10, 64, 65, 300])
    def test_the_cap_holds(self, iterations):
        corrs, t_ri = corrupted_target(21)
        hyps, _ = scalar_hypotheses(corrs, INTR, t_ri, 2.0, iterations, 21, capped=True)
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=2.0, iterations=iterations, seed=21)
        assert result.hypotheses == stopped_prefix(hyps, len(corrs), iterations) <= iterations

    @pytest.mark.parametrize("planar", [True, False])
    def test_frozen_fixture_stops_early_with_every_inlier(self, planar):
        corrs, t_ri, intr = fixture_target(planar)
        result = solve_pnp_ransac(corrs, intr, t_ri, delta_px=8.0, iterations=2000, seed=20)
        assert len(result.inlier_indices) == len(corrs) == 63
        assert result.hypotheses < 300

    @pytest.mark.parametrize("seed", range(21, 28))
    def test_stopped_result_equals_the_exhaustive_reference(self, seed):
        corrs, t_ri = corrupted_target(seed)
        inliers, rmse, _ = reference_ransac(corrs, INTR, t_ri, 8.0, 300, seed, stop=False)
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=8.0, iterations=300, seed=seed)
        assert result.hypotheses < 300
        assert result.inlier_indices == inliers
        assert result.rmse_px == rmse


@pytest.mark.parametrize("m", [6, 7, 44, 63])
def test_row_medians_equal_numpy_median(m):
    rng = np.random.default_rng(m)
    v = rng.normal(size=(500, m))
    v[::3, : m // 2] = 0.0  # ties, and rows whose middle is 0
    v[1::3] = np.round(v[1::3])
    got, want = _row_medians(v), np.median(v, axis=1)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got < 0, want < 0)


def test_a_singular_system_gives_a_nan_step_and_leaves_the_others_solved():
    a = np.stack([np.eye(6) * 2.0, np.zeros((6, 6)), np.diag(np.arange(1.0, 7.0))])
    b = np.ones((3, 6))
    steps = _solve_each(a, b)
    np.testing.assert_array_equal(steps[0], np.linalg.solve(a[0], b[0]))
    assert np.all(np.isnan(steps[1]))
    np.testing.assert_array_equal(steps[2], np.linalg.solve(a[2], b[2]))
