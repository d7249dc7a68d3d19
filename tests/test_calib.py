"""Planar constraint, projection, PnP, and the RANSAC wrapper."""

import math

import numpy as np
import pytest

from ipslabel.calib import (
    CameraIntrinsics,
    Correspondence,
    apply_planar_constraint,
    project,
    reprojection_rmse,
    solve_pnp,
    solve_pnp_ransac,
)
from ipslabel.calib import _dlt_poses, _pixel_errors, _refine_poses, _rmse, _solve_each
from ipslabel.errors import (
    BehindCamera,
    DegenerateConfiguration,
    EmptySubset,
    MissingPlaneTag,
    NoConvergence,
    TooFewInliers,
)
from ipslabel.geom import RigidTransform, compose
from ipslabel.rng import NS_CALIB_RANSAC, distinct_rows, substream

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
        with pytest.raises(MissingPlaneTag):
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
        with pytest.raises(BehindCamera):
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


def test_a_batch_of_gauss_newton_fits_equals_its_single_fits():
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
    got_rot, got_tra, failed = _refine_poses(rot, tra, pts, pixels, INTR)
    assert failed.tolist() == [False, True, False]
    for i in range(3):
        one = _refine_poses(rot[i : i + 1], tra[i : i + 1], pts[i : i + 1], pixels[i : i + 1], INTR)
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
        with pytest.raises(EmptySubset):
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


# ---------------------------------------------------------------------------
# batched solve_pnp_ransac == one solve_pnp per hypothesis


def reference_ransac(corrs, intr, t_ri, delta_px, iterations, seed):
    """Scalar RANSAC loop over the samples solve_pnp_ransac draws; returns
    the inlier tuple, its rmse_px and the number of hypotheses that
    solve_pnp rejected."""
    pts = t_ri.apply(np.stack([c.beacon_ips for c in corrs]))
    pixels = np.stack([c.pixel for c in corrs])
    best_key, best_mask, failures = None, None, 0
    for sample in distinct_rows(substream(seed, NS_CALIB_RANSAC), len(corrs), 6, iterations):
        try:
            hyp = solve_pnp([corrs[j] for j in sample], intr, t_ri)
        except (DegenerateConfiguration, NoConvergence):
            failures += 1
            continue
        err = _pixel_errors(intr, hyp.rotation, hyp.translation, pts, pixels)
        mask = err < delta_px
        if not mask.any():
            continue
        key = (int(mask.sum()), -_rmse(err[mask]))
        if best_key is None or key > best_key:
            best_key, best_mask = key, mask
    inliers = tuple(int(j) for j in np.flatnonzero(best_mask))
    final = solve_pnp([corrs[j] for j in inliers], intr, t_ri)
    return inliers, reprojection_rmse(corrs, intr, final, t_ri, subset=inliers), failures


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
    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("delta_px", [2.0, 8.0])
    def test_same_inliers_and_rmse(self, seed, delta_px):
        corrs, t_ri = corrupted_target(seed)
        inliers, rmse, failures = reference_ransac(corrs, INTR, t_ri, delta_px, 120, seed)
        assert failures > 0  # the loop must skip rejected hypotheses as the scalar one does
        result = solve_pnp_ransac(corrs, INTR, t_ri, delta_px=delta_px, iterations=120, seed=seed)
        assert result.inlier_indices == inliers
        assert result.rmse_px == rmse


def test_a_singular_system_gives_a_nan_step_and_leaves_the_others_solved():
    a = np.stack([np.eye(6) * 2.0, np.zeros((6, 6)), np.diag(np.arange(1.0, 7.0))])
    b = np.ones((3, 6))
    steps = _solve_each(a, b)
    np.testing.assert_array_equal(steps[0], np.linalg.solve(a[0], b[0]))
    assert np.all(np.isnan(steps[1]))
    np.testing.assert_array_equal(steps[2], np.linalg.solve(a[2], b[2]))
