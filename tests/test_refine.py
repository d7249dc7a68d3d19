"""Ground plane fitting, cropping, model proposals, and RANSAC refinement."""

import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipslabel import refine as refine_module
from ipslabel.config import ObjectSpec, RefineConfig
from ipslabel.errors import (
    AllProposalsDegenerate,
    ConfigError,
    DegenerateSample,
    EmptyNeighborhood,
    NoPlaneFound,
    TooFewPoints,
)
from ipslabel.labelgen import OrientedBox3, normalize_yaw
from ipslabel.refine import (
    _COARSE_STRIDE,
    _CROSSING_RAYS,
    _FINE_STRIDE,
    _PREEMPT_KEEP,
    _PREEMPT_MIN_CROP,
    _PREEMPT_STRIDE,
    _RAY_TESTS,
    _SHELL_TESTS,
    CLASS_KINDS,
    GroundPlane,
    MpfKind,
    _away_sides,
    _draw,
    _first_clear,
    _proposals,
    crop_and_strip,
    fit_ground_plane,
    fitness,
    kinds_for_class,
    mpf_cabinet,
    mpf_cabinet_two_point,
    mpf_table,
    refine_label,
    shell_scores,
)
from ipslabel.rng import NS_REFINE_DRAWS, distinct_rows, substream

from .conftest import traced_peak
from .oracles import crop_filter_oracle, fitness_oracle, yaw_rotation

FLAT = GroundPlane((0, 0, 1), 0.0)


@functools.lru_cache(maxsize=1)
def cabinet_sample():
    """One noise-free simulated sample, shared across tests in this module."""
    from dataclasses import replace

    from ipslabel.config import SceneConfig
    from ipslabel.sim import make_sample

    scene = replace(SceneConfig(), beacon_noise=0.0, pixel_noise_sigma=0.0)
    return make_sample(scene, seed=5, index=0)


@functools.lru_cache(maxsize=1)
def dense_sample():
    """Sample 0 at seed 7 of the default scene seen by a 32-channel 0.1
    degree LiDAR."""
    from dataclasses import replace

    from ipslabel.config import LidarConfig, SceneConfig
    from ipslabel.sim import make_sample

    scene = replace(SceneConfig(), lidar=LidarConfig(channels=32, azimuth_step_deg=0.1))
    return make_sample(scene, seed=7, index=0)


def refine_fitted(pcd, unrefined, spec, cfg, seed=0):
    """``refine_label`` on the cloud's ground plane, fitted with the same seed."""
    return refine_label(pcd, unrefined, spec, cfg, seed, plane=fit_ground_plane(pcd, cfg, seed))


# ---------------------------------------------------------------------------
# GroundPlane / RefineConfig


class TestGroundPlane:
    def test_normal_is_normalized(self):
        plane = GroundPlane((0, 0, 2.0), 1.0)
        assert np.linalg.norm(plane.normal) == pytest.approx(1.0, abs=1e-12)

    def test_downward_normal_rejected(self):
        with pytest.raises(ValueError, match="up"):
            GroundPlane((0, 0, -1.0), 0.0)

    def test_height_and_projection(self):
        plane = GroundPlane((0, 0, 1), 0.2)
        pts = np.array([[1, 2, 0.2], [0, 0, 1.2]])
        np.testing.assert_allclose(plane.height(pts), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(plane.project(pts)[:, 2], [0.2, 0.2], atol=1e-12)
        np.testing.assert_allclose(plane.project(np.array([3.0, 4.0, 9.0])), [3, 4, 0.2], atol=1e-12)


class TestRefineConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            RefineConfig(radius=0.0)
        with pytest.raises(ValueError):
            RefineConfig(iterations=0)
        with pytest.raises(ValueError):
            RefineConfig(shell_delta=-0.1)


class TestKinds:
    def test_sample_sizes(self):
        assert MpfKind.CABINET_LEFT_FRONT.sample_size == 3
        assert MpfKind.CABINET_RIGHT_FRONT.sample_size == 3
        assert MpfKind.CABINET_TWO_POINT_FACE.sample_size == 2
        assert MpfKind.TABLE_STEM.sample_size == 3

    def test_class_registry(self):
        assert kinds_for_class("cabinet") == CLASS_KINDS["cabinet"]
        assert kinds_for_class("table") == (MpfKind.TABLE_STEM,)

    def test_unknown_class_lists_available_kinds(self):
        with pytest.raises(ConfigError) as exc:
            kinds_for_class("sofa")
        msg = str(exc.value)
        assert "cabinet_two_point_face" in msg and "table_stem" in msg


# ---------------------------------------------------------------------------
# fit_ground_plane


def test_a_dense_scan_is_refined_in_about_two_copies_of_its_cloud():
    """Besides the cloud, fit_ground_plane holds its inliers and the QR's
    copies of them, and refine_label fixed-size blocks and its crop: their
    traced peak is 1.9-2.0 times the cloud's bytes on the dense scans of
    seed 7. With the thin SVD of the inliers and full-length per-point
    passes, it was 3.0 times."""
    cloud = dense_sample().cloud
    cfg = RefineConfig()

    def fit_and_refine():
        plane = fit_ground_plane(cloud, cfg, 0)
        for entry in dense_sample().truth_objects:
            spec = ObjectSpec(entry["class"], *entry["dims_spec"])
            refine_label(cloud, OrientedBox3.from_dict(entry["box3d_lidar"]), spec, cfg, 0, plane=plane)

    _, peak = traced_peak(fit_and_refine)
    assert len(cloud) > 50_000
    assert peak <= 2.5 * cloud.nbytes


class TestFitGroundPlane:
    # 20000 floor points are more than the subset the hypotheses are scored on
    @pytest.mark.parametrize("n_floor", [400, 20000])
    def test_flat_floor_with_outliers(self, n_floor):
        rng = np.random.default_rng(0)
        floor = np.column_stack(
            [rng.uniform(-5, 5, n_floor), rng.uniform(-5, 5, n_floor), np.zeros(n_floor)]
        )
        outliers = rng.uniform(0.5, 3.0, (n_floor // 20, 3))
        cloud = np.vstack([floor, outliers])
        plane = fit_ground_plane(cloud, RefineConfig())
        np.testing.assert_allclose(plane.normal, (0, 0, 1), atol=1e-9)
        assert abs(plane.d) <= 1e-9

    def test_tilted_plane_normal(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, 500)
        y = rng.uniform(-5, 5, 500)
        cloud = np.column_stack([x, y, 0.1 * x])
        plane = fit_ground_plane(cloud, RefineConfig())
        expected = np.array([-0.1, 0, 1]) / np.linalg.norm([-0.1, 0, 1])
        np.testing.assert_allclose(plane.normal, expected, atol=1e-6)

    def test_same_seed_identical_plane(self):
        rng = np.random.default_rng(2)
        cloud = np.column_stack(
            [rng.uniform(-3, 3, 300), rng.uniform(-3, 3, 300), rng.normal(0, 0.01, 300)]
        )
        a = fit_ground_plane(cloud, RefineConfig(), seed=4)
        b = fit_ground_plane(cloud, RefineConfig(), seed=4)
        np.testing.assert_array_equal(a.normal, b.normal)
        assert a.d == b.d

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_ground_plane(np.zeros((2, 3)), RefineConfig())

    def test_unstructured_cloud_has_no_plane(self):
        rng = np.random.default_rng(3)
        cloud = rng.uniform(0, 5, (300, 3))
        with pytest.raises(NoPlaneFound):
            fit_ground_plane(cloud, RefineConfig())

    def test_wall_without_a_floor_has_no_plane(self):
        rng = np.random.default_rng(5)
        wall = np.column_stack(
            [np.zeros(600), rng.uniform(-4, 4, 600), rng.uniform(0, 2.5, 600)]
        )
        with pytest.raises(NoPlaneFound, match="faces up"):
            fit_ground_plane(wall, RefineConfig())

    def test_dense_wall_does_not_beat_the_floor(self):
        """A vertical plane can hold more points than the floor; it must
        still lose, because ground planes face up."""
        rng = np.random.default_rng(4)
        wall = np.column_stack(
            [np.zeros(600), rng.uniform(-4, 4, 600), rng.uniform(0, 2.5, 600)]
        )
        floor = np.column_stack(
            [rng.uniform(0.1, 4, 150), rng.uniform(-4, 4, 150), np.zeros(150)]
        )
        cloud = np.vstack([wall, floor])
        # the floor is only 20% of the cloud, so give the sampler enough
        # draws to land three floor points in one hypothesis
        plane = fit_ground_plane(cloud, RefineConfig(plane_iterations=3000))
        assert plane.normal[2] > 0.99
        # wall-base points inside the inlier band shift the refit slightly
        assert abs(plane.d) <= 0.01


def thin_svd_fit(cloud, cfg, seed):
    """``fit_ground_plane`` with its refit's normal taken from the thin SVD
    of the centred inliers themselves: with ``np.linalg.qr`` the identity,
    the SVD that follows it gets the inliers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "qr", lambda a, mode: a)
        return fit_ground_plane(cloud, cfg, seed)


def assert_same_fit(cloud, cfg, seed):
    plane, reference = fit_ground_plane(cloud, cfg, seed), thin_svd_fit(cloud, cfg, seed)
    assert plane.normal.tobytes() == reference.normal.tobytes()
    assert plane.d == reference.d


class TestPlaneRefitThroughR:
    """fit_ground_plane's normal, from the SVD of the inliers' R factor (at
    least 5 inliers) or of the inliers (3 or 4), has the bits of the thin
    SVD of the inliers. The claim holds for this machine's LAPACK, where
    dgesdd QR-factors a 3-column matrix of at least 5 rows before it
    bidiagonalises it; across LAPACK builds the last bits of either may
    differ, as they already can."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 5000),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from([0.0, 0.002, 0.01, 0.03]),
        fortran=st.booleans(),
    )
    def test_random_floors(self, n, seed, sigma, fortran):
        rng = np.random.default_rng(seed)
        cloud = np.column_stack(
            [rng.uniform(-5, 5, n), rng.uniform(-5, 5, n), 0.3 + rng.normal(0.0, sigma, n)]
        )
        cloud = np.asfortranarray(cloud) if fortran else cloud
        cfg = RefineConfig()
        try:
            assert_same_fit(cloud, cfg, seed)
        except NoPlaneFound:
            with pytest.raises(NoPlaneFound):
                thin_svd_fit(cloud, cfg, seed)

    @pytest.mark.parametrize("inliers", [3, 4, 5, 6])
    def test_both_sides_of_the_five_row_crossover(self, inliers):
        # every point of a flat floor is an inlier
        rng = np.random.default_rng(inliers)
        cloud = np.column_stack(
            [rng.uniform(-5, 5, inliers), rng.uniform(-5, 5, inliers), 0.01 * rng.random(inliers)]
        )
        assert_same_fit(cloud, RefineConfig(), 0)

    @pytest.mark.parametrize(
        "lidar, samples",
        # the clouds of the pipeline20 and calib_outliers workloads, and of dense_jobs2
        [({}, 20), ({"channels": 32, "azimuth_step_deg": 0.1}, 10)],
    )
    def test_the_benchmark_clouds(self, lidar, samples):
        from dataclasses import replace

        from ipslabel.cloud import read_ply, write_ply
        from ipslabel.config import LidarConfig, SceneConfig
        from ipslabel.rng import NS_JOB, derive_seed
        from ipslabel.sim import raycast_lidar, robot_pose_for_sample

        scene = replace(SceneConfig(), lidar=LidarConfig(**lidar))
        for index in range(samples):
            # as refine reads and seeds the cloud of each sample at --seed 7
            cloud = read_ply(write_ply(raycast_lidar(scene, robot_pose_for_sample(scene, 7, index))))
            assert_same_fit(cloud, RefineConfig(), derive_seed(7, NS_JOB, index))


# ---------------------------------------------------------------------------
# crop_and_strip


class TestCropAndStrip:
    def test_all_ground_cloud_is_empty(self):
        rng = np.random.default_rng(5)
        floor = np.column_stack(
            [rng.uniform(-2, 2, 200), rng.uniform(-2, 2, 200), rng.uniform(0, 0.02, 200)]
        )
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1), 0.0)
        with pytest.raises(EmptyNeighborhood):
            crop_and_strip(floor, box, FLAT, RefineConfig())

    def test_keeps_exactly_the_near_cluster(self):
        rng = np.random.default_rng(6)
        near = np.array([0.2, -0.1, 0.6]) + rng.normal(0, 0.05, (40, 3))
        far = np.array([5.0, 5.0, 0.6]) + rng.normal(0, 0.05, (30, 3))
        cloud = np.vstack([near, far])
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1), 0.0)
        kept = crop_and_strip(cloud, box, FLAT, RefineConfig())
        assert len(kept) == 40
        np.testing.assert_allclose(np.sort(kept, axis=0), np.sort(near, axis=0), atol=0)

    def test_min_height_strips_low_points(self):
        pts = np.array([[0, 0, 0.1], [0, 0, 0.25], [0, 0, 0.6], [0.1, 0, 0.9]])
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1), 0.0)
        kept = crop_and_strip(pts, box, FLAT, RefineConfig(), min_height=0.3)
        assert len(kept) == 2
        assert kept[:, 2].min() >= 0.3

    def test_matches_brute_force_filter_oracle(self):
        sample = cabinet_sample()
        cfg = RefineConfig()
        plane = fit_ground_plane(sample.cloud, cfg)
        for entry in sample.truth_objects:
            box = OrientedBox3.from_dict(entry["box3d_lidar"])
            kept = crop_and_strip(sample.cloud, box, plane, cfg)
            expected = crop_filter_oracle(
                sample.cloud, box.center, cfg.radius, plane.normal, plane.d, cfg.ground_threshold
            )
            assert len(kept) == len(expected)
            np.testing.assert_array_equal(kept, sample.cloud[expected])

    def test_clouds_are_read_only_float64_rows(self):
        from ipslabel.cloud import read_ply, write_ply
        from ipslabel.config import SceneConfig
        from ipslabel.sim import raycast_lidar

        sample = cabinet_sample()
        cfg = RefineConfig()
        box = OrientedBox3.from_dict(sample.truth_objects[0]["box3d_lidar"])
        scan = raycast_lidar(SceneConfig(), sample.robot_pose)
        clouds = {
            "raycast_lidar": scan,
            "read_ply": read_ply(write_ply(scan)),
            "crop_and_strip": crop_and_strip(scan, box, fit_ground_plane(scan, cfg), cfg),
        }
        for name, cloud in clouds.items():
            assert isinstance(cloud, np.ndarray), name
            assert cloud.dtype == np.float64 and cloud.ndim == 2 and cloud.shape[1] == 3, name
            assert len(cloud) > 0 and not cloud.flags.writeable, name
        for name in ("raycast_lidar", "read_ply"):  # each axis contiguous, as refine runs fastest
            assert clouds[name].flags.f_contiguous, name


# ---------------------------------------------------------------------------
# model proposal functions


class TestMpfCabinet:
    def test_unit_corner_hand_evaluation(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        p3, p1, p2 = (0, 0, 0), (1, 0, 0), (0, 1, 0)
        box = mpf_cabinet(p1, p2, p3, FLAT, spec, MpfKind.CABINET_LEFT_FRONT)
        # s = (1,1,0)/sqrt2, o = n x s = (-1,1,0)/sqrt2
        # w_vec = (w/sqrt2)(s - o) = (1,0,0), l_vec = (l/sqrt2)(s + o) = (0,1,0)
        np.testing.assert_allclose(box.center, (0.5, 0.5, 0.5), atol=1e-12)
        assert box.yaw == pytest.approx(math.pi / 2, abs=1e-12)
        corners = sorted((round(x, 9), round(y, 9)) for x, y in box.vertices()[:4, :2])
        assert corners == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_right_front_swaps_edge_roles(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        p3, p1, p2 = (0, 0, 0), (1, 0, 0), (0, 1, 0)
        box = mpf_cabinet(p1, p2, p3, FLAT, spec, MpfKind.CABINET_RIGHT_FRONT)
        np.testing.assert_allclose(box.center, (0.5, 0.5, 0.5), atol=1e-12)
        assert box.yaw == pytest.approx(0.0, abs=1e-12)

    def test_non_square_dims_scale_each_axis(self):
        spec = ObjectSpec("cabinet", 2.0, 0.5, 1.2)
        box = mpf_cabinet((1, 0, 0), (0, 1, 0), (0, 0, 0), FLAT, spec, MpfKind.CABINET_LEFT_FRONT)
        np.testing.assert_allclose(box.center, (0.25, 1.0, 0.6), atol=1e-12)
        np.testing.assert_allclose(box.dims, (2.0, 0.5, 1.2), atol=0)

    def test_collinear_samples_use_their_direction(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        box = mpf_cabinet((1, 0, 0), (2, 0, 0), (0, 0, 0), FLAT, spec, MpfKind.CABINET_LEFT_FRONT)
        # s = (1,0,0); the box still spans the quadrant between s-o and s+o
        assert box.yaw == pytest.approx(math.pi / 4, abs=1e-12)
        assert math.hypot(*(box.center[:2])) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_lifted_samples_match_their_projections(self):
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        flat_box = mpf_cabinet((1, 0.2, 0), (0.1, 1, 0), (0, 0, 0), FLAT, spec, MpfKind.CABINET_LEFT_FRONT)
        lifted_box = mpf_cabinet(
            (1, 0.2, 0.4), (0.1, 1, 0.4), (0, 0, 0.4), FLAT, spec, MpfKind.CABINET_LEFT_FRONT
        )
        np.testing.assert_allclose(lifted_box.center, flat_box.center, atol=1e-12)
        assert lifted_box.yaw == pytest.approx(flat_box.yaw, abs=1e-12)

    def test_opposite_edge_directions_degenerate(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        with pytest.raises(DegenerateSample):
            mpf_cabinet((1, 0, 0), (-1, 0, 0), (0, 0, 0), FLAT, spec, MpfKind.CABINET_LEFT_FRONT)

    def test_coincident_samples_degenerate(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        with pytest.raises(DegenerateSample):
            mpf_cabinet((0, 0, 0), (0, 1, 0), (0, 0, 0.2), FLAT, spec, MpfKind.CABINET_LEFT_FRONT)

    def test_two_point_kind_rejected(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mpf_cabinet((1, 0, 0), (0, 1, 0), (0, 0, 0), FLAT, spec, MpfKind.CABINET_TWO_POINT_FACE)


class TestMpfCabinetTwoPoint:
    def test_face_flush_with_segment(self):
        spec = ObjectSpec("cabinet", 1.0, 0.5, 1.0)
        box = mpf_cabinet_two_point((0, 0, 0), (1, 0, 0), FLAT, spec)
        footprint = box.vertices()[:4, :2]
        assert box.dims[0] == 1.0 and box.dims[1] == 0.5
        # one footprint edge lies on the segment's line y = 0
        assert np.sum(np.abs(footprint[:, 1]) < 1e-9) == 2
        assert set(np.round(footprint[:, 0], 9)) == {0.0, 1.0}

    def test_side_mirrors_across_the_face(self):
        spec = ObjectSpec("cabinet", 1.0, 0.5, 1.0)
        plus = mpf_cabinet_two_point((0, 0, 0), (1, 0, 0), FLAT, spec, side=1)
        minus = mpf_cabinet_two_point((0, 0, 0), (1, 0, 0), FLAT, spec, side=-1)
        np.testing.assert_allclose(plus.center * (1, -1, 1), minus.center, atol=1e-12)

    def test_off_plane_points_match_projections(self):
        spec = ObjectSpec("cabinet", 1.0, 0.5, 1.0)
        flat_box = mpf_cabinet_two_point((0, 0, 0), (1, 0.3, 0), FLAT, spec)
        lifted_box = mpf_cabinet_two_point((0, 0, 0.7), (1, 0.3, 0.7), FLAT, spec)
        np.testing.assert_allclose(lifted_box.center, flat_box.center, atol=1e-12)
        assert lifted_box.yaw == pytest.approx(flat_box.yaw, abs=1e-12)

    def test_coincident_points_degenerate(self):
        spec = ObjectSpec("cabinet", 1.0, 0.5, 1.0)
        with pytest.raises(DegenerateSample):
            mpf_cabinet_two_point((0.3, 0.2, 0), (0.3, 0.2, 0.9), FLAT, spec)


class TestMpfTable:
    def test_centered_on_stem_point(self):
        spec = ObjectSpec("table", 1.0, 1.0, 0.75)
        box = mpf_table((1, 0, 0), (0, 1, 0), (0, 0, 0), FLAT, spec)
        np.testing.assert_allclose(box.center, (0, 0, 0.375), atol=1e-12)
        footprint = sorted((round(x, 9), round(y, 9)) for x, y in box.vertices()[:4, :2])
        assert footprint == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_coincident_projections_degenerate(self):
        spec = ObjectSpec("table", 1.0, 1.0, 0.75)
        with pytest.raises(DegenerateSample):
            mpf_table((1, 0, 0), (1, 0, 0.5), (0, 0, 0), FLAT, spec)


def propose(kind, sample, plane, spec, side):
    """The public proposal function of ``kind`` on the sample's points."""
    if kind is MpfKind.CABINET_TWO_POINT_FACE:
        return mpf_cabinet_two_point(*sample, plane, spec, side=side)
    if kind is MpfKind.TABLE_STEM:
        return mpf_table(*sample, plane, spec)
    return mpf_cabinet(*sample, plane, spec, kind)


def unit(v):
    return v / np.linalg.norm(v)


def turned(v, normal, angle):
    """v, perpendicular to the unit normal, turned by angle about it."""
    return math.cos(angle) * v + math.sin(angle) * np.cross(normal, v)


def proposal_oracle(kind, points, plane, spec, side):
    """Centre and yaw of a proposal, built from the box's geometry: the
    bottom face lies on the plane, and a corner or stem sample fixes the
    footprint by the bisector of the two projected edge directions, with
    the length axis turned 45 degrees from it."""
    n = plane.normal
    q = [p - (p @ n - plane.d) * n for p in np.asarray(points, dtype=float)]
    if kind is MpfKind.CABINET_TWO_POINT_FACE:
        length_axis = unit(q[0] - q[1])
        width_axis = side * np.cross(n, length_axis)
        bottom = (q[0] + q[1]) / 2 + spec.width / 2 * width_axis
    else:
        bisector = unit(unit(q[0] - q[2]) + unit(q[1] - q[2]))
        turn = -math.pi / 4 if kind is MpfKind.CABINET_RIGHT_FRONT else math.pi / 4
        length_axis = turned(bisector, n, turn)
        width_axis = turned(bisector, n, -turn)
        bottom = q[2]
        if kind is not MpfKind.TABLE_STEM:
            bottom = q[2] + spec.length / 2 * length_axis + spec.width / 2 * width_axis
    return bottom + spec.height / 2 * n, math.atan2(length_axis[1], length_axis[0])


@pytest.mark.parametrize(
    "kind, side",
    [
        (MpfKind.CABINET_LEFT_FRONT, 0),
        (MpfKind.CABINET_RIGHT_FRONT, 0),
        (MpfKind.CABINET_TWO_POINT_FACE, 1),
        (MpfKind.CABINET_TWO_POINT_FACE, -1),
        (MpfKind.TABLE_STEM, 0),
    ],
)
def test_proposal_matches_its_geometric_construction(kind, side):
    rng = np.random.default_rng(7)
    plane = GroundPlane((0.08, -0.05, 1.0), 0.2)
    spec = ObjectSpec("cabinet", 1.2, 0.8, 0.75)
    for _ in range(20):
        points = rng.uniform(-2, 2, (kind.sample_size, 3))
        box = propose(kind, points, plane, spec, side)
        center, yaw = proposal_oracle(kind, points, plane, spec, side)
        np.testing.assert_allclose(box.center, center, atol=1e-9)
        assert normalize_yaw(box.yaw - yaw) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# fitness


class TestFitness:
    def test_face_center_counts_once(self):
        box = OrientedBox3((0, 0, 0), (2, 2, 2), 0.0)
        assert fitness(box, np.array([[1.0, 0.0, 0.0]]), 0.05) == 1

    def test_edge_point_counts_twice(self):
        box = OrientedBox3((0, 0, 0), (2, 2, 2), 0.0)
        assert fitness(box, np.array([[1.0, 1.0, 0.0]]), 0.05) == 2

    def test_corner_counts_three_times(self):
        box = OrientedBox3((0, 0, 0), (2, 2, 2), 0.0)
        assert fitness(box, np.array([[1.0, 1.0, 1.0]]), 0.05) == 3

    def test_interior_and_exterior_points_count_zero(self):
        box = OrientedBox3((0, 0, 0), (2, 2, 2), 0.0)
        assert fitness(box, np.array([[0.0, 0.0, 0.0]]), 0.05) == 0  # deep inside
        assert fitness(box, np.array([[1.2, 0.0, 0.0]]), 0.05) == 0  # outside the shell

    def test_boundary_is_inclusive(self):
        box = OrientedBox3((0, 0, 0), (2, 2, 2), 0.0)
        assert fitness(box, np.array([[1.05, 0.0, 0.0]]), 0.05) == 1
        assert fitness(box, np.array([[0.95, 0.0, 0.0]]), 0.05) == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            center = rng.uniform(-2, 2, 3)
            dims = rng.uniform(0.3, 2.5, 3)
            yaw = rng.uniform(-math.pi, math.pi)
            box = OrientedBox3(center, dims, yaw)
            pts = center + rng.uniform(-2, 2, (300, 3))
            expected = fitness_oracle(center, dims, yaw, pts, 0.05)
            assert fitness(box, pts, 0.05) == expected

    def test_invariant_under_joint_rigid_motion(self):
        rng = np.random.default_rng(9)
        box = OrientedBox3((0.5, -0.2, 0.7), (1.1, 0.6, 1.4), 0.4)
        pts = np.asarray(box.center) + rng.uniform(-1, 1, (500, 3))
        base = fitness(box, pts, 0.05)
        shift = np.array([3.0, -2.0, 1.0])
        theta = 0.8
        moved_pts = pts @ yaw_rotation(theta).T + shift
        moved_box = OrientedBox3(
            yaw_rotation(theta) @ box.center + shift, box.dims, box.yaw + theta
        )
        assert fitness(moved_box, moved_pts, 0.05) == base

    def test_accepts_point_clouds_and_validates_delta(self):
        box = OrientedBox3((0, 0, 0), (2, 2, 2), 0.0)
        cloud = np.array([[1.0, 0.0, 0.0]])
        assert fitness(box, cloud, 0.05) == 1
        assert fitness(box, np.zeros((0, 3)), 0.05) == 0
        with pytest.raises(ValueError):
            fitness(box, cloud, 0.0)


# ---------------------------------------------------------------------------
# refine_label


def shell_scene(rng, truth: OrientedBox3, n_shell=1200, n_floor=3000):
    """Floor disk plus an exact box-shaped shell around ``truth``."""
    faces = []
    half = truth.dims / 2.0
    for _ in range(n_shell):
        axis = rng.integers(3)
        sign = 1.0 if rng.integers(2) else -1.0
        local = rng.uniform(-half, half)
        local[axis] = sign * half[axis]
        faces.append(local)
    shell = np.asarray(faces) @ yaw_rotation(truth.yaw).T + truth.center
    floor = np.column_stack(
        [rng.uniform(-4, 4, n_floor), rng.uniform(-4, 4, n_floor), np.zeros(n_floor)]
    )
    return np.vstack([shell, floor])


class TestRefineLabel:
    def test_offset_label_improves_on_shell_scene(self):
        from ipslabel.eval import iou_3d

        rng = np.random.default_rng(10)
        truth = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.3)
        cloud = shell_scene(rng, truth)
        unrefined = OrientedBox3(truth.center + (0.1, -0.08, 0.0), truth.dims, truth.yaw + 0.1)
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        cfg = RefineConfig(iterations=800)
        refined = refine_fitted(cloud, unrefined, spec, cfg, seed=3)
        assert iou_3d(refined, truth) > iou_3d(unrefined, truth)
        assert iou_3d(refined, truth) > 0.8

    def test_single_iteration_equals_direct_proposal(self):
        rng = np.random.default_rng(11)
        truth = OrientedBox3((1.5, -0.5, 0.5), (1.0, 0.6, 1.0), -0.4)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=1)
        plane = fit_ground_plane(cloud, cfg, seed=23)
        got = refine_label(cloud, truth, spec, cfg, seed=23, plane=plane)

        cropped = crop_and_strip(cloud, truth, plane, cfg)
        stream = substream(23, NS_REFINE_DRAWS)
        kinds = kinds_for_class(spec.class_name)
        kind = kinds[int(stream.integers(len(kinds), size=1)[0])]
        assert kind is MpfKind.CABINET_RIGHT_FRONT  # this seed draws a corner kind
        values = [int(stream.integers(len(cropped) - c, size=1)[0]) for c in range(3)]
        p1, p2, p3 = cropped[reference_sample(values)]
        expected = mpf_cabinet(p1, p2, p3, plane, spec, kind)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_same_seed_same_box(self):
        rng = np.random.default_rng(12)
        truth = OrientedBox3((2.0, 0.0, 0.5), (1.0, 0.6, 1.0), 0.2)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=200)
        a = refine_fitted(cloud, truth, spec, cfg, seed=8)
        b = refine_fitted(cloud, truth, spec, cfg, seed=8)
        np.testing.assert_array_equal(a.center, b.center)
        assert a.yaw == b.yaw

    def test_label_far_from_points_is_empty_neighborhood(self):
        rng = np.random.default_rng(14)
        truth = OrientedBox3((2.0, 0.0, 0.5), (1.0, 0.6, 1.0), 0.2)
        cloud = shell_scene(rng, truth)
        lost = OrientedBox3((20.0, 20.0, 0.5), truth.dims, 0.0)
        with pytest.raises(EmptyNeighborhood):
            refine_fitted(cloud, lost, ObjectSpec("cabinet", 1, 0.6, 1), RefineConfig())

    def test_simulated_cabinet_recovers_truth(self):
        from ipslabel.eval import iou_3d

        sample = cabinet_sample()
        entry = next(e for e in sample.truth_objects if e["class"] == "cabinet")
        truth = OrientedBox3.from_dict(entry["box3d_lidar"])
        nudged = OrientedBox3(truth.center + (0.08, -0.06, 0), truth.dims, truth.yaw - 0.07)
        dims = entry["dims_spec"]
        spec = ObjectSpec("cabinet", dims[0], dims[1], dims[2])
        refined = refine_fitted(sample.cloud, nudged, spec, RefineConfig(iterations=1500), seed=2)
        assert iou_3d(refined, truth) > iou_3d(nudged, truth)
        assert iou_3d(refined, truth) > 0.75


# ---------------------------------------------------------------------------
# batched refine_label == one proposal and one fitness call per iteration


def reference_side(p1, p2, plane):
    """The viewpoint rule for a two-point face: the side away from the sensor
    at the origin; -1 when the points coincide, whose face is degenerate."""
    q1, q2 = plane.project(np.stack([p1, p2]))
    inward = np.cross(plane.normal, q1 - q2)
    depth = float(np.dot(inward, 0.5 * (q1 + q2) - plane.project(np.zeros((1, 3)))[0]))
    return 1 if depth > 0 else -1


def reference_sample(values):
    """The distinct indices of one sample from its column values: each value
    steps over the sample's earlier picks, taken in ascending order."""
    picks = []
    for v in values:
        for taken in sorted(picks):
            if v >= taken:
                v += 1
        picks.append(v)
    return picks


def reference_draws(kinds, n, iterations, seed):
    """Each iteration's kind and sample indices into n points, from the draws
    ``_draw`` makes: the kinds, then one column of sample values per point,
    each as one array."""
    rng = substream(seed, NS_REFINE_DRAWS)
    drawn_kinds = rng.integers(len(kinds), size=iterations)
    columns = [
        rng.integers(n - c, size=iterations) for c in range(max(k.sample_size for k in kinds))
    ]
    for i in range(iterations):
        kind = kinds[drawn_kinds[i]]
        yield kind, reference_sample([int(column[i]) for column in columns])[: kind.sample_size]


def reference_refine(pcd, unrefined, spec, cfg, seed):
    """Scalar best-of-n search.

    It takes the draws of ``reference_draws`` and builds one proposal per
    iteration. On a crop of at least _PREEMPT_MIN_CROP points it keeps the
    _PREEMPT_KEEP best proposals on every _PREEMPT_STRIDE-th point, earliest
    first among equals, and scores only those on every point. For a cabinet
    it then tests the proposals from the best score down to half of it,
    earliest first, on every ray of the cloud."""
    kinds = kinds_for_class(spec.class_name)
    plane = fit_ground_plane(pcd, cfg, seed)
    min_height = cfg.table_min_height if MpfKind.TABLE_STEM in kinds else None
    pts = crop_and_strip(pcd, unrefined, plane, cfg, min_height=min_height)
    proposals = []
    for i, (kind, picks) in enumerate(reference_draws(kinds, len(pts), cfg.iterations, seed)):
        sample = pts[picks]
        side = 0
        if kind is MpfKind.CABINET_TWO_POINT_FACE:
            side = reference_side(sample[0], sample[1], plane)
        try:
            proposals.append((i, propose(kind, sample, plane, spec, side)))
        except DegenerateSample:
            continue
    if not proposals:
        raise AllProposalsDegenerate("every reference proposal was degenerate")
    if len(pts) >= _PREEMPT_MIN_CROP:
        subset = pts[::_PREEMPT_STRIDE]
        proposals = sorted(
            proposals, key=lambda p: (-fitness(p[1], subset, cfg.shell_delta), p[0])
        )[:_PREEMPT_KEEP]
    scored = [(-fitness(box, pts, cfg.shell_delta), i, box) for i, box in proposals]
    ranked = sorted(scored, key=lambda t: t[:2])
    best = ranked[0][2]
    if MpfKind.TABLE_STEM in kinds:
        return best
    # the best box with at least half the best score that at most two rays
    # from the sensor to the cloud's points cross once shrunk by
    # shell_delta, or the best box
    for negated, _, box in ranked:
        if 2 * negated > ranked[0][0]:
            break
        shrunk = OrientedBox3(box.center, box.dims - 2 * cfg.shell_delta, box.yaw)
        if (shrunk.ray_entry(pcd) < 1).sum() <= 2:
            return box
    return best


class TestBatchedRefineMatchesScalarLoop:
    @pytest.mark.parametrize("cls", ["cabinet", "table"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simulated_object(self, cls, seed):
        sample = cabinet_sample()
        entry = next(e for e in sample.truth_objects if e["class"] == cls)
        truth = OrientedBox3.from_dict(entry["box3d_lidar"])
        nudged = OrientedBox3(truth.center + (0.06, -0.05, 0), truth.dims, truth.yaw + 0.05)
        spec = ObjectSpec(cls, *entry["dims_spec"])
        cfg = RefineConfig(iterations=400)
        expected = reference_refine(sample.cloud, nudged, spec, cfg, seed)
        got = refine_fitted(sample.cloud, nudged, spec, cfg, seed)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_coincident_two_point_faces(self):
        # a noise-free scan puts the points of one LiDAR column on a vertical
        # face at the same floor position, so two-point faces drawn from one
        # column have coincident projections
        sample = cabinet_sample()
        entry = next(e for e in sample.truth_objects if e["class"] == "cabinet")
        truth = OrientedBox3.from_dict(entry["box3d_lidar"])
        spec = ObjectSpec("cabinet", *entry["dims_spec"])
        cfg = RefineConfig(iterations=1500)
        plane = fit_ground_plane(sample.cloud, cfg, 4)
        projected = plane.project(crop_and_strip(sample.cloud, truth, plane, cfg))
        kinds = kinds_for_class("cabinet")
        coincident = sum(
            kind is MpfKind.CABINET_TWO_POINT_FACE
            and np.linalg.norm(projected[picks[0]] - projected[picks[1]]) < 1e-6
            for kind, picks in reference_draws(kinds, len(projected), cfg.iterations, 4)
        )
        assert coincident >= 2
        expected = reference_refine(sample.cloud, truth, spec, cfg, 4)
        got = refine_label(sample.cloud, truth, spec, cfg, 4, plane=plane)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_a_box_in_front_of_the_scanned_face(self):
        cloud, _, unrefined, spec = seed7_cabinet()
        cfg = RefineConfig(iterations=1000)
        expected = reference_refine(cloud, unrefined, spec, cfg, 0)
        got = refine_fitted(cloud, unrefined, spec, cfg, 0)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    @pytest.mark.parametrize("seed", [3, 5])
    def test_shell_scene(self, seed):
        rng = np.random.default_rng(seed)
        truth = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.3)
        cloud = shell_scene(rng, truth, n_shell=500, n_floor=1500)
        unrefined = OrientedBox3(truth.center + (0.1, -0.08, 0.0), truth.dims, truth.yaw + 0.1)
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        cfg = RefineConfig(iterations=300)
        expected = reference_refine(cloud, unrefined, spec, cfg, seed)
        got = refine_fitted(cloud, unrefined, spec, cfg, seed)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    @pytest.mark.parametrize("cls", ["cabinet", "table"])
    def test_dense_lidar_object(self, cls):
        # crops of the 32-channel 0.1 degree scan hold enough points to be
        # scored preemptively
        sample = dense_sample()
        entry = next(e for e in sample.truth_objects if e["class"] == cls)
        truth = OrientedBox3.from_dict(entry["box3d_lidar"])
        nudged = OrientedBox3(truth.center + (0.06, -0.05, 0), truth.dims, truth.yaw + 0.05)
        spec = ObjectSpec(cls, *entry["dims_spec"])
        cfg = RefineConfig(iterations=600)
        plane = fit_ground_plane(sample.cloud, cfg, 1)
        min_height = cfg.table_min_height if cls == "table" else None
        crop = crop_and_strip(sample.cloud, nudged, plane, cfg, min_height=min_height)
        assert len(crop) >= _PREEMPT_MIN_CROP
        expected = reference_refine(sample.cloud, nudged, spec, cfg, 1)
        got = refine_label(sample.cloud, nudged, spec, cfg, 1, plane=plane)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_all_degenerate_proposals_raise(self):
        # every point above the floor lies on one vertical line, so all
        # proposals have coincident projected points
        rng = np.random.default_rng(6)
        floor = np.column_stack(
            [rng.uniform(-3, 3, 2000), rng.uniform(-3, 3, 2000), np.zeros(2000)]
        )
        pole = np.column_stack([np.full(40, 2.0), np.full(40, 0.5), np.linspace(0.2, 1.2, 40)])
        cloud = np.vstack([floor, pole])
        unrefined = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.0)
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        cfg = RefineConfig(iterations=200)
        with pytest.raises(AllProposalsDegenerate):
            reference_refine(cloud, unrefined, spec, cfg, 1)
        with pytest.raises(AllProposalsDegenerate):
            refine_fitted(cloud, unrefined, spec, cfg, 1)

    @pytest.mark.parametrize("count, points", [(200, 700), (3, 20000), (0, 700), (5, 0)])
    def test_shell_scores_match_the_oracle_across_chunks(self, count, points):
        # 200 boxes x 700 points make five chunks of at most 2**15 tests
        # (_SHELL_TESTS), the last one partial; a cloud of more than 2**14
        # points makes one chunk per box; no boxes give no scores and no
        # points give zeros
        rng = np.random.default_rng(13)
        centers = rng.uniform(-1, 1, (count, 3))
        yaws = rng.uniform(-math.pi, math.pi, count)
        pts = rng.uniform(-2, 2, (points, 3))
        scores = shell_scores(centers, yaws, (1.1, 0.6, 1.4), pts, 0.05)
        assert scores.tolist() == [
            fitness_oracle(c, (1.1, 0.6, 1.4), y, pts, 0.05) for c, y in zip(centers, yaws)
        ]


# ---------------------------------------------------------------------------
# preemptive scoring: a dense crop ranks every proposal on every
# _PREEMPT_STRIDE-th point and scores only the _PREEMPT_KEEP best on all


PREEMPT_TRUTH = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.3)


def preempt_crop(cloud, cls, cfg):
    """The crop that refine_label scores for class ``cls`` around PREEMPT_TRUTH on FLAT."""
    min_height = cfg.table_min_height if cls == "table" else None
    return crop_and_strip(cloud, PREEMPT_TRUTH, FLAT, cfg, min_height=min_height)


def preempt_cloud(n, cls, cfg):
    """A cloud whose crop is exactly ``n`` of the box's shell points, and the
    floor below them."""
    cloud = shell_scene(np.random.default_rng(n), PREEMPT_TRUTH, n_shell=3 * n, n_floor=1000)
    crop = preempt_crop(cloud, cls, cfg)
    assert len(crop) >= n
    return np.vstack([crop[:n], cloud[3 * n :]])


def live_centers(cloud, cls, spec, cfg, seed):
    """The centres of the live proposals that refine_label builds, in
    iteration order."""
    kinds = kinds_for_class(cls)
    projected = FLAT.project(preempt_crop(cloud, cls, cfg))
    rng = substream(seed, NS_REFINE_DRAWS)
    kind, idx, side = _draw(kinds, projected, FLAT, cfg.iterations, rng)
    centers, _, degenerate = _proposals(kinds, kind, projected[idx], side, FLAT, spec)
    return centers[~degenerate]


def record_shell_scores(monkeypatch, scorer=shell_scores):
    """Route refine's shell_scores through ``scorer``, recording each call's
    centres, points and scores."""
    calls = []

    def recorder(centers, yaws, dims, points, delta):
        scores = scorer(centers, yaws, dims, points, delta)
        calls.append((np.array(centers), np.array(points), scores))
        return scores

    monkeypatch.setattr(refine_module, "shell_scores", recorder)
    return calls


class TestPreemption:
    SPEC = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
    CFG = RefineConfig(iterations=1000)

    @pytest.mark.parametrize("n", [512, 517])
    def test_a_dense_crop_is_scored_on_a_subset_then_in_full(self, monkeypatch, n):
        cloud = preempt_cloud(n, "cabinet", self.CFG)
        crop = preempt_crop(cloud, "cabinet", self.CFG)
        live = live_centers(cloud, "cabinet", self.SPEC, self.CFG, 3)
        assert len(crop) == n and len(live) > _PREEMPT_KEEP
        calls = record_shell_scores(monkeypatch)
        got = refine_label(cloud, PREEMPT_TRUTH, self.SPEC, self.CFG, 3, plane=FLAT)
        (rough, subset, rough_scores), (kept, points, _) = calls
        np.testing.assert_array_equal(rough, live)
        assert len(subset) == math.ceil(n / _PREEMPT_STRIDE)
        np.testing.assert_array_equal(subset, crop[::_PREEMPT_STRIDE])
        np.testing.assert_array_equal(points, crop)
        # the best on the subset, earliest first among equals, in iteration order
        best = np.sort(np.argsort(-rough_scores, kind="stable")[:_PREEMPT_KEEP])
        np.testing.assert_array_equal(kept, live[best])
        assert min(rough_scores[best]) >= max(np.delete(rough_scores, best))
        assert got.center.tolist() in kept.tolist()

    def test_a_crop_below_the_floor_is_scored_once_in_full(self, monkeypatch):
        n = _PREEMPT_MIN_CROP - 1
        cloud = preempt_cloud(n, "cabinet", self.CFG)
        crop = preempt_crop(cloud, "cabinet", self.CFG)
        live = live_centers(cloud, "cabinet", self.SPEC, self.CFG, 3)
        assert len(crop) == n and len(live) > _PREEMPT_KEEP
        calls = record_shell_scores(monkeypatch)
        refine_label(cloud, PREEMPT_TRUTH, self.SPEC, self.CFG, 3, plane=FLAT)
        ((centers, points, _),) = calls
        np.testing.assert_array_equal(centers, live)
        np.testing.assert_array_equal(points, crop)

    def test_subset_ties_keep_the_earliest_and_it_wins_full_ties(self, monkeypatch):
        # every third live proposal ties on the subset above the rest, and
        # every kept one ties in full: the kept are the earliest of the
        # tied, and the earliest kept wins
        spec = ObjectSpec("table", 0.9, 0.5, 1.3)
        cloud = preempt_cloud(600, "table", self.CFG)
        live = live_centers(cloud, "table", spec, self.CFG, 4)
        assert len(live) > 3 * _PREEMPT_KEEP

        def tied(centers, yaws, dims, points, delta):
            rows = np.arange(len(centers))
            return (rows % 3 == 2).astype(np.int64) if len(points) < 600 else 0 * rows

        calls = record_shell_scores(monkeypatch, tied)
        got = refine_label(cloud, PREEMPT_TRUTH, spec, self.CFG, 4, plane=FLAT)
        (_, subset, _), (kept, _, _) = calls
        assert len(subset) == 75
        np.testing.assert_array_equal(kept, live[2::3][:_PREEMPT_KEEP])
        np.testing.assert_array_equal(got.center, live[2])


# ---------------------------------------------------------------------------
# free space: no sensor ray crosses a solid box


def seed7_cabinet():
    """The cabinet of sample 0 of the default scene at seed 7, its truth box,
    and a label 5 cm off sideways, as a noisy calibration puts it."""
    from ipslabel.config import SceneConfig
    from ipslabel.sim import make_sample

    sample = make_sample(SceneConfig(), seed=7, index=0)
    entry = next(e for e in sample.truth_objects if e["class"] == "cabinet")
    truth = OrientedBox3.from_dict(entry["box3d_lidar"])
    unrefined = OrientedBox3(truth.center + (0.0, -0.05, 0.0), truth.dims, truth.yaw + 0.015)
    return sample.cloud, truth, unrefined, ObjectSpec("cabinet", *entry["dims_spec"])


class TestFreeSpace:
    # a wall of points at x = 3 facing the sensor, and two 0.9 x 0.5 x 1.3 m
    # boxes whose faces lie on it: one in front of it, one behind it
    WALL = np.array([(3.0, y, z) for y in np.linspace(-1, 1, 21) for z in np.linspace(0, 1.3, 14)])
    CENTERS = np.array([[2.55, 0.0, 0.65], [3.45, 0.0, 0.65]])
    LENGTHS = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    SPEC = ObjectSpec("cabinet", 0.9, 0.5, 1.3)

    def first_clear(self, order):
        return _first_clear(
            np.array(order), self.CENTERS, self.LENGTHS, self.SPEC, 0.05, self.WALL, self.CENTERS.mean(axis=0)
        )

    def test_the_box_in_front_of_the_face_is_passed_over(self):
        assert self.first_clear([0, 1]) == 1
        assert self.first_clear([1, 0]) == 1

    def test_when_every_box_is_crossed_the_first_is_kept(self):
        assert self.first_clear([0, 0]) == 0

    def test_refinement_does_not_stand_in_front_of_the_scanned_face(self):
        from ipslabel.eval import iou_3d

        # at this seed the best-scoring box stands in front of the cabinet's
        # scanned faces, overlapping the truth by nothing
        cloud, truth, unrefined, spec = seed7_cabinet()
        refined = refine_fitted(cloud, unrefined, spec, RefineConfig(iterations=1000))
        assert iou_3d(refined, truth) > 0.8

    def test_a_crossed_first_box_leaves_no_reference_cycle(self, monkeypatch):
        # a cycle would keep the search's arrays until the cyclic GC ran
        cloud, _, unrefined, spec = seed7_cabinet()
        cfg = RefineConfig(iterations=1000)
        plane = fit_ground_plane(cloud, cfg, 0)
        ray_tests = []
        ray_entries = refine_module.ray_entries
        monkeypatch.setattr(
            refine_module, "ray_entries", lambda *args: ray_tests.append(1) or ray_entries(*args)
        )
        gc.collect()
        gc.disable()
        try:
            refine_label(cloud, unrefined, spec, cfg, 0, plane=plane)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(ray_tests) > 1  # the first box was crossed, so the others were tested
        assert unreachable == 0


def walk_first_clear(order, centers, lengths, spec, delta, points):
    """The free-space check without a prefilter: the full-ray test of each
    box of ``order`` in turn, on every point's ray; ``order[0]`` when every
    box is crossed."""
    shrunk = np.asarray(spec.dims) - 2 * delta
    for i in order:
        box = OrientedBox3(centers[i], shrunk, math.atan2(lengths[i][1], lengths[i][0]))
        if np.count_nonzero(box.ray_entry(points) < 1) <= _CROSSING_RAYS:
            return i
    return order[0]


class TestFirstClearMatchesTheWalk:
    # a denser wall at x = 3 than TestFreeSpace's; box 0 stands in front of
    # it, box 1 behind it, and box 2 off to the side, where only the rays of
    # the points put behind it cross it; boxes 3 and on are box 0 moved by
    # up to 2 cm and turned by up to 0.02 rad, so they are crossed too
    SPEC = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
    WALL = np.array(
        [(3.0, y, z) for y in np.linspace(-1, 1, 41) for z in np.linspace(0.0, 1.3, 27)]
    )
    JITTERED = 4000

    @classmethod
    def boxes(cls):
        rng = np.random.default_rng(17)
        turn = rng.uniform(-0.02, 0.02, cls.JITTERED)
        centers = np.vstack(
            [
                [[2.55, 0.0, 0.65], [3.45, 0.0, 0.65], [3.45, 3.0, 0.65]],
                [2.55, 0.0, 0.65] + rng.uniform(-0.02, 0.02, (cls.JITTERED, 3)),
            ]
        )
        lengths = np.vstack(
            [np.tile([1.0, 0.0, 0.0], (3, 1)), np.column_stack([np.cos(turn), np.sin(turn), 0 * turn])]
        )
        return centers, lengths

    def check(self, order, points):
        centers, lengths = self.boxes()
        order = np.asarray(order)
        got = _first_clear(order, centers, lengths, self.SPEC, 0.05, points, centers[order].mean(axis=0))
        assert got == walk_first_clear(order, centers, lengths, self.SPEC, 0.05, points)
        return got

    def points_crossing_box_2(self, rows):
        """The wall after a block of points on the wall's centre, of which
        ``rows`` lie behind box 2 instead, so their rays, and only theirs,
        cross it."""
        block = np.tile([3.0, 0.0, 0.65], (max(rows) + 1, 1))
        block[rows] = [5.0, 5 * 3.0 / 3.45, 0.65]
        block[rows, 2] += np.linspace(-0.2, 0.2, len(rows))
        points = np.vstack([block, self.WALL])
        shrunk = OrientedBox3((3.45, 3.0, 0.65), np.asarray(self.SPEC.dims) - 0.1, 0.0)
        assert np.flatnonzero(shrunk.ray_entry(points) < 1).tolist() == list(rows)
        return points

    def test_order_0_clear(self):
        assert self.check([1, 0, 3], self.WALL) == 1

    def test_first_clear_box_beyond_the_first_prefilter_chunk(self):
        # every JITTERED box is crossed; the first pass's chunks hold fewer
        chunk = _RAY_TESTS // -(-len(self.WALL) // _COARSE_STRIDE)
        assert self.JITTERED > 2 * chunk
        order = [0, *range(3, 3 + self.JITTERED), 1]
        assert self.check(order, self.WALL) == 1

    def test_every_box_crossed_keeps_order_0(self):
        assert self.check([5, 0, *range(6, 3 + self.JITTERED)], self.WALL) == 5

    def test_a_box_the_sparse_rays_miss_still_gets_the_full_test(self):
        # box 2 is crossed by one ray too many, none of them a prefilter ray
        rows = [i for i in range(1, 1000) if all(i % s for s in (_COARSE_STRIDE, _FINE_STRIDE))]
        points = self.points_crossing_box_2(rows[: _CROSSING_RAYS + 1])
        assert self.check([0, 2, 1], points) == 1

    def test_a_box_crossed_by_as_many_prefilter_rays_as_allowed_is_clear(self):
        # box 2 is crossed by _CROSSING_RAYS rays, each in every prefilter pass
        step = int(np.lcm.reduce((_COARSE_STRIDE, _FINE_STRIDE)))
        points = self.points_crossing_box_2([step * i for i in range(_CROSSING_RAYS)])
        assert self.check([0, 2, 1], points) == 2

    def test_no_rays_near_the_object(self):
        far = self.WALL * [1.0, -1.0, 1.0] + [-20.0, 0.0, 0.0]
        assert self.check([0, 3, 1], far) == 0

    @pytest.mark.parametrize("crossing", [_CROSSING_RAYS, _CROSSING_RAYS + 1])
    def test_rays_of_several_blocks_add_up(self, crossing):
        # box 2's crossing rays lie in different blocks of _RAY_TESTS rays,
        # none of them a prefilter ray, so only the sum over blocks tells
        rows = [1 + k * _RAY_TESTS for k in range(crossing)]
        points = self.points_crossing_box_2(rows)
        assert self.check([0, 2, 1], points) == (2 if crossing <= _CROSSING_RAYS else 1)


# ---------------------------------------------------------------------------
# _draw


class TestDraw:
    def test_samples_are_distinct_and_uniform_over_ordered_triples(self):
        points = np.random.default_rng(1).uniform(-2, 2, (5, 3))
        draws = 200_000
        kind, idx, side = _draw(
            CLASS_KINDS["table"], FLAT.project(points), FLAT, draws, substream(1, NS_REFINE_DRAWS)
        )
        assert not kind.any() and not side.any()
        triples, counts = np.unique(idx, axis=0, return_counts=True)
        assert all(len(set(t)) == 3 for t in triples.tolist())
        assert len(triples) == 60
        # each count is Binomial(200000, 1/60): mean 3333, standard deviation 57
        assert 3333 - 5 * 57 <= counts.min() and counts.max() <= 3333 + 5 * 57

    @staticmethod
    def half_coincident():
        """A tilted plane and 60 projected points, the first 30 of them one point."""
        points = np.random.default_rng(3).uniform(-2, 2, (60, 3))
        points[:30] = points[0]
        plane = GroundPlane((0.02, -0.01, 1.0), 0.1)
        return plane, plane.project(points)

    def test_coincident_two_point_faces_are_degenerate_on_either_side(self):
        # the viewpoint cannot orient a face through coincident points, and
        # need not: its proposal is degenerate whichever side it extrudes to
        plane, projected = self.half_coincident()
        kinds = CLASS_KINDS["cabinet"]
        kind, idx, side = _draw(kinds, projected, plane, 1500, substream(3, NS_REFINE_DRAWS))
        two = kind == kinds.index(MpfKind.CABINET_TWO_POINT_FACE)
        assert not side[~two].any()
        np.testing.assert_array_equal(
            side[two], _away_sides(projected[idx[two, 0]], projected[idx[two, 1]], plane)
        )
        rows = np.flatnonzero(two & (idx[:, 0] < 30) & (idx[:, 1] < 30))
        assert rows.size >= 2
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        for sign in (1, -1):
            _, _, degenerate = _proposals(
                kinds, kind[rows], projected[idx[rows]], np.full(rows.size, sign), plane, spec
            )
            assert degenerate.all()

    def test_reads_only_the_kind_and_sample_arrays(self):
        plane, projected = self.half_coincident()
        kinds = CLASS_KINDS["cabinet"]
        stream = substream(3, NS_REFINE_DRAWS)
        _draw(kinds, projected, plane, 1500, stream)
        fresh = substream(3, NS_REFINE_DRAWS)
        fresh.integers(len(kinds), size=1500)
        distinct_rows(fresh, len(projected), 3, 1500)
        assert stream.bit_generator.state == fresh.bit_generator.state
