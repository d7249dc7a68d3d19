"""Ground plane fitting, cropping, model proposals, and RANSAC refinement."""

import functools
import math

import numpy as np
import pytest

from ipslabel.cloud import PointCloud
from ipslabel.errors import (
    ConfigError,
    DegenerateSample,
    EmptyNeighborhood,
    NoPlaneFound,
    TooFewPoints,
)
from ipslabel.labelgen import ObjectSpec, OrientedBox3, normalize_yaw
from ipslabel.refine import (
    CLASS_KINDS,
    GroundPlane,
    MpfKind,
    RefineConfig,
    crop_and_strip,
    fit_ground_plane,
    fitness,
    kinds_for_class,
    mpf_cabinet,
    mpf_cabinet_two_point,
    mpf_table,
    refine_label,
)
from ipslabel.rng import NS_REFINE, substream

from .oracles import crop_filter_oracle, fitness_oracle, yaw_rotation

FLAT = GroundPlane((0, 0, 1), 0.0)


@functools.lru_cache(maxsize=1)
def cabinet_sample():
    """One noise-free simulated sample, shared across tests in this module."""
    from dataclasses import replace

    from ipslabel.sim import default_scene, make_sample

    scene = replace(default_scene(), beacon_noise=0.0, pixel_noise_sigma=0.0)
    return make_sample(scene, seed=5, index=0)


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


class TestFitGroundPlane:
    def test_flat_floor_with_outliers(self):
        rng = np.random.default_rng(0)
        floor = np.column_stack(
            [rng.uniform(-5, 5, 400), rng.uniform(-5, 5, 400), np.zeros(400)]
        )
        outliers = rng.uniform(0.5, 3.0, (20, 3))
        cloud = PointCloud(np.vstack([floor, outliers]), frame="lidar")
        plane = fit_ground_plane(cloud, RefineConfig())
        np.testing.assert_allclose(plane.normal, (0, 0, 1), atol=1e-9)
        assert abs(plane.d) <= 1e-9

    def test_tilted_plane_normal(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, 500)
        y = rng.uniform(-5, 5, 500)
        cloud = PointCloud(np.column_stack([x, y, 0.1 * x]), frame="lidar")
        plane = fit_ground_plane(cloud, RefineConfig())
        expected = np.array([-0.1, 0, 1]) / np.linalg.norm([-0.1, 0, 1])
        np.testing.assert_allclose(plane.normal, expected, atol=1e-6)

    def test_same_seed_identical_plane(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack(
            [rng.uniform(-3, 3, 300), rng.uniform(-3, 3, 300), rng.normal(0, 0.01, 300)]
        )
        cloud = PointCloud(pts, frame="lidar")
        a = fit_ground_plane(cloud, RefineConfig(seed=4))
        b = fit_ground_plane(cloud, RefineConfig(seed=4))
        np.testing.assert_array_equal(a.normal, b.normal)
        assert a.d == b.d

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_ground_plane(PointCloud(np.zeros((2, 3)), frame="lidar"), RefineConfig())

    def test_unstructured_cloud_has_no_plane(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(0, 5, (300, 3)), frame="lidar")
        with pytest.raises(NoPlaneFound):
            fit_ground_plane(cloud, RefineConfig())

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
        cloud = PointCloud(np.vstack([wall, floor]), frame="lidar")
        # the floor is only 20% of the cloud, so give the sampler enough
        # draws to land three floor points in one hypothesis
        plane = fit_ground_plane(cloud, RefineConfig(plane_iterations=3000))
        assert plane.normal[2] > 0.99
        # wall-base points inside the inlier band shift the refit slightly
        assert abs(plane.d) <= 0.01


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
            crop_and_strip(PointCloud(floor, frame="lidar"), box, FLAT, RefineConfig())

    def test_keeps_exactly_the_near_cluster(self):
        rng = np.random.default_rng(6)
        near = np.array([0.2, -0.1, 0.6]) + rng.normal(0, 0.05, (40, 3))
        far = np.array([5.0, 5.0, 0.6]) + rng.normal(0, 0.05, (30, 3))
        cloud = PointCloud(np.vstack([near, far]), frame="lidar")
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1), 0.0)
        kept = crop_and_strip(cloud, box, FLAT, RefineConfig())
        assert len(kept) == 40
        np.testing.assert_allclose(np.sort(kept.points, axis=0), np.sort(near, axis=0), atol=0)

    def test_min_height_strips_low_points(self):
        pts = np.array([[0, 0, 0.1], [0, 0, 0.25], [0, 0, 0.6], [0.1, 0, 0.9]])
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1), 0.0)
        kept = crop_and_strip(PointCloud(pts, frame="lidar"), box, FLAT, RefineConfig(), min_height=0.3)
        assert len(kept) == 2
        assert kept.points[:, 2].min() >= 0.3

    def test_matches_brute_force_filter_oracle(self):
        sample = cabinet_sample()
        cfg = RefineConfig()
        plane = fit_ground_plane(sample.cloud, cfg)
        for entry in sample.truth_objects:
            box = OrientedBox3.from_dict(entry["box3d_lidar"])
            kept = crop_and_strip(sample.cloud, box, plane, cfg)
            expected = crop_filter_oracle(
                sample.cloud.points, box.center, cfg.radius, plane.normal, plane.d, cfg.ground_threshold
            )
            assert len(kept) == len(expected)
            np.testing.assert_array_equal(kept.points, sample.cloud.points[expected])


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

    def test_yaw_matches_bisector_oracle(self):
        rng = np.random.default_rng(7)
        spec = ObjectSpec("table", 1.2, 0.8, 0.75)
        for _ in range(10):
            p3 = np.append(rng.uniform(-2, 2, 2), 0.0)
            p1 = np.append(rng.uniform(-2, 2, 2), 0.0)
            p2 = np.append(rng.uniform(-2, 2, 2), 0.0)
            if min(np.linalg.norm(p1 - p3), np.linalg.norm(p2 - p3)) < 1e-3:
                continue
            v1 = (p1 - p3) / np.linalg.norm(p1 - p3)
            v2 = (p2 - p3) / np.linalg.norm(p2 - p3)
            if np.linalg.norm(v1 + v2) < 1e-6:
                continue
            s = (v1 + v2) / np.linalg.norm(v1 + v2)
            o = np.cross((0, 0, 1.0), s)
            expected_yaw = math.atan2((s + o)[1], (s + o)[0])
            box = mpf_table(p1, p2, p3, FLAT, spec)
            assert normalize_yaw(box.yaw - expected_yaw) == pytest.approx(0.0, abs=1e-9)
            np.testing.assert_allclose(box.center[:2], p3[:2], atol=1e-12)

    def test_coincident_projections_degenerate(self):
        spec = ObjectSpec("table", 1.0, 1.0, 0.75)
        with pytest.raises(DegenerateSample):
            mpf_table((1, 0, 0), (1, 0, 0.5), (0, 0, 0), FLAT, spec)


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
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), frame="lidar")
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
    return PointCloud(np.vstack([shell, floor]), frame="lidar")


class TestRefineLabel:
    def test_offset_label_improves_on_shell_scene(self):
        from ipslabel.eval import iou_3d

        rng = np.random.default_rng(10)
        truth = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.3)
        cloud = shell_scene(rng, truth)
        unrefined = OrientedBox3(truth.center + (0.1, -0.08, 0.0), truth.dims, truth.yaw + 0.1)
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        cfg = RefineConfig(iterations=800, seed=3)
        refined = refine_label(cloud, unrefined, spec, cfg)
        assert iou_3d(refined, truth) > iou_3d(unrefined, truth)
        assert iou_3d(refined, truth) > 0.8

    def test_single_iteration_equals_direct_proposal(self):
        rng = np.random.default_rng(11)
        truth = OrientedBox3((1.5, -0.5, 0.5), (1.0, 0.6, 1.0), -0.4)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=1, seed=21)
        got = refine_label(cloud, truth, spec, cfg)

        plane = fit_ground_plane(cloud, cfg)
        cropped = crop_and_strip(cloud, truth, plane, cfg)
        stream = substream(cfg.seed, NS_REFINE)
        kinds = kinds_for_class(spec.class_name)
        kind = kinds[int(stream.integers(len(kinds)))]
        assert kind is MpfKind.CABINET_RIGHT_FRONT  # this seed draws a corner kind
        idx = stream.choice(len(cropped), size=kind.sample_size, replace=False)
        p1, p2, p3 = cropped.points[idx]
        expected = mpf_cabinet(p1, p2, p3, plane, spec, kind)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_same_seed_same_box(self):
        rng = np.random.default_rng(12)
        truth = OrientedBox3((2.0, 0.0, 0.5), (1.0, 0.6, 1.0), 0.2)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=200, seed=8)
        a = refine_label(cloud, truth, spec, cfg)
        b = refine_label(cloud, truth, spec, cfg)
        np.testing.assert_array_equal(a.center, b.center)
        assert a.yaw == b.yaw

    def test_label_far_from_points_is_empty_neighborhood(self):
        rng = np.random.default_rng(14)
        truth = OrientedBox3((2.0, 0.0, 0.5), (1.0, 0.6, 1.0), 0.2)
        cloud = shell_scene(rng, truth)
        lost = OrientedBox3((20.0, 20.0, 0.5), truth.dims, 0.0)
        with pytest.raises(EmptyNeighborhood):
            refine_label(cloud, lost, ObjectSpec("cabinet", 1, 0.6, 1), RefineConfig())

    def test_simulated_cabinet_recovers_truth(self):
        from ipslabel.eval import iou_3d

        sample = cabinet_sample()
        entry = next(e for e in sample.truth_objects if e["class"] == "cabinet")
        truth = OrientedBox3.from_dict(entry["box3d_lidar"])
        nudged = OrientedBox3(truth.center + (0.08, -0.06, 0), truth.dims, truth.yaw - 0.07)
        dims = entry["dims_spec"]
        spec = ObjectSpec("cabinet", dims[0], dims[1], dims[2])
        refined = refine_label(
            sample.cloud, nudged, spec, RefineConfig(iterations=1500, seed=2)
        )
        assert iou_3d(refined, truth) > iou_3d(nudged, truth)
        assert iou_3d(refined, truth) > 0.75
