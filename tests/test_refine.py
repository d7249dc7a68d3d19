"""Ground plane fitting, cropping, model proposals, and RANSAC refinement."""

import functools
import math

import numpy as np
import pytest

from ipslabel.cloud import PointCloud
from ipslabel.errors import (
    AllProposalsDegenerate,
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
    _away_sides,
    _draw,
    _first_clear,
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
from ipslabel.rng import NS_REFINE_DRAWS, substream

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
    # 20000 floor points are more than the subset the hypotheses are scored on
    @pytest.mark.parametrize("n_floor", [400, 20000])
    def test_flat_floor_with_outliers(self, n_floor):
        rng = np.random.default_rng(0)
        floor = np.column_stack(
            [rng.uniform(-5, 5, n_floor), rng.uniform(-5, 5, n_floor), np.zeros(n_floor)]
        )
        outliers = rng.uniform(0.5, 3.0, (n_floor // 20, 3))
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
        a = fit_ground_plane(cloud, RefineConfig(), seed=4)
        b = fit_ground_plane(cloud, RefineConfig(), seed=4)
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

    def test_wall_without_a_floor_has_no_plane(self):
        rng = np.random.default_rng(5)
        wall = np.column_stack(
            [np.zeros(600), rng.uniform(-4, 4, 600), rng.uniform(0, 2.5, 600)]
        )
        with pytest.raises(NoPlaneFound, match="faces up"):
            fit_ground_plane(PointCloud(wall, frame="lidar"), RefineConfig())

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
        cfg = RefineConfig(iterations=800)
        refined = refine_label(cloud, unrefined, spec, cfg, seed=3)
        assert iou_3d(refined, truth) > iou_3d(unrefined, truth)
        assert iou_3d(refined, truth) > 0.8

    def test_single_iteration_equals_direct_proposal(self):
        rng = np.random.default_rng(11)
        truth = OrientedBox3((1.5, -0.5, 0.5), (1.0, 0.6, 1.0), -0.4)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=1)
        got = refine_label(cloud, truth, spec, cfg, seed=23)

        plane = fit_ground_plane(cloud, cfg, seed=23)
        cropped = crop_and_strip(cloud, truth, plane, cfg)
        stream = substream(23, NS_REFINE_DRAWS)
        kinds = kinds_for_class(spec.class_name)
        kind = kinds[int(stream.integers(len(kinds), size=1)[0])]
        assert kind is MpfKind.CABINET_RIGHT_FRONT  # this seed draws a corner kind
        values = [int(stream.integers(len(cropped) - c, size=1)[0]) for c in range(3)]
        p1, p2, p3 = cropped.points[reference_sample(values)]
        expected = mpf_cabinet(p1, p2, p3, plane, spec, kind)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_a_given_plane_gives_the_box_of_the_own_fit(self):
        rng = np.random.default_rng(12)
        truth = OrientedBox3((2.0, 0.0, 0.5), (1.0, 0.6, 1.0), 0.2)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=300)
        own = refine_label(cloud, truth, spec, cfg, seed=5)
        given = refine_label(
            cloud, truth, spec, cfg, seed=5, plane=fit_ground_plane(cloud, cfg, seed=5)
        )
        np.testing.assert_array_equal(given.center, own.center)
        assert given.yaw == own.yaw

    def test_same_seed_same_box(self):
        rng = np.random.default_rng(12)
        truth = OrientedBox3((2.0, 0.0, 0.5), (1.0, 0.6, 1.0), 0.2)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 1.0, 0.6, 1.0)
        cfg = RefineConfig(iterations=200)
        a = refine_label(cloud, truth, spec, cfg, seed=8)
        b = refine_label(cloud, truth, spec, cfg, seed=8)
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
        refined = refine_label(sample.cloud, nudged, spec, RefineConfig(iterations=1500), seed=2)
        assert iou_3d(refined, truth) > iou_3d(nudged, truth)
        assert iou_3d(refined, truth) > 0.75


# ---------------------------------------------------------------------------
# batched refine_label == one proposal and one fitness call per iteration


def reference_side(p1, p2, plane):
    """The viewpoint rule for a two-point face: the side away from the sensor
    at the origin, or 0 when the points coincide or their face passes
    through the sensor."""
    q1, q2 = plane.project(np.stack([p1, p2]))
    gap = np.linalg.norm(q1 - q2)
    if gap < 1e-6:
        return 0
    inward = np.cross(plane.normal, (q1 - q2) / gap)
    depth = float(np.dot(inward, 0.5 * (q1 + q2) - plane.project(np.zeros((1, 3)))[0]))
    if abs(depth) < 1e-9:
        return 0
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


def reference_refine(pcd, unrefined, spec, cfg, seed):
    """Scalar best-of-n search; returns the box and the number of side coin flips.

    It takes the draws ``_draw`` makes (the kinds, then one column of sample
    values per point, then the coins, each as one array) and builds and
    scores one proposal per iteration. For a cabinet it then tests the
    proposals from the best score down to half of it, earliest first, on
    every ray of the cloud."""
    kinds = kinds_for_class(spec.class_name)
    plane = fit_ground_plane(pcd, cfg, seed)
    min_height = cfg.table_min_height if MpfKind.TABLE_STEM in kinds else None
    cropped = crop_and_strip(pcd, unrefined, plane, cfg, min_height=min_height)
    pts = cropped.points
    rng = substream(seed, NS_REFINE_DRAWS)
    drawn_kinds = rng.integers(len(kinds), size=cfg.iterations)
    columns = [
        rng.integers(len(pts) - c, size=cfg.iterations)
        for c in range(max(k.sample_size for k in kinds))
    ]
    coins = rng.integers(2, size=cfg.iterations)
    scored, flips = [], 0
    for i in range(cfg.iterations):
        kind = kinds[drawn_kinds[i]]
        picks = reference_sample([int(column[i]) for column in columns])
        sample = pts[picks[: kind.sample_size]]
        side = 0
        if kind is MpfKind.CABINET_TWO_POINT_FACE:
            side = reference_side(sample[0], sample[1], plane)
            if side == 0:
                flips += 1
                side = 1 if coins[i] == 0 else -1
        try:
            box = propose(kind, sample, plane, spec, side)
        except DegenerateSample:
            continue
        scored.append((-fitness(box, cropped, cfg.shell_delta), i, box))
    if not scored:
        raise AllProposalsDegenerate("every reference proposal was degenerate")
    ranked = sorted(scored, key=lambda t: t[:2])
    best = ranked[0][2]
    if MpfKind.TABLE_STEM in kinds:
        return best, flips
    # the best box with at least half the best score that at most two rays
    # from the sensor to the cloud's points cross once shrunk by
    # shell_delta, or the best box
    for negated, _, box in ranked:
        if 2 * negated > ranked[0][0]:
            break
        shrunk = OrientedBox3(box.center, box.dims - 2 * cfg.shell_delta, box.yaw)
        if (shrunk.ray_entry(pcd.points) < 1).sum() <= 2:
            return box, flips
    return best, flips


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
        expected, _ = reference_refine(sample.cloud, nudged, spec, cfg, seed)
        got = refine_label(sample.cloud, nudged, spec, cfg, seed)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_ambiguous_sides_flip_the_same_coins(self):
        # a noise-free scan puts the points of one LiDAR column on a vertical
        # face at the same floor position, so two-point faces drawn from one
        # column have no side and a coin is flipped
        sample = cabinet_sample()
        entry = next(e for e in sample.truth_objects if e["class"] == "cabinet")
        truth = OrientedBox3.from_dict(entry["box3d_lidar"])
        spec = ObjectSpec("cabinet", *entry["dims_spec"])
        cfg = RefineConfig(iterations=1500)
        expected, flips = reference_refine(sample.cloud, truth, spec, cfg, 4)
        assert flips >= 2
        got = refine_label(sample.cloud, truth, spec, cfg, 4)
        np.testing.assert_array_equal(got.center, expected.center)
        assert got.yaw == expected.yaw

    def test_a_box_in_front_of_the_scanned_face(self):
        cloud, _, unrefined, spec = seed7_cabinet()
        cfg = RefineConfig(iterations=1000)
        expected, _ = reference_refine(cloud, unrefined, spec, cfg, 0)
        got = refine_label(cloud, unrefined, spec, cfg, 0)
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
        expected, _ = reference_refine(cloud, unrefined, spec, cfg, seed)
        got = refine_label(cloud, unrefined, spec, cfg, seed)
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
        cloud = PointCloud(np.vstack([floor, pole]))
        unrefined = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.0)
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        cfg = RefineConfig(iterations=200)
        with pytest.raises(AllProposalsDegenerate):
            reference_refine(cloud, unrefined, spec, cfg, 1)
        with pytest.raises(AllProposalsDegenerate):
            refine_label(cloud, unrefined, spec, cfg, 1)

    @pytest.mark.parametrize("count, points", [(200, 700), (3, 20000)])
    def test_shell_scores_match_fitness_across_chunks(self, count, points):
        # 200 boxes x 700 points make nine chunks of at most 2**14 tests, the
        # last one partial; a cloud of more than 2**14 points makes one chunk
        # per box
        rng = np.random.default_rng(13)
        boxes = [
            OrientedBox3(rng.uniform(-1, 1, 3), (1.1, 0.6, 1.4), rng.uniform(-math.pi, math.pi))
            for _ in range(count)
        ]
        pts = rng.uniform(-2, 2, (points, 3))
        scores = shell_scores(
            [b.center for b in boxes], [b.yaw for b in boxes], (1.1, 0.6, 1.4), pts, 0.05
        )
        assert scores.tolist() == [fitness(b, pts, 0.05) for b in boxes]


# ---------------------------------------------------------------------------
# free space: no sensor ray crosses a solid box


def seed7_cabinet():
    """The cabinet of sample 0 of the default scene at seed 7, its truth box,
    and a label 5 cm off sideways, as a noisy calibration puts it."""
    from ipslabel.sim import default_scene, make_sample

    sample = make_sample(default_scene(), seed=7, index=0)
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
        refined = refine_label(cloud, unrefined, spec, RefineConfig(iterations=1000))
        assert iou_3d(refined, truth) > 0.8


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

    def test_coins_decide_only_the_ambiguous_two_point_faces(self):
        # coincident points leave the side of a face through them ambiguous
        points = np.random.default_rng(3).uniform(-2, 2, (60, 3))
        points[:30] = points[0]
        plane = GroundPlane((0.02, -0.01, 1.0), 0.1)
        projected = plane.project(points)
        kinds = CLASS_KINDS["cabinet"]
        kind, idx, side = _draw(kinds, projected, plane, 1500, substream(3, NS_REFINE_DRAWS))
        two = kind == kinds.index(MpfKind.CABINET_TWO_POINT_FACE)
        assert not side[~two].any()
        away = _away_sides(projected[idx[two, 0]], projected[idx[two, 1]], plane)
        assert (away == 0).sum() >= 2
        np.testing.assert_array_equal(side[two][away != 0], away[away != 0])
        assert set(side[two][away == 0].tolist()) == {-1, 1}
