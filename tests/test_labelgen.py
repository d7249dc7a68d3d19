"""Oriented boxes, beacon-derived labels, and their projections."""

import math

import numpy as np
import pytest

from ipslabel.config import CameraIntrinsics
from ipslabel.config import ObjectSpec
from ipslabel.errors import AllVerticesBehindCamera, UsageError
from ipslabel.fileio import to_dict
from ipslabel.geom import BeaconPair, RigidTransform
from ipslabel.labelgen import (
    Box2,
    OrientedBox3,
    box_from_vertices,
    box_to_camera,
    box_to_lidar,
    label_entry,
    label_objects,
    labels_to_dict,
    normalize_yaw,
    object_box_ips,
    project_box,
    ray_entries,
)

from .oracles import project_oracle, ray_box_hit_oracle, yaw_rotation

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=320.0, width=640, height=640)


def sorted_rows(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return a[np.lexsort((a[:, 2], a[:, 1], a[:, 0]))]


def identity_between(src: str, dst: str) -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3), src=src, dst=dst)


# ---------------------------------------------------------------------------
# yaw and box primitives


class TestNormalizeYaw:
    def test_wraps_into_half_open_interval(self):
        assert normalize_yaw(0.0) == 0.0
        assert normalize_yaw(math.pi) == pytest.approx(math.pi)
        assert normalize_yaw(-math.pi) == pytest.approx(math.pi)
        assert normalize_yaw(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert normalize_yaw(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert normalize_yaw(-7 * math.pi) == pytest.approx(math.pi)

    def test_ulp_neighbours_of_pi(self):
        below_pi, above_pi = math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0)
        above_minus_pi, below_minus_pi = -below_pi, -above_pi
        # inside (-pi, pi]: unchanged, bit for bit
        assert normalize_yaw(below_pi) == below_pi
        assert normalize_yaw(above_minus_pi) == above_minus_pi
        # just outside: wrapped to the neighbour one ulp inside the other end
        assert normalize_yaw(above_pi) == above_minus_pi
        assert normalize_yaw(below_minus_pi) == below_pi

    def test_range_over_sweep(self):
        for y in np.linspace(-20, 20, 401):
            wrapped = normalize_yaw(float(y))
            assert -math.pi < wrapped <= math.pi
            assert math.cos(wrapped) == pytest.approx(math.cos(y), abs=1e-9)
            assert math.sin(wrapped) == pytest.approx(math.sin(y), abs=1e-9)


class TestOrientedBox3:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="dims"):
            OrientedBox3((0, 0, 0), (1, 0, 1), 0.0)

    def test_yaw_normalized_at_construction(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1), 3 * math.pi)
        assert box.yaw == pytest.approx(math.pi)

    def test_vertex_order_axis_aligned(self):
        box = OrientedBox3((0, 0, 0), (2, 1, 4), 0.0)
        v = box.vertices()
        np.testing.assert_allclose(v[0], (+1, +0.5, -2), atol=1e-12)  # front-left bottom
        np.testing.assert_allclose(v[1], (-1, +0.5, -2), atol=1e-12)  # rear-left bottom
        np.testing.assert_allclose(v[2], (-1, -0.5, -2), atol=1e-12)  # rear-right bottom
        np.testing.assert_allclose(v[3], (+1, -0.5, -2), atol=1e-12)  # front-right bottom
        np.testing.assert_allclose(v[4:, :2], v[:4, :2], atol=1e-12)  # top above bottom
        np.testing.assert_allclose(v[4:, 2], 2.0, atol=1e-12)

    def test_vertices_match_rotation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            center = rng.uniform(-5, 5, 3)
            dims = rng.uniform(0.2, 3.0, 3)
            yaw = rng.uniform(-math.pi, math.pi)
            box = OrientedBox3(center, dims, yaw)
            signs = np.array(
                [[1, 1, -1], [-1, 1, -1], [-1, -1, -1], [1, -1, -1],
                 [1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]],
                dtype=float,
            )
            expected = (signs * dims / 2.0) @ yaw_rotation(yaw).T + center
            np.testing.assert_allclose(box.vertices(), expected, atol=1e-12)

    def test_ray_entry_matches_the_slab_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            box = OrientedBox3(
                rng.uniform(1, 4, 3) * rng.choice([-1, 1], 3), rng.uniform(0.3, 2.0, 3),
                rng.uniform(-math.pi, math.pi),
            )
            # rays towards points around the box: some hit it, some miss
            dirs = box.center + rng.uniform(-1.5, 1.5, (50, 3))
            got = box.ray_entry(dirs)
            for d, t in zip(dirs, got):
                hit = ray_box_hit_oracle(np.zeros(3), d, box.center, box.dims, box.yaw)
                if hit is None:
                    assert t == math.inf
                else:
                    assert t == pytest.approx(hit, abs=1e-12)
            assert np.isfinite(got).any() and np.isinf(got).any()

    def test_volume_and_dict_round_trip(self):
        box = OrientedBox3((1, 2, 3), (2, 3, 4), -1.1, frame="ips")
        assert box.volume == pytest.approx(24.0)
        back = OrientedBox3.from_dict(to_dict(box), frame="ips")
        np.testing.assert_array_equal(back.center, box.center)
        np.testing.assert_array_equal(back.dims, box.dims)
        assert back.yaw == box.yaw and back.frame == "ips"


class TestRayEntries:
    """Each row of ray_entries is its box's ray_entry, bit for bit, and
    the slab oracle's entry distance."""

    DIMS = np.array([0.9, 0.5, 1.3])

    @staticmethod
    def oracle_entry(box, d):
        # ray_entry gives inf for a ray that starts inside the box; the
        # oracle gives its exit distance
        if np.all(np.abs(-box.center @ yaw_rotation(box.yaw)) < box.dims / 2.0):
            return math.inf
        hit = ray_box_hit_oracle(np.zeros(3), d, box.center, box.dims, box.yaw)
        return math.inf if hit is None else hit

    def check(self, centers, yaws, dirs):
        got = ray_entries(centers, yaws, self.DIMS, dirs)
        assert got.shape == (len(centers), len(dirs))
        for row, center, yaw in zip(got, centers, yaws):
            box = OrientedBox3(center, self.DIMS, yaw)
            assert np.array_equal(row, box.ray_entry(dirs))
            for d, t in zip(dirs, row):
                expected = self.oracle_entry(box, d)
                assert t == (math.inf if expected == math.inf else pytest.approx(expected, abs=1e-12))
        return got

    def test_boxes_around_the_sensor_hit_and_miss(self):
        rng = np.random.default_rng(2)
        centers = rng.uniform(1, 4, (12, 3)) * rng.choice([-1, 1], (12, 3))
        yaws = rng.uniform(-math.pi, math.pi, 12)
        dirs = rng.uniform(-5, 5, (200, 3))
        got = self.check(centers, yaws, dirs)
        assert np.isfinite(got).any() and np.isinf(got).any()

    def test_rays_parallel_to_a_slab(self):
        # horizontal rays are parallel to every yaw box's z slab, and rays
        # with no x component to the x slab of a box at yaw 0; the sensor is
        # inside the z slab of the first two boxes and outside that of the
        # last one, which no horizontal ray can reach
        angles = np.linspace(-0.4, 0.4, 41)
        dirs = np.column_stack([3 * np.cos(angles), 3 * np.sin(angles), np.zeros(41)])
        dirs = np.vstack([dirs, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.1], [0.0, -1.0, 0.0]]])
        centers = np.array([[3.0, 0.2, 0.3], [0.2, 2.0, -0.4], [3.0, 0.0, 2.0]])
        yaws = [0.35, 0.0, -0.2]
        got = self.check(centers, yaws, dirs)
        assert np.isfinite(got[0, :41]).any() and np.isinf(got[0, :41]).any()
        assert np.isfinite(got[1, 41:43]).all() and got[1, 43] == math.inf
        assert np.isinf(got[2]).all()

    def test_rays_that_start_inside_the_box(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.1, -0.1, 0.2], [0.0, 0.0, 0.0]])
        got = self.check(centers, [0.7, -2.9], rng.uniform(-3, 3, (50, 3)))
        assert np.isinf(got).all()

    def test_no_boxes_and_no_rays(self):
        dirs = np.ones((4, 3))
        assert ray_entries(np.zeros((0, 3)), [], self.DIMS, dirs).shape == (0, 4)
        assert ray_entries([[2.0, 0.0, 0.0]], [0.3], self.DIMS, np.zeros((0, 3))).shape == (1, 0)
        assert OrientedBox3((2, 0, 0), self.DIMS, 0.3).ray_entry(np.zeros((0, 3))).shape == (0,)


class TestBoxFromVertices:
    def test_round_trips_random_boxes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            box = OrientedBox3(
                rng.uniform(-5, 5, 3), rng.uniform(0.2, 3.0, 3), rng.uniform(-math.pi, math.pi)
            )
            back = box_from_vertices(box.vertices(), frame="lidar")
            np.testing.assert_allclose(back.center, box.center, atol=1e-12)
            np.testing.assert_allclose(back.dims, box.dims, atol=1e-12)
            assert normalize_yaw(back.yaw - box.yaw) == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_vertices_still_fit(self):
        """A reflection flips handedness but the refit recovers the cuboid."""
        box = OrientedBox3((1, 2, 0.5), (2, 1, 1), 0.6)
        mirrored = box.vertices() * np.array([1.0, -1.0, 1.0])
        back = box_from_vertices(mirrored, frame="lidar")
        np.testing.assert_allclose(back.dims, box.dims, atol=1e-12)
        np.testing.assert_allclose(back.center, box.center * (1, -1, 1), atol=1e-12)
        np.testing.assert_allclose(
            sorted_rows(back.vertices()), sorted_rows(mirrored), atol=1e-9
        )

    def test_vertical_length_axis_rejected(self):
        box = OrientedBox3((0, 0, 0), (2, 1, 1), 0.0)
        tipped = box.vertices()[:, [2, 1, 0]]  # swap x and z: length now vertical
        with pytest.raises(ValueError, match="vertical"):
            box_from_vertices(tipped, frame="lidar")


class TestBox2:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            Box2(10, 0, 5, 20)
        with pytest.raises(ValueError):
            Box2(0, 30, 5, 20)

    def test_area(self):
        assert Box2(10, 20, 30, 50).area == pytest.approx(600.0)


# ---------------------------------------------------------------------------
# object_box_ips


class TestObjectBoxIps:
    def test_axis_aligned_pair(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        box = object_box_ips(BeaconPair((0.5, 0, 1), (-0.5, 0, 1)), spec)
        np.testing.assert_allclose(box.center, (0, 0, 0.5), atol=1e-12)
        assert box.yaw == pytest.approx(0.0)
        assert box.frame == "ips"
        np.testing.assert_allclose(box.dims, (1, 1, 1), atol=0)

    def test_rotated_pair(self):
        spec = ObjectSpec("cabinet", 1.0, 1.0, 1.0)
        box = object_box_ips(BeaconPair((0, 0.5, 1), (0, -0.5, 1)), spec)
        assert box.yaw == pytest.approx(math.pi / 2)
        np.testing.assert_allclose(box.center, (0, 0, 0.5), atol=1e-12)

    def test_matches_simulator_truth(self):
        """Placement-derived truth vs the beacon route through
        midpoint/heading arithmetic; both live in the simulator but are
        computed independently."""
        from ipslabel.eval import iou_3d
        from ipslabel.config import SceneConfig
        from ipslabel.sim import object_beacons, true_object_box_ips

        scene = SceneConfig(floor_z=0.3)
        for placement in scene.objects:
            derived = object_box_ips(object_beacons(placement, scene.floor_z), placement.spec)
            truth = true_object_box_ips(placement, scene.floor_z)
            np.testing.assert_allclose(derived.center, truth.center, atol=1e-12)
            assert normalize_yaw(derived.yaw - truth.yaw) == pytest.approx(0.0, abs=1e-12)
            assert iou_3d(derived, truth) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# box_to_camera


class TestBoxToCamera:
    def test_identity_chain_keeps_vertices(self):
        box = OrientedBox3((1, 2, 0.5), (2, 1, 1), 0.3, frame="ips")
        verts = box_to_camera(box, identity_between("robot", "cam"), identity_between("ips", "robot"))
        np.testing.assert_allclose(verts, box.vertices(), atol=1e-12)

    def test_pure_translation_shifts_all_vertices(self):
        box = OrientedBox3((1, 2, 0.5), (2, 1, 1), 0.3, frame="ips")
        t_cr = RigidTransform(np.eye(3), (0.5, 0, 0.1), src="robot", dst="cam")
        t_ri = RigidTransform(np.eye(3), (-1, 2, 0), src="ips", dst="robot")
        verts = box_to_camera(box, t_cr, t_ri)
        np.testing.assert_allclose(verts, box.vertices() + (-0.5, 2.0, 0.1), atol=1e-12)

    def test_random_chain_matches_per_vertex_oracle(self):
        from .oracles import homogeneous_matrix, random_rotation, transform_point_oracle

        rng = np.random.default_rng(2)
        box = OrientedBox3(rng.uniform(-3, 3, 3), rng.uniform(0.5, 2, 3), 0.9, frame="ips")
        t_cr = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3), src="robot", dst="cam")
        t_ri = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3), src="ips", dst="robot")
        verts = box_to_camera(box, t_cr, t_ri)
        m = homogeneous_matrix(t_cr.rotation, t_cr.translation) @ homogeneous_matrix(
            t_ri.rotation, t_ri.translation
        )
        for i, corner in enumerate(box.vertices()):
            np.testing.assert_allclose(verts[i], transform_point_oracle(m, corner), atol=1e-12)

    def test_frame_mismatch_rejected(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0, frame="lidar")
        with pytest.raises(UsageError, match="box is in frame 'lidar', transform consumes 'ips'"):
            box_to_camera(box, identity_between("robot", "cam"), identity_between("ips", "robot"))


# ---------------------------------------------------------------------------
# project_box


class TestProjectBox:
    def test_unit_cube_on_axis(self):
        cube = OrientedBox3((0, 0, 5), (1, 1, 1), 0.0, frame="cam")
        box2, truncated, behind = project_box(cube.vertices(), INTR)
        half = 500.0 * 0.5 / 4.5  # nearest face dominates the extrema
        assert box2.u0 == pytest.approx(320.0 - half, abs=1e-9)
        assert box2.v0 == pytest.approx(320.0 - half, abs=1e-9)
        assert box2.u1 == pytest.approx(320.0 + half, abs=1e-9)
        assert box2.v1 == pytest.approx(320.0 + half, abs=1e-9)
        assert truncated is False
        assert behind == 0

    def test_matches_per_vertex_projection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            center = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(4, 8)])
            cube = OrientedBox3(center, rng.uniform(0.3, 1.5, 3), rng.uniform(-3, 3), frame="cam")
            us, vs = [], []
            for corner in cube.vertices():
                u, v = project_oracle(INTR.fx, INTR.fy, INTR.cx, INTR.cy, np.eye(4), corner)
                us.append(u)
                vs.append(v)
            expect = (
                max(min(us), 0.0), max(min(vs), 0.0),
                min(max(us), 640.0), min(max(vs), 640.0),
            )
            box2, _, _ = project_box(cube.vertices(), INTR)
            assert (box2.u0, box2.v0, box2.u1, box2.v1) == pytest.approx(expect, abs=1e-9)

    def test_all_vertices_behind_camera(self):
        cube = OrientedBox3((0, 0, -5), (1, 1, 1), 0.0, frame="cam")
        with pytest.raises(AllVerticesBehindCamera):
            project_box(cube.vertices(), INTR)

    def test_partially_behind_counts_vertices(self):
        cube = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0, frame="cam")
        _, _, behind = project_box(cube.vertices(), INTR)
        assert behind == 4

    def test_truncation_flag_on_clamping(self):
        cube = OrientedBox3((3.0, 0, 5), (1, 1, 1), 0.0, frame="cam")  # pushed right
        box2, truncated, _ = project_box(cube.vertices(), INTR)
        assert truncated is True
        assert box2.u1 == 640.0

    def test_invariant_under_vertex_permutation(self):
        rng = np.random.default_rng(4)
        cube = OrientedBox3((0.2, -0.3, 6), (1, 2, 0.8), 1.1, frame="cam")
        reference, _, _ = project_box(cube.vertices(), INTR)
        for _ in range(5):
            shuffled = cube.vertices()[rng.permutation(8)]
            box2, _, _ = project_box(shuffled, INTR)
            assert (box2.u0, box2.v0, box2.u1, box2.v1) == (
                reference.u0, reference.v0, reference.u1, reference.v1,
            )


# ---------------------------------------------------------------------------
# box_to_lidar


class TestBoxToLidar:
    def test_identity_extrinsic_keeps_box(self):
        box = OrientedBox3((1, -1, 2), (2, 1, 0.5), 0.8, frame="cam")
        out = box_to_lidar(box.vertices(), identity_between("cam", "lidar"))
        np.testing.assert_allclose(out.center, box.center, atol=1e-12)
        np.testing.assert_allclose(out.dims, box.dims, atol=1e-12)
        assert out.yaw == pytest.approx(box.yaw, abs=1e-12)
        assert out.frame == "lidar"

    def test_pure_z_rotation_adds_yaw(self):
        box = OrientedBox3((1, 0, 0), (2, 1, 1), 0.4, frame="cam")
        theta = 0.9
        t = RigidTransform(yaw_rotation(theta), np.zeros(3), src="cam", dst="lidar")
        out = box_to_lidar(box.vertices(), t)
        assert normalize_yaw(out.yaw - (box.yaw + theta)) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.dims, box.dims, atol=1e-12)
        np.testing.assert_allclose(out.center, yaw_rotation(theta) @ box.center, atol=1e-12)

    def test_level_chain_preserves_vertex_set(self):
        """Any z-preserving orthogonal map (the noise-free simulator chain
        is one, reflection included) keeps the refit exact."""
        from ipslabel.config import SceneConfig
        from ipslabel.sim import robot_pose_for_sample, true_transforms

        scene = SceneConfig()
        pose = robot_pose_for_sample(scene, seed=5, index=0)
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        box = OrientedBox3((4.0, 0.9, 0.65), (0.9, 0.5, 1.3), 0.4, frame="ips")
        moved = chain.apply(box.vertices())
        out = box_to_lidar(box.vertices(), RigidTransform(chain.rotation, chain.translation, src="cam", dst="lidar"))
        np.testing.assert_allclose(sorted_rows(out.vertices()), sorted_rows(moved), atol=1e-9)
        np.testing.assert_allclose(out.dims, box.dims, atol=1e-9)


# ---------------------------------------------------------------------------
# label schema


class TestLabelSchema:
    def test_entry_in_view(self):
        box3 = OrientedBox3((1, 2, 0.5), (2, 1, 1), 0.0)
        # straddles the camera plane and runs off the right edge of the image
        cube = OrientedBox3((0.5, 0, 0), (1, 1, 1), 0.0, frame="cam")
        entry = label_entry("obj0", "cabinet", box3, cube.vertices(), INTR)
        assert set(entry) == {
            "id", "class", "box3d_lidar", "box2d", "truncated", "behind_camera_vertices", "refined",
        }
        assert entry["id"] == "obj0"
        assert entry["class"] == "cabinet"
        assert entry["box3d_lidar"] == to_dict(box3)
        assert entry["box2d"] == to_dict(project_box(cube.vertices(), INTR)[0])
        assert entry["box2d"]["u1"] == 640.0
        assert entry["truncated"] is True
        assert entry["behind_camera_vertices"] == 4
        assert entry["refined"] is False

    def test_entry_behind_camera(self):
        box3 = OrientedBox3((1, 2, 0.5), (2, 1, 1), 0.0)
        cube = OrientedBox3((0, 0, -5), (1, 1, 1), 0.0, frame="cam")
        assert label_entry("obj1", "table", box3, cube.vertices(), INTR) == {
            "id": "obj1",
            "class": "table",
            "box3d_lidar": to_dict(box3),
            "box2d": None,
            "truncated": False,
            "behind_camera_vertices": None,
            "refined": False,
            "box2d_reason": "behind_camera",
        }

    def test_entry_reads_back_as_its_boxes(self):
        box3 = OrientedBox3((1, 2, 0.5), (2, 1, 1), 0.3)
        cube = OrientedBox3((0.5, 0, 4), (1, 1, 1), 0.0, frame="cam")
        entry = label_entry("obj0", "cabinet", box3, cube.vertices(), INTR)
        ((back_entry, back3, back2),) = label_objects({"objects": [entry]})
        assert back_entry is entry
        assert to_dict(back3) == to_dict(box3) and back3.frame == "lidar"
        assert back2 == project_box(cube.vertices(), INTR)[0]

    @pytest.mark.parametrize(
        "key, value, names",
        [
            ("box3d_lidar", {"center": ["1", "2", True], "dims": [1.0, 1.0, 1.0], "yaw": 0.0},
             "objects[0].box3d_lidar.center[0]: expected a finite number, got '1'"),
            ("box3d_lidar", {"center": [1.0, 2.0, 0.5], "dims": [1.0, 1.0, 1.0], "yaw": "0.5"},
             "objects[0].box3d_lidar.yaw: expected a finite number, got '0.5'"),
            ("box3d_lidar", {"center": [1.0, 2.0, 0.5], "dims": [1.0, 1.0, 1.0], "yaw": 0.0, "roll": 0},
             "unknown key(s) ['roll'] in section 'objects[0].box3d_lidar'"),
            ("box2d", {"u0": 0.0, "v0": False, "u1": 1.0, "v1": 1.0},
             "objects[0].box2d.v0: expected a finite number, got False"),
        ],
        ids=["string-center", "string-yaw", "unknown-key", "bool-v0"],
    )
    def test_mistyped_box_is_rejected_naming_its_key(self, key, value, names):
        entry = {"id": "obj0", "class": "cabinet", "box3d_lidar": None, "box2d": None, key: value}
        with pytest.raises(UsageError) as info:
            label_objects({"objects": [entry]})
        assert names in str(info.value)

    def test_labels_document_shape(self):
        doc = labels_to_dict("sample_000", [{"class": "cabinet"}])
        assert doc == {"sample": "sample_000", "objects": [{"class": "cabinet"}]}
