"""Synthetic scene: ray casting, beacon noise, and dataset rendering."""

import functools
import json
import math
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ipslabel import sim
from ipslabel.calib import correspondences_csv, parse_correspondences_csv
from ipslabel.cloud import read_ply, write_ply
from ipslabel.config import LidarConfig, ObjectPlacement, ObjectSpec, SceneConfig
from ipslabel.fileio import from_dict, to_dict
from ipslabel.geom import beacons_csv, inverse, parse_beacons_csv
from ipslabel.labelgen import OrientedBox3, box_to_lidar
from ipslabel.sim import (
    TABLE_SLAB_THICKNESS,
    TABLE_STEM_WIDTH,
    _direction_blocks,
    _scan_factors,
    emit_beacons,
    generate_dataset,
    make_calibration_set,
    make_sample,
    object_beacons,
    raycast_lidar,
    robot_beacons,
    robot_pose_for_sample,
    true_transforms,
)

from .conftest import noise_free_scene, traced_peak, tree_digest
from .oracles import ray_box_hit_oracle, yaw_rotation


@functools.lru_cache(maxsize=1)
def default_pose_and_cloud():
    scene = SceneConfig()
    pose = robot_pose_for_sample(scene, seed=5, index=0)
    return scene, pose, raycast_lidar(scene, pose)


def scene_solids_ips(scene: SceneConfig):
    """The solids the LiDAR sees, rebuilt from the scene description."""
    solids = []
    z0 = scene.floor_z
    for o in scene.objects:
        spec = o.spec
        if spec.class_name == "table":
            solids.append(
                OrientedBox3(
                    (o.x, o.y, z0 + spec.height - TABLE_SLAB_THICKNESS / 2.0),
                    (spec.length, spec.width, TABLE_SLAB_THICKNESS),
                    o.yaw,
                    frame="ips",
                )
            )
            stem_h = spec.height - TABLE_SLAB_THICKNESS
            solids.append(
                OrientedBox3(
                    (o.x, o.y, z0 + stem_h / 2.0),
                    (TABLE_STEM_WIDTH, TABLE_STEM_WIDTH, stem_h),
                    o.yaw,
                    frame="ips",
                )
            )
        else:
            solids.append(
                OrientedBox3((o.x, o.y, z0 + spec.height / 2.0), spec.dims, o.yaw, frame="ips")
            )
    return solids


# ---------------------------------------------------------------------------
# robot poses


class TestRobotPose:
    def test_deterministic(self):
        scene = SceneConfig()
        assert robot_pose_for_sample(scene, 7, 3) == robot_pose_for_sample(scene, 7, 3)
        assert robot_pose_for_sample(scene, 7, 3) != robot_pose_for_sample(scene, 7, 4)

    def test_on_the_ring_facing_the_centroid(self):
        scene = SceneConfig()
        cx = np.mean([o.x for o in scene.objects])
        cy = np.mean([o.y for o in scene.objects])
        for index in range(10):
            x, y, heading = robot_pose_for_sample(scene, 5, index)
            radius = math.hypot(x - cx, y - cy)
            assert scene.robot_radius_min - 1e-9 <= radius <= scene.robot_radius_max + 1e-9
            to_centroid = math.atan2(cy - y, cx - x)
            delta = (heading - to_centroid + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) <= math.radians(scene.heading_jitter_deg) + 1e-9


# ---------------------------------------------------------------------------
# LiDAR ray casting


class TestRaycast:
    def test_ground_only_points_satisfy_plane_equation(self):
        # the lone object sits just past the LiDAR range, so only the
        # floor returns points
        scene = replace(
            SceneConfig(),
            objects=(ObjectPlacement("obj0", ObjectSpec("cabinet", 0.2, 0.2, 0.5), 0.0, 0.0, 0.0),),
            lidar=LidarConfig(max_range=3.0),
            robot_radius_min=3.4,
            robot_radius_max=3.5,
        )
        pose = robot_pose_for_sample(scene, seed=1, index=0)
        cloud = raycast_lidar(scene, pose)
        assert len(cloud) > 1000
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        z_ips = inverse(chain).apply(cloud)[:, 2]
        assert np.abs(z_ips).max() <= 1e-9

    def test_faces_turned_away_from_the_sensor_have_no_points(self):
        scene = replace(
            SceneConfig(),
            objects=(ObjectPlacement("obj0", ObjectSpec("cabinet", 0.9, 0.5, 1.3), 4.0, 0.9, 0.4),),
        )
        pose = robot_pose_for_sample(scene, seed=2, index=0)
        cloud = raycast_lidar(scene, pose)
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        box = scene_solids_ips(scene)[0]
        pts_ips = inverse(chain).apply(cloud)
        rotation = yaw_rotation(box.yaw)
        local = (pts_ips - box.center) @ rotation
        half = box.dims / 2.0
        on_box = np.all(np.abs(local) <= half + 1e-9, axis=1)
        assert on_box.sum() > 50
        sensor_local = (inverse(chain).apply(np.zeros(3)) - box.center) @ rotation
        for axis in range(3):
            for sign in (-1.0, 1.0):
                on_face = on_box & (np.abs(local[:, axis] - sign * half[axis]) <= 1e-9)
                sensor_outside = sign * sensor_local[axis] > half[axis]
                if not sensor_outside:
                    assert on_face.sum() == 0, f"hidden face {axis}/{sign} has points"

    def test_every_point_is_the_nearest_hit_by_the_slab_oracle(self):
        scene, pose, cloud = default_pose_and_cloud()
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        to_ips = inverse(chain)
        solids = scene_solids_ips(scene)
        origin = to_ips.apply(np.zeros(3))
        rng = np.random.default_rng(0)
        picks = rng.choice(len(cloud), size=1000, replace=False)
        for i in picks:
            p = cloud[i]
            q = to_ips.apply(p)
            dist = np.linalg.norm(q - origin)
            direction = (q - origin) / dist
            hits = []
            for solid in solids:
                t = ray_box_hit_oracle(origin, direction, solid.center, solid.dims, solid.yaw)
                if t is not None:
                    hits.append(t)
            if direction[2] < 0:
                hits.append((scene.floor_z - origin[2]) / direction[2])
            assert hits, "cloud point with no oracle intersection"
            assert dist == pytest.approx(min(hits), abs=1e-9)

    def test_range_limit_respected(self):
        scene, pose, cloud = default_pose_and_cloud()
        assert np.linalg.norm(cloud, axis=1).max() <= scene.lidar.max_range + 1e-9


def full_cast(solids, dirs, ground_z, max_range):
    """The cloud of a cast of every ray against every solid (in the LiDAR
    frame) and the floor, ``ground_z`` below the sensor."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = ground_z / dirs[:, 2]
    best = np.where((dirs[:, 2] < 0) & (t_ground > 1e-9), t_ground, np.inf)
    for solid in solids:
        best = np.minimum(best, solid.ray_entry(dirs))
    valid = best <= max_range
    return dirs[valid] * best[valid, None]


def scan_pattern(cfg):
    """The unit direction of every ray, channel-major, as one (N, 3) table:
    ray (channel i, azimuth j) at row i * n_az + j."""
    elevations = np.radians(np.linspace(cfg.vfov_min_deg, cfg.vfov_max_deg, cfg.channels))
    n_az = int(round(360.0 / cfg.azimuth_step_deg))
    azimuths = np.radians(np.arange(n_az) * cfg.azimuth_step_deg)
    ce, se = np.cos(elevations), np.sin(elevations)
    ca, sa = np.cos(azimuths), np.sin(azimuths)
    return np.column_stack([np.outer(ce, ca).ravel(), np.outer(ce, sa).ravel(), np.repeat(se, n_az)])


def full_cast_of(scene, pose):
    chain = true_transforms(scene, pose)["lidar_from_ips"]
    solids = [box_to_lidar(solid.vertices(), chain) for solid in scene_solids_ips(scene)]
    ground_z = chain.apply(np.array([pose[0], pose[1], scene.floor_z]))[2]
    dirs = scan_pattern(scene.lidar)
    return solids, full_cast(solids, dirs, ground_z, scene.lidar.max_range)


def cabinet_at(x, y, dims, yaw=0.3):
    return ObjectPlacement("obj0", ObjectSpec("cabinet", *dims), x, y, yaw)


class TestRaycastCone:
    """raycast_lidar casts a solid only against the rays of the cone around
    its bounding sphere; its cloud is the cast of every ray."""

    SCENES = {
        "default": {},
        "dense_lidar": {"lidar": LidarConfig(channels=32, azimuth_step_deg=0.1)},
        "table_only": {
            "objects": (ObjectPlacement("obj1", ObjectSpec("table", 1.2, 0.8, 0.75), 3.4, -1.6, -0.3),),
        },
        # a heading drawn over the whole circle: at seed 7 every object lies
        # behind the sensor, at negative LiDAR x
        "objects_behind_the_sensor": {"heading_jitter_deg": 180.0},
        # the sensor stands 1 m from the centre of a 2 m tall cabinet: outside
        # the box, inside its bounding sphere
        "sensor_inside_a_bounding_sphere": {
            "objects": (cabinet_at(0.0, 0.0, (1.0, 1.0, 2.0)),),
            "robot_radius_min": 1.0,
            "robot_radius_max": 1.05,
        },
    }

    @pytest.mark.parametrize("name", sorted(SCENES))
    @pytest.mark.parametrize("index", [0, 1])
    def test_equals_the_cast_of_every_ray(self, name, index):
        scene = replace(SceneConfig(), **self.SCENES[name])
        pose = robot_pose_for_sample(scene, seed=7, index=index)
        solids, expected = full_cast_of(scene, pose)
        got = raycast_lidar(scene, pose)
        assert len(got) > 1000
        assert np.array_equal(got, expected)
        if name == "sensor_inside_a_bounding_sphere":
            assert any(np.linalg.norm(s.center) <= np.linalg.norm(s.dims) / 2 for s in solids)
        if name == "objects_behind_the_sensor":
            assert all(s.center[0] < -1.0 for s in solids)

    def test_a_ray_grazing_a_corner_at_the_tangent_point(self, monkeypatch):
        # a square box turned 45 degrees whose corner (2, 0, 0) is where the
        # ray along +x touches its bounding sphere: the ray's cosine to the
        # centre rounds just below the cone's, and the slab cast hits the corner
        h, hz = 0.25, 0.65
        box = OrientedBox3((2.0, -h * math.sqrt(2.0), -hz), (2 * h, 2 * h, 2 * hz), math.pi / 4)
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, -0.8]])
        dist = np.linalg.norm(box.center)
        cone = math.sqrt(1.0 - (np.linalg.norm(box.dims) / 2.0 / dist) ** 2)
        assert dirs[0] @ (box.center / dist) < cone
        scene = replace(SceneConfig(), objects=(cabinet_at(0.0, 0.0, (0.9, 0.5, 1.3)),))
        monkeypatch.setattr(sim, "box_to_lidar", lambda vertices, chain: box)
        monkeypatch.setattr(sim, "_direction_blocks", lambda cfg: iter([dirs]))
        pose = (3.0, 0.0, 0.0)
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        ground_z = chain.apply(np.array([pose[0], pose[1], scene.floor_z]))[2]
        got = raycast_lidar(scene, pose)
        assert np.array_equal(got, full_cast([box], dirs, ground_z, scene.lidar.max_range))
        assert [2.0, 0.0, 0.0] in got.tolist()

    def test_the_scan_factors_are_built_once_and_read_only(self):
        cfg = LidarConfig(channels=4, azimuth_step_deg=1.0)
        factors = _scan_factors(cfg)
        assert _scan_factors(LidarConfig(channels=4, azimuth_step_deg=1.0)) is factors
        assert [len(f) for f in factors] == [4, 4, 360, 360]
        assert not any(f.flags.writeable for f in factors)

    @pytest.mark.parametrize(
        "channels, step",
        # one block; whole blocks of 9 channels; 7 blocks of 9 and a ragged
        # one of 1; a channel longer than a block; no azimuth at all
        [(16, 0.2), (18, 0.1), (64, 0.1), (2, 0.005), (3, 1000.0)],
    )
    def test_the_blocks_are_the_scan_pattern_in_whole_channels(self, channels, step):
        cfg = LidarConfig(channels=channels, azimuth_step_deg=step)
        blocks = list(_direction_blocks(cfg))
        table = scan_pattern(cfg)
        n_az = len(table) // channels
        assert np.concatenate(blocks).tobytes() == table.tobytes()
        for block in blocks:
            assert block.flags.c_contiguous and block.shape[1] == 3
            assert len(block) % max(1, n_az) == 0
            assert len(block) <= max(sim._CAST_RAYS, n_az)
        np.testing.assert_allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-15)


def test_a_dense_cast_holds_its_hits_and_one_block():
    """raycast_lidar casts a block of rays at a time and keeps only the hits:
    its traced peak is the hits, the read-only copy made of them, and one
    block's working arrays, 2.6-2.7 times the cloud's bytes on this scene.
    Casting every ray at once against a cached table of directions took 3.8
    times, and 6.3 times on the call that built the table."""
    scene = replace(SceneConfig(), lidar=LidarConfig(channels=32, azimuth_step_deg=0.1))
    pose = robot_pose_for_sample(scene, seed=7, index=0)
    raycast_lidar(scene, pose)  # anything cached per config is built
    cloud, peak = traced_peak(raycast_lidar, scene, pose)
    assert len(cloud) > 50_000
    assert peak <= 3.25 * cloud.nbytes


# ---------------------------------------------------------------------------
# floor height


class TestFloorHeight:
    """Heights are measured from the floor, so moving it moves the whole
    scene: every sensor-frame output stays where it was."""

    @pytest.mark.parametrize("floor_z", [0.5, -0.3])
    def test_lidar_frame_sample_does_not_move_with_the_floor(self, floor_z):
        base = make_sample(SceneConfig(), seed=7, index=0)
        moved = make_sample(SceneConfig(floor_z=floor_z), seed=7, index=0)
        assert len(moved.cloud) == len(base.cloud)
        np.testing.assert_allclose(moved.cloud, base.cloud, rtol=0, atol=1e-9)
        for got, want in zip(moved.truth_objects, base.truth_objects):
            for key in ("center", "dims"):
                np.testing.assert_allclose(
                    got["box3d_lidar"][key], want["box3d_lidar"][key], rtol=0, atol=1e-9
                )
            assert got["box3d_lidar"]["yaw"] == pytest.approx(want["box3d_lidar"]["yaw"], abs=1e-9)
            np.testing.assert_allclose(
                [got["box2d"][k] for k in ("u0", "v0", "u1", "v1")],
                [want["box2d"][k] for k in ("u0", "v0", "u1", "v1")],
                rtol=0,
                atol=1e-6,
            )
            # only the IPS-frame truth moves, by the floor's height
            shift = np.subtract(got["box3d_ips"]["center"], want["box3d_ips"]["center"])
            np.testing.assert_allclose(shift, (0.0, 0.0, floor_z), rtol=0, atol=1e-12)

    def test_objects_stand_on_the_raised_floor(self):
        scene = SceneConfig(floor_z=0.5)
        sample = make_sample(scene, seed=7, index=0)
        for entry, placement in zip(sample.truth_objects, scene.objects):
            box = OrientedBox3.from_dict(entry["box3d_ips"])
            assert box.center[2] - box.dims[2] / 2.0 == pytest.approx(scene.floor_z, abs=1e-12)
        heights = {o.object_id: o.spec.height for o in scene.objects}
        heights["robot"] = scene.robot_beacon_height
        for frame, pair in true_beacons(scene, sample.robot_pose).items():
            want = scene.floor_z + heights[frame]
            assert (pair.front[2], pair.rear[2]) == pytest.approx((want, want), abs=1e-12)

    def test_calibration_pixels_do_not_move_with_the_floor(self):
        base = make_calibration_set(SceneConfig(pixel_noise_sigma=1.0), seed=7)
        scene = SceneConfig(pixel_noise_sigma=1.0, floor_z=0.5)
        moved = make_calibration_set(scene, seed=7)
        for got, want in zip(moved.correspondences, base.correspondences):
            assert got.plane_tag == want.plane_tag
            np.testing.assert_allclose(got.pixel, want.pixel, rtol=0, atol=1e-9)
            np.testing.assert_allclose(
                got.beacon_ips - want.beacon_ips, (0.0, 0.0, scene.floor_z), rtol=0, atol=1e-12
            )


# ---------------------------------------------------------------------------
# beacon noise


def true_beacons(scene, pose) -> dict:
    """The noise-free beacon pair of each frame that emit_beacons reads."""
    pairs = {"robot": robot_beacons(scene, pose)}
    for placement in scene.objects:
        pairs[placement.object_id] = object_beacons(placement, scene.floor_z)
    return pairs


class TestEmitBeacons:
    def test_zero_noise_equals_truth(self):
        scene = noise_free_scene()
        pose = robot_pose_for_sample(scene, seed=3, index=0)
        readings = emit_beacons(scene, pose, seed=3, index=0)
        truth = true_beacons(scene, pose)
        assert set(readings) == set(truth) == {"robot", "obj0", "obj1"}
        for frame, frame_readings in readings.items():
            for r in frame_readings:
                np.testing.assert_array_equal(r.front, truth[frame].front)
                np.testing.assert_array_equal(r.rear, truth[frame].rear)

    def test_noise_has_bounded_support(self):
        scene = SceneConfig()  # beacon_noise = 0.02
        pose = robot_pose_for_sample(scene, seed=4, index=0)
        readings = emit_beacons(replace(scene, collection_readings=10_000), pose, seed=4, index=0)
        true = robot_beacons(scene, pose)
        errs = np.array(
            [r.front - true.front for r in readings["robot"]]
            + [r.rear - true.rear for r in readings["robot"]]
        )
        assert np.abs(errs).max() <= scene.beacon_noise
        # and the bound is tight: some draw lands in the outer 5%
        assert np.abs(errs).max() > 0.95 * scene.beacon_noise

    def test_noise_mean_vanishes_at_clt_rate(self):
        scene = SceneConfig()
        pose = robot_pose_for_sample(scene, seed=5, index=0)
        n = 10_000
        readings = emit_beacons(replace(scene, collection_readings=n), pose, seed=5, index=0)
        true = robot_beacons(scene, pose)
        errs = np.array([r.front - true.front for r in readings["robot"]])
        sigma = scene.beacon_noise / math.sqrt(3.0)  # std of U(-b, b)
        bound = 3.0 * sigma / math.sqrt(n)
        assert np.abs(errs.mean(axis=0)).max() <= bound

    def test_deterministic_per_seed_and_index(self):
        scene = SceneConfig()
        pose = robot_pose_for_sample(scene, seed=6, index=1)
        a = emit_beacons(scene, pose, seed=6, index=1)
        b = emit_beacons(scene, pose, seed=6, index=1)
        np.testing.assert_array_equal(a["obj0"][0].front, b["obj0"][0].front)
        c = emit_beacons(scene, pose, seed=6, index=2)
        assert not np.array_equal(a["obj0"][0].front, c["obj0"][0].front)

    def test_requires_at_least_one_reading(self):
        with pytest.raises(ValueError, match="collection_readings"):
            replace(SceneConfig(), collection_readings=0)


# ---------------------------------------------------------------------------
# calibration set


class TestCalibrationSet:
    def test_counts_and_plane_tags(self):
        scene = SceneConfig()
        cs = make_calibration_set(scene, seed=7)
        assert len(cs.correspondences) == scene.calibration_points
        tags = [c.plane_tag for c in cs.correspondences]
        assert set(tags) == {"floor", "table"}
        assert abs(tags.count("floor") - tags.count("table")) <= 1
        assert len(cs.robot_readings) == scene.calibration_readings

    def test_pixels_inside_the_image(self):
        scene = SceneConfig()
        cs = make_calibration_set(scene, seed=8)
        for c in cs.correspondences:
            assert -5.0 <= c.pixel[0] <= scene.intrinsics.width + 5.0
            assert -5.0 <= c.pixel[1] <= scene.intrinsics.height + 5.0

    def test_beacon_noise_bounded(self):
        scene = SceneConfig()
        cs = make_calibration_set(scene, seed=9)
        true = robot_beacons(scene, cs.robot_pose)
        for r in cs.robot_readings:
            assert np.abs(r.front - true.front).max() <= scene.beacon_noise
            assert np.abs(r.rear - true.rear).max() <= scene.beacon_noise


# ---------------------------------------------------------------------------
# file formats


class TestFileFormats:
    def test_ply_round_trip_is_byte_identical(self):
        _scene, _pose, cloud = default_pose_and_cloud()
        data = write_ply(cloud)
        again = write_ply(read_ply(data))
        assert data == again

    def test_ply_rejects_garbage(self):
        with pytest.raises(ValueError, match="magic"):
            read_ply(b"not a ply\n")

    def test_beacons_csv_round_trip(self):
        scene = SceneConfig()
        pose = robot_pose_for_sample(scene, seed=10, index=0)
        readings = emit_beacons(replace(scene, collection_readings=3), pose, seed=10, index=0)
        text = beacons_csv(readings)
        assert text.splitlines()[0] == "frame,beacon_id,x,y,z"
        assert beacons_csv(parse_beacons_csv(text)) == text

    def test_correspondences_csv_round_trip(self):
        scene = SceneConfig()
        cs = make_calibration_set(scene, seed=11)
        text = correspondences_csv(cs.correspondences)
        assert text.splitlines()[0] == "beacon_x,beacon_y,beacon_z,u,v,plane_tag"
        assert correspondences_csv(parse_correspondences_csv(text)) == text

    def test_scene_round_trips_through_its_dict_form(self):
        scene = SceneConfig()
        back = from_dict(SceneConfig, to_dict(scene), "scene")
        assert back.beacon_noise == scene.beacon_noise
        assert back.lidar == scene.lidar
        assert back.intrinsics == scene.intrinsics
        assert [o.object_id for o in back.objects] == ["obj0", "obj1"]
        np.testing.assert_array_equal(back.cam_from_robot.rotation, scene.cam_from_robot.rotation)
        np.testing.assert_array_equal(back.lidar_from_cam.translation, scene.lidar_from_cam.translation)
        assert to_dict(back) == to_dict(scene)


# ---------------------------------------------------------------------------
# dataset tree


class TestGenerateDataset:
    def test_layout_and_sample_count(self, noise_free_dataset):
        root = noise_free_dataset
        assert sorted(os.listdir(os.path.join(root, "samples"))) == [
            "sample_000", "sample_001", "sample_002",
        ]
        for sid in ("sample_000", "sample_001", "sample_002"):
            assert os.path.isfile(os.path.join(root, "samples", sid, "cloud.ply"))
            assert os.path.isfile(os.path.join(root, "samples", sid, "beacons.csv"))
            assert os.path.isfile(os.path.join(root, "truth", f"{sid}.json"))
        assert os.path.isfile(os.path.join(root, "calibration", "correspondences.csv"))
        assert os.path.isfile(os.path.join(root, "calibration", "robot_beacons.csv"))
        assert os.path.isfile(os.path.join(root, "manifest.json"))

    def test_same_seed_byte_identical_tree(self, tmp_path):
        scene = noise_free_scene()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(scene, str(a), n_samples=2, seed=3)
        generate_dataset(scene, str(b), n_samples=2, seed=3)
        da, db = tree_digest(a), tree_digest(b)
        assert da == db and len(da) == 2 * 3 + 3

    def test_truth_labels_match_in_memory_sample(self, noise_free_dataset):
        """Read-back oracle: the JSON on disk reproduces make_sample."""
        sample = make_sample(noise_free_scene(), seed=5, index=1)
        with open(os.path.join(noise_free_dataset, "truth", "sample_001.json")) as fh:
            doc = json.load(fh)
        assert doc["sample"] == "sample_001"
        assert len(doc["objects"]) == len(sample.truth_objects)
        for on_disk, in_memory in zip(doc["objects"], sample.truth_objects):
            disk_box = OrientedBox3.from_dict(on_disk["box3d_lidar"])
            mem_box = OrientedBox3.from_dict(in_memory["box3d_lidar"])
            np.testing.assert_array_equal(disk_box.center, mem_box.center)
            assert disk_box.yaw == mem_box.yaw
            assert on_disk["class"] == in_memory["class"]

    def test_cloud_on_disk_round_trips(self, noise_free_dataset):
        path = os.path.join(noise_free_dataset, "samples", "sample_000", "cloud.ply")
        with open(path, "rb") as fh:
            data = fh.read()
        cloud = read_ply(data)
        assert write_ply(cloud) == data
        assert len(cloud) > 10_000

    def test_cloud_on_disk_is_the_float32_bits_of_the_sample(self, noise_free_dataset):
        for index in range(3):
            points = make_sample(noise_free_scene(), seed=5, index=index).cloud
            path = os.path.join(noise_free_dataset, "samples", f"sample_{index:03d}", "cloud.ply")
            with open(path, "rb") as fh:
                data = fh.read()
            body = data[data.index(b"end_header\n") + len(b"end_header\n"):]
            assert body == points.astype("<f4").tobytes()
            assert read_ply(data).tobytes() == points.astype("<f4").astype("<f8").tobytes()

    def test_holds_one_sample_at_a_time(self, monkeypatch, tmp_path):
        # each sample is written and released before the next is made, so
        # simulate's peak memory is that of one sample
        made = []  # (sample id, weak reference to its cloud)

        def checked(scene, seed, index):
            if made:
                sid, cloud = made[-1]
                for rel in (f"samples/{sid}/cloud.ply", f"samples/{sid}/beacons.csv",
                            f"truth/{sid}.json"):
                    assert os.path.isfile(tmp_path / rel), rel
                assert cloud() is None, f"the cloud of {sid} outlived its writing"
            sample = make_sample(scene, seed, index)
            made.append((sample.sample_id, weakref.ref(sample.cloud)))
            return sample

        monkeypatch.setattr(sim, "make_sample", checked)
        generate_dataset(noise_free_scene(), str(tmp_path), n_samples=3, seed=5)
        assert [sid for sid, _ in made] == ["sample_000", "sample_001", "sample_002"]

    def test_rejects_empty_request(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(noise_free_scene(), str(tmp_path / "x"), n_samples=0, seed=1)
