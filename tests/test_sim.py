"""Synthetic scene: ray casting, beacon noise, and dataset rendering."""

import functools
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from ipslabel.cloud import read_ply, write_ply
from ipslabel.fileio import from_dict, to_dict
from ipslabel.geom import inverse
from ipslabel.labelgen import OrientedBox3
from ipslabel.sim import (
    TABLE_SLAB_THICKNESS,
    TABLE_STEM_WIDTH,
    LidarConfig,
    ObjectPlacement,
    SceneConfig,
    default_scene,
    emit_beacons,
    generate_dataset,
    make_calibration_set,
    make_sample,
    parse_beacons_csv,
    parse_correspondences_csv,
    beacons_csv,
    correspondences_csv,
    raycast_lidar,
    robot_pose_for_sample,
    true_transforms,
)
from ipslabel.labelgen import ObjectSpec

from .conftest import noise_free_scene, tree_digest
from .oracles import ray_box_hit_oracle


@functools.lru_cache(maxsize=1)
def default_pose_and_cloud():
    scene = default_scene()
    pose = robot_pose_for_sample(scene, seed=5, index=0)
    return scene, pose, raycast_lidar(scene, pose)


def scene_solids_ips(scene: SceneConfig):
    """The solids the LiDAR sees, rebuilt from the scene description."""
    solids = []
    for o in scene.objects:
        spec = o.spec
        if spec.class_name == "table":
            solids.append(
                OrientedBox3(
                    (o.x, o.y, spec.height - TABLE_SLAB_THICKNESS / 2.0),
                    (spec.length, spec.width, TABLE_SLAB_THICKNESS),
                    o.yaw,
                    frame="ips",
                )
            )
            stem_h = spec.height - TABLE_SLAB_THICKNESS
            solids.append(
                OrientedBox3(
                    (o.x, o.y, stem_h / 2.0),
                    (TABLE_STEM_WIDTH, TABLE_STEM_WIDTH, stem_h),
                    o.yaw,
                    frame="ips",
                )
            )
        else:
            solids.append(
                OrientedBox3((o.x, o.y, spec.height / 2.0), spec.dims, o.yaw, frame="ips")
            )
    return solids


# ---------------------------------------------------------------------------
# robot poses


class TestRobotPose:
    def test_deterministic(self):
        scene = default_scene()
        assert robot_pose_for_sample(scene, 7, 3) == robot_pose_for_sample(scene, 7, 3)
        assert robot_pose_for_sample(scene, 7, 3) != robot_pose_for_sample(scene, 7, 4)

    def test_on_the_ring_facing_the_centroid(self):
        scene = default_scene()
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
            default_scene(),
            objects=(ObjectPlacement("obj0", ObjectSpec("cabinet", 0.2, 0.2, 0.5), 0.0, 0.0, 0.0),),
            lidar=LidarConfig(max_range=3.0),
            robot_radius_min=3.4,
            robot_radius_max=3.5,
        )
        pose = robot_pose_for_sample(scene, seed=1, index=0)
        cloud = raycast_lidar(scene, pose)
        assert len(cloud) > 1000
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        z_ips = inverse(chain).apply(cloud.points)[:, 2]
        assert np.abs(z_ips).max() <= 1e-9

    def test_faces_turned_away_from_the_sensor_have_no_points(self):
        scene = replace(
            default_scene(),
            objects=(ObjectPlacement("obj0", ObjectSpec("cabinet", 0.9, 0.5, 1.3), 4.0, 0.9, 0.4),),
        )
        pose = robot_pose_for_sample(scene, seed=2, index=0)
        cloud = raycast_lidar(scene, pose)
        chain = true_transforms(scene, pose)["lidar_from_ips"]
        box = scene_solids_ips(scene)[0]
        pts_ips = inverse(chain).apply(cloud.points)
        local = box.to_local(pts_ips)
        half = box.dims / 2.0
        on_box = np.all(np.abs(local) <= half + 1e-9, axis=1)
        assert on_box.sum() > 50
        sensor_local = box.to_local(inverse(chain).apply(np.zeros(3)))
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
            p = cloud.points[i]
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
        assert np.linalg.norm(cloud.points, axis=1).max() <= scene.lidar.max_range + 1e-9


# ---------------------------------------------------------------------------
# beacon noise


class TestEmitBeacons:
    def test_zero_noise_equals_truth(self):
        scene = noise_free_scene()
        pose = robot_pose_for_sample(scene, seed=3, index=0)
        readings = emit_beacons(scene, pose, seed=3, index=0)
        assert set(readings) == {"robot", "obj0", "obj1"}
        for frame_readings in readings.values():
            for r in frame_readings:
                np.testing.assert_array_equal(r.noisy.front, r.clean.front)
                np.testing.assert_array_equal(r.noisy.rear, r.clean.rear)

    def test_noise_has_bounded_support(self):
        scene = default_scene()  # beacon_noise = 0.02
        pose = robot_pose_for_sample(scene, seed=4, index=0)
        readings = emit_beacons(replace(scene, collection_readings=10_000), pose, seed=4, index=0)
        errs = np.array(
            [r.noisy.front - r.clean.front for r in readings["robot"]]
            + [r.noisy.rear - r.clean.rear for r in readings["robot"]]
        )
        assert np.abs(errs).max() <= scene.beacon_noise
        # and the bound is tight: some draw lands in the outer 5%
        assert np.abs(errs).max() > 0.95 * scene.beacon_noise

    def test_noise_mean_vanishes_at_clt_rate(self):
        scene = default_scene()
        pose = robot_pose_for_sample(scene, seed=5, index=0)
        n = 10_000
        readings = emit_beacons(replace(scene, collection_readings=n), pose, seed=5, index=0)
        errs = np.array([r.noisy.front - r.clean.front for r in readings["robot"]])
        sigma = scene.beacon_noise / math.sqrt(3.0)  # std of U(-b, b)
        bound = 3.0 * sigma / math.sqrt(n)
        assert np.abs(errs.mean(axis=0)).max() <= bound

    def test_deterministic_per_seed_and_index(self):
        scene = default_scene()
        pose = robot_pose_for_sample(scene, seed=6, index=1)
        a = emit_beacons(scene, pose, seed=6, index=1)
        b = emit_beacons(scene, pose, seed=6, index=1)
        np.testing.assert_array_equal(a["obj0"][0].noisy.front, b["obj0"][0].noisy.front)
        c = emit_beacons(scene, pose, seed=6, index=2)
        assert not np.array_equal(a["obj0"][0].noisy.front, c["obj0"][0].noisy.front)

    def test_requires_at_least_one_reading(self):
        with pytest.raises(ValueError, match="collection_readings"):
            replace(default_scene(), collection_readings=0)


# ---------------------------------------------------------------------------
# calibration set


class TestCalibrationSet:
    def test_counts_and_plane_tags(self):
        scene = default_scene()
        cs = make_calibration_set(scene, seed=7)
        assert len(cs.correspondences) == scene.calibration_points
        tags = [c.plane_tag for c in cs.correspondences]
        assert set(tags) == {"floor", "table"}
        assert abs(tags.count("floor") - tags.count("table")) <= 1
        assert len(cs.robot_readings) == scene.calibration_readings

    def test_pixels_inside_the_image(self):
        scene = default_scene()
        cs = make_calibration_set(scene, seed=8)
        for c in cs.correspondences:
            assert -5.0 <= c.pixel[0] <= scene.intrinsics.width + 5.0
            assert -5.0 <= c.pixel[1] <= scene.intrinsics.height + 5.0

    def test_beacon_noise_bounded(self):
        scene = default_scene()
        cs = make_calibration_set(scene, seed=9)
        for r in cs.robot_readings:
            assert np.abs(r.noisy.front - r.clean.front).max() <= scene.beacon_noise
            assert np.abs(r.noisy.rear - r.clean.rear).max() <= scene.beacon_noise


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
        scene = default_scene()
        pose = robot_pose_for_sample(scene, seed=10, index=0)
        readings = emit_beacons(replace(scene, collection_readings=3), pose, seed=10, index=0)
        text = beacons_csv(readings)
        assert text.splitlines()[0] == "frame,beacon_id,x,y,z,clean_x,clean_y,clean_z"
        assert beacons_csv(parse_beacons_csv(text)) == text

    def test_correspondences_csv_round_trip(self):
        scene = default_scene()
        cs = make_calibration_set(scene, seed=11)
        text = correspondences_csv(cs.correspondences)
        assert text.splitlines()[0] == "beacon_x,beacon_y,beacon_z,u,v,plane_tag"
        assert correspondences_csv(parse_correspondences_csv(text)) == text

    def test_scene_round_trips_through_its_dict_form(self):
        scene = default_scene()
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

    def test_cloud_on_disk_is_the_float64_bits_of_the_sample(self, noise_free_dataset):
        for index in range(3):
            points = make_sample(noise_free_scene(), seed=5, index=index).cloud.points
            path = os.path.join(noise_free_dataset, "samples", f"sample_{index:03d}", "cloud.ply")
            with open(path, "rb") as fh:
                data = fh.read()
            body = data[data.index(b"end_header\n") + len(b"end_header\n"):]
            assert body == points.astype("<f8").tobytes()
            assert read_ply(data).points.tobytes() == points.tobytes()

    def test_rejects_empty_request(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(noise_free_scene(), str(tmp_path / "x"), n_samples=0, seed=1)
