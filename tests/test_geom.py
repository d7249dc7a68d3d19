"""Frame construction, transform algebra, and beacon averaging."""

import numpy as np
import pytest

from ipslabel.errors import DegenerateBeaconPair, EmptyReadings, UsageError
from ipslabel.geom import (
    EPS_BEACON,
    ORTHONORMALITY_TOL,
    BeaconPair,
    RigidTransform,
    average_beacon_readings,
    beacon_yaw,
    compose,
    frame_from_beacons,
    frozen,
    inverse,
)
from ipslabel.rng import substream

from .oracles import cross_oracle, homogeneous_matrix, random_rotation, transform_point_oracle


def random_transform(rng, src="a", dst="b") -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-5, 5, size=3), src=src, dst=dst)


# ---------------------------------------------------------------------------
# frozen


def test_frozen_is_a_read_only_float64_copy_that_leaves_the_input_writable():
    values = np.arange(6)
    out = frozen(values, (2, 3))
    assert out.dtype == np.float64 and out.shape == (2, 3) and not out.flags.writeable
    assert values.flags.writeable
    values[0] = 7
    assert out[0, 0] == 0.0


def test_records_hold_read_only_copies_of_their_arrays():
    from ipslabel.calib import Correspondence
    from ipslabel.labelgen import OrientedBox3
    from ipslabel.refine import GroundPlane

    v3, v2 = np.ones(3), np.ones(2)
    records = [
        (RigidTransform(np.eye(3), v3, src="a", dst="b"), ("rotation", "translation")),
        (BeaconPair(v3, -v3), ("front", "rear")),
        (Correspondence(v3, v2), ("beacon_ips", "pixel")),
        (OrientedBox3(v3, v3, 0.0), ("center", "dims")),
        (GroundPlane(v3, 0.0), ("normal",)),  # a normal it rescales
    ]
    for record, fields in records:
        for name in fields:
            assert not getattr(record, name).flags.writeable, name
    assert v3.flags.writeable and v2.flags.writeable


# ---------------------------------------------------------------------------
# frame_from_beacons


class TestFrameFromBeacons:
    def test_axis_aligned_pair_gives_forced_axes(self):
        t = frame_from_beacons(BeaconPair((1, 0, 0), (0, 0, 0)))
        np.testing.assert_allclose(t.rotation[:, 0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(t.rotation[:, 1], [0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(t.rotation[:, 2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(t.translation, [1, 0, 0], atol=1e-12)
        assert t.src == "frame" and t.dst == "ips"

    def test_z_coordinates_are_averaged(self):
        flat = frame_from_beacons(BeaconPair((1, 0, 0), (0, 0, 0)))
        tilted = frame_from_beacons(BeaconPair((1, 0, 0.02), (0, 0, -0.02)))
        np.testing.assert_allclose(tilted.rotation, flat.rotation, atol=1e-12)
        np.testing.assert_allclose(tilted.translation, [1, 0, 0], atol=1e-12)

    def test_rotated_pair_y_axis_matches_cross_product_oracle(self):
        t = frame_from_beacons(BeaconPair((0, 2, 0), (0, 0, 0)))
        x_axis, y_axis, z_axis = t.rotation.T
        np.testing.assert_allclose(x_axis, [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(y_axis, [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(z_axis, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(y_axis, cross_oracle(x_axis, z_axis), atol=1e-12)

    def test_random_pairs_satisfy_construction_rules(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pair = BeaconPair(rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3))
            if np.hypot(*(pair.front[:2] - pair.rear[:2])) < 1e-2:
                continue
            t = frame_from_beacons(pair)
            x_axis, y_axis, z_axis = t.rotation.T
            for axis in (x_axis, y_axis, z_axis):
                assert abs(np.linalg.norm(axis) - 1.0) <= 1e-9
            np.testing.assert_allclose(z_axis, [0, 0, 1], atol=1e-12)
            np.testing.assert_allclose(y_axis, cross_oracle(x_axis, z_axis), atol=1e-12)
            # x points from rear to front in the xy-plane
            d = pair.front[:2] - pair.rear[:2]
            np.testing.assert_allclose(x_axis[:2], d / np.linalg.norm(d), atol=1e-9)
            assert x_axis[2] == 0.0

    def test_beacon_frames_are_left_handed(self):
        t = frame_from_beacons(BeaconPair((1, 2, 0), (0, 0, 0)))
        assert np.linalg.det(t.rotation) == pytest.approx(-1.0, abs=1e-12)

    def test_origin_maps_to_front_beacon_with_averaged_z(self):
        t = frame_from_beacons(BeaconPair((2, 1, 0.3), (0, 0, 0.1)))
        np.testing.assert_allclose(t.apply(np.zeros(3)), [2, 1, 0.2], atol=1e-12)

    def test_coincident_beacons_rejected(self):
        with pytest.raises(DegenerateBeaconPair):
            frame_from_beacons(BeaconPair((1, 1, 0), (1, 1, 0)))

    def test_vertical_only_separation_rejected(self):
        # z is averaged away first, so a vertical pair has no heading.
        with pytest.raises(DegenerateBeaconPair):
            frame_from_beacons(BeaconPair((1, 1, 1.0), (1, 1, 0.0)))

    def test_separation_threshold_is_eps_beacon(self):
        frame_from_beacons(BeaconPair((2 * EPS_BEACON, 0, 0), (0, 0, 0)))
        with pytest.raises(DegenerateBeaconPair):
            frame_from_beacons(BeaconPair((EPS_BEACON, 0, 0), (0, 0, 0)))


# ---------------------------------------------------------------------------
# RigidTransform


class TestRigidTransform:
    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3), src="a", dst="b")

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        t = random_transform(rng)
        back = RigidTransform.from_matrix(t.matrix, src="a", dst="b")
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-15)

    def test_from_matrix_rejects_bad_last_row(self):
        m = np.eye(4)
        m[3, 0] = 0.1
        with pytest.raises(ValueError, match="last row"):
            RigidTransform.from_matrix(m, src="a", dst="b")

    def test_apply_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = random_transform(rng)
            p = rng.uniform(-10, 10, 3)
            expected = transform_point_oracle(homogeneous_matrix(t.rotation, t.translation), p)
            np.testing.assert_allclose(t.apply(p), expected, atol=1e-12)

    def test_apply_batch_matches_per_point(self):
        rng = np.random.default_rng(2)
        t = random_transform(rng)
        pts = rng.uniform(-10, 10, (50, 3))
        batch = t.apply(pts)
        for i in range(len(pts)):
            np.testing.assert_allclose(batch[i], t.apply(pts[i]), atol=1e-12)


# ---------------------------------------------------------------------------
# compose / inverse


class TestComposeInverse:
    def test_compose_with_identity_is_noop(self):
        rng = np.random.default_rng(4)
        t = random_transform(rng, src="a", dst="b")
        left = compose(RigidTransform.identity("b"), t)
        np.testing.assert_allclose(left.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(left.translation, t.translation, atol=1e-15)
        right = compose(t, RigidTransform.identity("a"))
        np.testing.assert_allclose(right.rotation, t.rotation, atol=1e-15)
        assert left.src == "a" and left.dst == "b"

    def test_inverse_then_compose_is_identity(self):
        rng = np.random.default_rng(5)
        t = random_transform(rng)
        ident = compose(inverse(t), t)
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-12)
        assert ident.src == "a" and ident.dst == "a"

    def test_inverse_of_identity_is_identity(self):
        t = inverse(RigidTransform.identity("x"))
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=0)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=0)

    def test_inverse_is_an_involution(self):
        rng = np.random.default_rng(6)
        t = random_transform(rng)
        back = inverse(inverse(t))
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-12)
        assert back.src == t.src and back.dst == t.dst

    def test_inverse_of_pure_translation(self):
        t = RigidTransform(np.eye(3), (1, 2, 3), src="a", dst="b")
        inv = inverse(t)
        np.testing.assert_allclose(inv.rotation, np.eye(3), atol=0)
        np.testing.assert_allclose(inv.translation, (-1, -2, -3), atol=0)
        assert inv.src == "b" and inv.dst == "a"

    def test_compose_rejects_frame_mismatch(self):
        rng = np.random.default_rng(7)
        a = random_transform(rng, src="a", dst="b")
        c = random_transform(rng, src="c", dst="d")
        with pytest.raises(UsageError, match="cannot chain"):
            compose(c, a)  # a lands in b, c starts from c

    def test_compose_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ab = random_transform(rng, src="a", dst="b")
            bc = random_transform(rng, src="b", dst="c")
            cd = random_transform(rng, src="c", dst="d")
            chained = compose(cd, compose(bc, ab))
            oracle = (
                homogeneous_matrix(cd.rotation, cd.translation)
                @ homogeneous_matrix(bc.rotation, bc.translation)
                @ homogeneous_matrix(ab.rotation, ab.translation)
            )
            p = rng.uniform(-5, 5, 3)
            np.testing.assert_allclose(
                chained.apply(p), transform_point_oracle(oracle, p), atol=1e-12
            )
            assert chained.src == "a" and chained.dst == "d"

    def test_long_chains_stay_orthonormal(self):
        rng = np.random.default_rng(9)
        t = RigidTransform.identity("f0")
        for i in range(1000):
            step = random_transform(rng, src=f"f{i}", dst=f"f{i + 1}")
            t = compose(step, t)
        drift = np.abs(t.rotation.T @ t.rotation - np.eye(3)).max()
        assert drift <= 1e-9

    def test_rotations_at_the_edge_of_the_tolerance_compose(self):
        """Scaled by 1 + 4.5e-10, a rotation has |R^T R - I| = 9e-10: accepted,
        though the product of two has twice that drift."""
        rng = np.random.default_rng(10)

        def edge(src, dst):
            return RigidTransform(
                (1 + 4.5e-10) * random_rotation(rng), rng.uniform(-5, 5, 3), src=src, dst=dst
            )

        def drift(t):
            return np.abs(t.rotation.T @ t.rotation - np.eye(3)).max()

        ab, bc = edge("a", "b"), edge("b", "c")
        assert ORTHONORMALITY_TOL / 2 < drift(ab) <= ORTHONORMALITY_TOL
        ac = compose(bc, ab)
        assert drift(ac) <= ORTHONORMALITY_TOL
        oracle = homogeneous_matrix(bc.rotation, bc.translation) @ homogeneous_matrix(
            ab.rotation, ab.translation
        )
        p = rng.uniform(-5, 5, 3)
        np.testing.assert_allclose(ac.apply(p), transform_point_oracle(oracle, p), atol=1e-8)
        t = RigidTransform.identity("f0")
        for i in range(1000):
            t = compose(edge(f"f{i}", f"f{i + 1}"), t)
            assert drift(t) <= ORTHONORMALITY_TOL


def test_object_from_robot_chain_matches_hand_built_truth():
    """Full beacon-frame chain against explicit homogeneous matrices.

    The object and robot frames are rebuilt by hand from the raw poses
    (yaw trigonometry, left-handed y axis, front-beacon origin) and chained
    with plain numpy matrix algebra.
    """
    from ipslabel.config import SceneConfig
    from ipslabel.sim import object_beacons, robot_beacons

    scene = SceneConfig(floor_z=-0.2)
    pose = (1.0, -2.0, 0.7)
    placement = scene.objects[0]

    t_obj_from_robot = compose(
        inverse(frame_from_beacons(object_beacons(placement, scene.floor_z), frame="obj0")),
        frame_from_beacons(robot_beacons(scene, pose), frame="robot"),
    )

    def hand_frame(front_xy, yaw, z):
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.column_stack([(c, s, 0.0), (s, -c, 0.0), (0.0, 0.0, 1.0)])
        return homogeneous_matrix(rot, (front_xy[0], front_xy[1], z))

    obj_front = (
        placement.x + 0.5 * placement.beacon_sep * np.cos(placement.yaw),
        placement.y + 0.5 * placement.beacon_sep * np.sin(placement.yaw),
    )
    # beacon heights are measured from the floor at z = floor_z
    m_ips_from_obj = hand_frame(obj_front, placement.yaw, scene.floor_z + placement.spec.height)
    m_ips_from_robot = hand_frame(pose[:2], pose[2], scene.floor_z + scene.robot_beacon_height)
    m_obj_from_robot = np.linalg.inv(m_ips_from_obj) @ m_ips_from_robot

    p = np.array([0.3, -0.1, 0.2])
    np.testing.assert_allclose(
        t_obj_from_robot.apply(p),
        transform_point_oracle(m_obj_from_robot, p),
        atol=1e-9,
    )


# ---------------------------------------------------------------------------
# beacon_yaw / averaging


class TestBeaconYaw:
    def test_cardinal_directions(self):
        assert beacon_yaw(BeaconPair((1, 0, 0), (0, 0, 0))) == pytest.approx(0.0)
        assert beacon_yaw(BeaconPair((0, 1, 0), (0, 0, 0))) == pytest.approx(np.pi / 2)
        assert beacon_yaw(BeaconPair((-1, 0, 0), (0, 0, 0))) == pytest.approx(np.pi)

    def test_coincident_beacons_rejected(self):
        with pytest.raises(DegenerateBeaconPair):
            beacon_yaw(BeaconPair((0, 0, 1), (0, 0, 0)))

    @pytest.mark.parametrize("sep", [0.0005, EPS_BEACON])
    def test_pair_the_robot_frame_rejects_has_no_yaw(self, sep):
        pair = BeaconPair((sep, 0, 0.3), (0, 0, 0.3))
        with pytest.raises(DegenerateBeaconPair):
            frame_from_beacons(pair)
        with pytest.raises(DegenerateBeaconPair, match="planar beacon separation"):
            beacon_yaw(pair)

    def test_pair_just_past_the_bound_has_a_yaw(self):
        pair = BeaconPair((0, 2 * EPS_BEACON, 0), (0, 0, 0))
        assert beacon_yaw(pair) == pytest.approx(np.pi / 2)


class TestAverageBeaconReadings:
    def test_identical_readings_average_to_themselves(self):
        pair = BeaconPair((1, 2, 3), (4, 5, 6))
        avg = average_beacon_readings([pair] * 16)
        np.testing.assert_allclose(avg.front, pair.front, atol=0)
        np.testing.assert_allclose(avg.rear, pair.rear, atol=0)

    def test_mean_of_two(self):
        a = BeaconPair((0, 0, 0), (0, -1, 0))
        b = BeaconPair((2, 0, 0), (2, -1, 0))
        avg = average_beacon_readings([a, b])
        np.testing.assert_allclose(avg.front, (1, 0, 0), atol=0)
        np.testing.assert_allclose(avg.rear, (1, -1, 0), atol=0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyReadings):
            average_beacon_readings([])

    def test_averaging_beats_single_readings_under_noise(self):
        """Mean of 16 noisy readings is closer to truth than every single
        reading in at least 90 of 100 seeded trials."""
        truth = BeaconPair((1.0, 2.0, 0.7), (0.6, 2.0, 0.7))

        def error(pair):
            return float(
                np.linalg.norm(pair.front - truth.front)
                + np.linalg.norm(pair.rear - truth.rear)
            )

        wins = 0
        for trial in range(100):
            rng = substream(909, 17, trial)
            readings = [
                BeaconPair(
                    truth.front + rng.uniform(-0.02, 0.02, 3),
                    truth.rear + rng.uniform(-0.02, 0.02, 3),
                )
                for _ in range(16)
            ]
            avg = average_beacon_readings(readings)
            if error(avg) < min(error(r) for r in readings):
                wins += 1
        assert wins >= 90
