"""IoU metrics, label-set comparison, and the down-sampling study."""

import json
import math
import os

import numpy as np
import pytest

from ipslabel.config import ObjectSpec, RefineConfig
from ipslabel.errors import ClassMismatch, ConfigError, FrameMismatch, MissingSample
from ipslabel.eval import (
    EvalReport,
    compare_labels,
    downsample_study,
    iou_2d,
    iou_3d,
    study_means,
)
from ipslabel.fileio import to_dict
from ipslabel.labelgen import Box2, OrientedBox3

from .oracles import mc_iou3d_oracle, yaw_rotation
from .test_refine import shell_scene


# ---------------------------------------------------------------------------
# iou_2d


class TestIou2d:
    def test_identical_boxes(self):
        box = Box2(10, 20, 110, 220)
        assert iou_2d(box, box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou_2d(Box2(0, 0, 10, 10), Box2(20, 20, 30, 30)) == 0.0

    def test_touching_boxes_have_zero_overlap(self):
        assert iou_2d(Box2(0, 0, 10, 10), Box2(10, 0, 20, 10)) == 0.0

    def test_half_offset_unit_squares(self):
        a = Box2(0, 0, 1, 1)
        b = Box2(0.5, 0, 1.5, 1)
        assert iou_2d(a, b) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# iou_3d


class TestIou3d:
    def test_identical_boxes(self):
        box = OrientedBox3((1, 2, 3), (2, 1, 0.5), 0.7)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_half_offset_unit_cubes(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0)
        b = OrientedBox3((0.5, 0, 0), (1, 1, 1), 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_half_offset_in_z(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0)
        b = OrientedBox3((0, 0, 0.5), (1, 1, 1), 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_stacked_cubes_touch_but_do_not_overlap(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0)
        b = OrientedBox3((0, 0, 1.0), (1, 1, 1), 0.0)
        assert iou_3d(a, b) == 0.0

    def test_rotated_cube_over_itself(self):
        # unit cubes sharing a center, one at 45 degrees: the octagonal
        # footprint intersection gives IoU exactly 1/sqrt(2)
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0)
        b = OrientedBox3((0, 0, 0), (1, 1, 1), math.pi / 4)
        assert iou_3d(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_frame_mismatch_rejected(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0, frame="lidar")
        b = OrientedBox3((0, 0, 0), (1, 1, 1), 0.0, frame="ips")
        with pytest.raises(FrameMismatch):
            iou_3d(a, b)

    def test_symmetric(self):
        a = OrientedBox3((0.2, 0, 0), (1.5, 0.8, 1), 0.3)
        b = OrientedBox3((0, 0.3, 0.2), (1, 1.2, 0.9), -0.5)
        assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-12)

    def test_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.3, 2, 3), rng.uniform(-3, 3))
            b = OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.3, 2, 3), rng.uniform(-3, 3))
            base = iou_3d(a, b)
            theta = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-5, 5, 3)
            moved_a = OrientedBox3(yaw_rotation(theta) @ a.center + shift, a.dims, a.yaw + theta)
            moved_b = OrientedBox3(yaw_rotation(theta) @ b.center + shift, b.dims, b.yaw + theta)
            assert iou_3d(moved_a, moved_b) == pytest.approx(base, abs=1e-9)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = OrientedBox3(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.3, 2.0, 3), rng.uniform(-3, 3))
            b = OrientedBox3(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.3, 2.0, 3), rng.uniform(-3, 3))
            estimate = mc_iou3d_oracle(a, b, 100_000, rng)
            assert iou_3d(a, b) == pytest.approx(estimate, abs=0.015)


# ---------------------------------------------------------------------------
# compare_labels


def write_labels(dirpath, docs):
    os.makedirs(dirpath, exist_ok=True)
    for doc in docs:
        with open(os.path.join(dirpath, f"{doc['sample']}.json"), "w") as fh:
            json.dump(doc, fh)


def entry(class_name, center, dims=(1, 1, 1), yaw=0.0, box2=None):
    return {
        "class": class_name,
        "box3d_lidar": to_dict(OrientedBox3(center, dims, yaw)),
        "box2d": None if box2 is None else to_dict(box2),
    }


class TestCompareLabels:
    def test_self_comparison_is_perfect(self, tmp_path):
        doc = {
            "sample": "sample_000",
            "objects": [
                entry("cabinet", (2, 0, 0.5), box2=Box2(10, 10, 50, 90)),
                entry("table", (4, 1, 0.4)),
            ],
        }
        write_labels(tmp_path / "a", [doc])
        report = compare_labels(str(tmp_path / "a"), str(tmp_path / "a"))
        assert report.matched == 2
        assert report.unmatched_auto == 0
        assert report.mean_iou_3d == pytest.approx(1.0, abs=1e-12)
        assert report.mean_iou_2d == pytest.approx(1.0, abs=1e-12)

    def test_offset_box_scores_its_direct_iou(self, tmp_path):
        ref_box = OrientedBox3((2, 0, 0.5), (1, 1, 1), 0.0)
        auto_box = OrientedBox3((2.5, 0, 0.5), (1, 1, 1), 0.0)
        write_labels(tmp_path / "ref", [{"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]}])
        write_labels(tmp_path / "auto", [{"sample": "s0", "objects": [entry("cabinet", (2.5, 0, 0.5))]}])
        report = compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))
        direct = iou_3d(auto_box, ref_box)
        assert report.per_sample[0]["matches"][0]["iou_3d"] == pytest.approx(direct, abs=1e-12)
        assert report.per_sample[0]["matches"][0]["iou_2d"] is None
        assert report.mean_iou_2d is None

    def test_no_common_samples_rejected(self, tmp_path):
        write_labels(tmp_path / "a", [{"sample": "s0", "objects": []}])
        write_labels(tmp_path / "b", [{"sample": "s1", "objects": []}])
        with pytest.raises(MissingSample):
            compare_labels(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_reference_sample_without_auto_labels_rejected(self, tmp_path):
        write_labels(tmp_path / "auto", [{"sample": "s0", "objects": []}])
        write_labels(tmp_path / "ref", [
            {"sample": "s0", "objects": []},
            {"sample": "s1", "objects": [entry("cabinet", (0, 0, 0))]},
        ])
        with pytest.raises(MissingSample):
            compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))

    def test_only_the_reference_samples_are_scored(self, tmp_path):
        # a partial reference, such as a human labelling of some samples, is valid
        write_labels(tmp_path / "auto", [
            {"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]},
            {"sample": "s1", "objects": [entry("table", (0, 0, 0))]},
        ])
        write_labels(tmp_path / "ref", [{"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]}])
        report = compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))
        assert [s["sample"] for s in report.per_sample] == ["s0"]
        assert report.matched == 1
        assert report.unmatched_auto == 0

    def test_wrong_class_within_gate_rejected(self, tmp_path):
        write_labels(tmp_path / "auto", [{"sample": "s0", "objects": [entry("table", (2, 0, 0.5))]}])
        write_labels(tmp_path / "ref", [{"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]}])
        with pytest.raises(ClassMismatch):
            compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))

    def test_match_beyond_gate_rejected(self, tmp_path):
        write_labels(tmp_path / "auto", [{"sample": "s0", "objects": [entry("cabinet", (9, 0, 0.5))]}])
        write_labels(tmp_path / "ref", [{"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]}])
        with pytest.raises(ClassMismatch):
            compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))

    def test_extra_auto_labels_counted_unmatched(self, tmp_path):
        write_labels(tmp_path / "auto", [{
            "sample": "s0",
            "objects": [entry("cabinet", (2, 0, 0.5)), entry("cabinet", (0.5, 0, 0.5))],
        }])
        write_labels(tmp_path / "ref", [{"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]}])
        report = compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))
        assert report.matched == 1
        assert report.unmatched_auto == 1

    def test_nearest_center_wins_within_gate(self, tmp_path):
        write_labels(tmp_path / "auto", [{
            "sample": "s0",
            "objects": [entry("cabinet", (2.8, 0, 0.5)), entry("cabinet", (2.1, 0, 0.5))],
        }])
        write_labels(tmp_path / "ref", [{"sample": "s0", "objects": [entry("cabinet", (2, 0, 0.5))]}])
        report = compare_labels(str(tmp_path / "auto"), str(tmp_path / "ref"))
        best = iou_3d(
            OrientedBox3((2.1, 0, 0.5), (1, 1, 1), 0.0), OrientedBox3((2, 0, 0.5), (1, 1, 1), 0.0)
        )
        assert report.per_sample[0]["matches"][0]["iou_3d"] == pytest.approx(best, abs=1e-12)

    def test_report_dict_keys(self):
        report = EvalReport(per_sample=(), mean_iou_2d=None, mean_iou_3d=0.5, matched=1, unmatched_auto=0)
        assert set(report.to_dict()) == {
            "per_sample", "mean_iou_2d", "mean_iou_3d", "matched", "unmatched_auto",
        }


# ---------------------------------------------------------------------------
# downsample_study


class TestDownsampleStudy:
    @staticmethod
    def scene():
        rng = np.random.default_rng(2)
        truth = OrientedBox3((2.0, 0.5, 0.65), (0.9, 0.5, 1.3), 0.3)
        cloud = shell_scene(rng, truth)
        spec = ObjectSpec("cabinet", 0.9, 0.5, 1.3)
        return cloud, truth, spec

    def test_row_count_and_schema(self):
        cloud, truth, spec = self.scene()
        cfg = RefineConfig(iterations=150)
        rows = downsample_study(cloud, truth, spec, (0.5, 1.0), trials=3, cfg=cfg, seed=5)
        assert len(rows) == 2 * 3
        for row in rows:
            assert {"proportion", "trial"} <= set(row)
            assert "box3d" in row and "fitness" in row

    def test_deterministic(self):
        cloud, truth, spec = self.scene()
        cfg = RefineConfig(iterations=150)
        a = downsample_study(cloud, truth, spec, (0.25, 1.0), trials=2, cfg=cfg, seed=5)
        b = downsample_study(cloud, truth, spec, (0.25, 1.0), trials=2, cfg=cfg, seed=5)
        assert a == b

    def test_fitness_degrades_as_points_vanish(self):
        cloud, truth, spec = self.scene()
        cfg = RefineConfig(iterations=250)
        rows = downsample_study(cloud, truth, spec, (0.02, 1.0), trials=6, cfg=cfg, seed=6)
        means = study_means(rows)
        assert means[0.02] <= means[1.0]

    def test_bad_arguments_rejected(self):
        cloud, truth, spec = self.scene()
        cfg = RefineConfig(iterations=10)
        with pytest.raises(ValueError):
            downsample_study(cloud, truth, spec, (0.0, 1.0), trials=1, cfg=cfg)
        with pytest.raises(ValueError):
            downsample_study(cloud, truth, spec, (1.5,), trials=1, cfg=cfg)
        with pytest.raises(ValueError):
            downsample_study(cloud, truth, spec, (0.5,), trials=0, cfg=cfg)

    def test_a_class_without_proposals_ends_the_study_before_any_plane_fit(self):
        # a lone wall has no ground plane, so every trial's plane fit would fail
        rng = np.random.default_rng(0)
        wall = np.column_stack([np.full(500, 2.0), rng.uniform(-1, 1, 500), rng.uniform(0, 2, 500)])
        box = OrientedBox3((2.0, 0.0, 0.5), (1, 1, 1), 0.0)
        with pytest.raises(ConfigError, match="sofa"):
            downsample_study(
                wall, box, ObjectSpec("sofa", 1, 1, 1), (1.0,), 1,
                RefineConfig(iterations=10),
            )

    def test_errors_recorded_per_trial(self):
        # a label far from every point cannot be refined; the study keeps
        # going and records the reason
        cloud, _truth, spec = self.scene()
        lost = OrientedBox3((40.0, 40.0, 0.5), (0.9, 0.5, 1.3), 0.0)
        cfg = RefineConfig(iterations=10)
        rows = downsample_study(cloud, lost, spec, (1.0,), trials=2, cfg=cfg, seed=1)
        assert len(rows) == 2
        for row in rows:
            assert "error" in row and "EmptyNeighborhood" in row["error"]
