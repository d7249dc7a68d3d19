"""End-to-end command-line pipeline: simulate, calibrate, generate, refine, evaluate."""

import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ipslabel
from ipslabel import cli
from ipslabel.cli import _extrinsic_from_report, main
from ipslabel.cloud import PointCloud, read_ply, write_ply
from ipslabel.eval import compare_labels
from ipslabel.fileio import from_dict
from ipslabel.geom import BeaconPair, inverse
from ipslabel.labelgen import OrientedBox3, project_box
from ipslabel.sim import BeaconReading, SceneConfig, beacons_csv, parse_beacons_csv

from .conftest import FIXTURES, run_cli, tree_digest
from .oracles import ascii_ply

CAL_FLAGS = [
    "--correspondences", os.path.join(FIXTURES, "correspondences.csv"),
    "--robot-beacons", os.path.join(FIXTURES, "robot_beacons.csv"),
    "--manifest", os.path.join(FIXTURES, "manifest.json"),
    "--delta-px", "8", "--iterations", "300",
]


def read(path):
    with open(path) as fh:
        return fh.read()


def openblas_dynamic_arch() -> bool:
    """True when numpy links an OpenBLAS built with DYNAMIC_ARCH on x86_64.

    Such a build picks its kernel at run time, and OPENBLAS_CORETYPE
    overrides the pick, so one machine can run several BLAS kernels.
    """
    if platform.machine() != "x86_64":
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without mode="dicts"
        return False
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_same_seed_same_tree(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            code, _, err = run_cli(["--seed", "3", "simulate", "--out", out, "--samples", "2"])
            assert code == 0, err
        assert tree_digest(a) == tree_digest(b)

    def test_creates_nested_output_dir(self, tmp_path):
        out = str(tmp_path / "deep" / "er" / "ds")
        code, _, err = run_cli(["--seed", "3", "simulate", "--out", out, "--samples", "1"])
        assert code == 0, err
        assert os.path.isfile(os.path.join(out, "manifest.json"))

    def test_malformed_config_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [unclosed\n")
        code, _, err = run_cli(["--config", str(bad), "simulate", "--out", str(tmp_path / "d"), "--samples", "1"])
        assert code == 2
        assert "error:" in err and "malformed config" in err

    def test_unknown_config_key_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sede: 4\n")
        code, _, err = run_cli(["--config", str(bad), "simulate", "--out", str(tmp_path / "d"), "--samples", "1"])
        assert code == 2
        assert "sede" in err

    def test_existing_dataset_is_left_as_it_is(self, tmp_path):
        # A second dataset written over the first would leave the first's other
        # samples beside its own, and generate would label them all.
        ds = str(tmp_path / "ds")
        code, _, err = run_cli(["--seed", "3", "simulate", "--out", ds, "--samples", "4"])
        assert code == 0, err
        before = tree_digest(ds)
        cfg = tmp_path / "one_object.yaml"
        cfg.write_text(
            "scene: {objects: [{id: obj0, class: cabinet, dims: [0.9, 0.5, 1.3], "
            "x: 4.0, y: 0.9, yaw: 0.4}]}\n"
        )
        code, _, err = run_cli(
            ["--config", str(cfg), "--seed", "4", "simulate", "--out", ds, "--samples", "2"]
        )
        assert code == 2
        assert err.startswith("error: ") and ds in err and "Traceback" not in err
        assert tree_digest(ds) == before

    def test_missing_config_file_is_an_io_error(self, tmp_path):
        code, _, err = run_cli(["--config", str(tmp_path / "nope.yaml"), "simulate", "--out", str(tmp_path / "d"), "--samples", "1"])
        assert code == 3
        assert "i/o error" in err


MALFORMED_CONFIGS = [
    # (config text, key the error must name)
    ("scene: null", "scene"),
    ("scene: {lidar: null}", "scene.lidar"),
    ("scene: {beacon_noise: [1]}", "scene.beacon_noise"),
    ("seed: [1]", "seed"),
    ("scene: {lidar: {channels: 2.5}}", "scene.lidar.channels"),
    ("refine: {iterations: 2.5}", "refine.iterations"),
    ('calibration: {planar: "no"}', "calibration.planar"),
    ("collection: {averaging_n: 0}", "collection"),
    ("calibration: {averaging_n: 16}", "averaging_n"),
    ("scene: {beacon_noise: abc}", "scene.beacon_noise"),
    ("refine: {seed: 3}", "seed"),
    ("sede: 4", "sede"),
    ("seed: -1", "seed"),
    ("scene: {robot_radius_min: 6.0, robot_radius_max: 3.0}", "robot_radius_min"),
    ("scene: {collection_readings: 0}", "collection_readings"),
    ("scene: {calibration_readings: 0}", "calibration_readings"),
    ("scene: {calibration_points: -3}", "calibration_points"),
    ("scene: {calibration_points: 2}", "calibration_points"),
]

SUBCOMMANDS = [
    ["simulate", "--out", "{d}/ds"],
    ["calibrate", "--dataset", "{d}/ds", "--out", "{d}/cal.json"],
    ["generate", "--dataset", "{d}/ds", "--calibration", "{d}/cal.json", "--out", "{d}/labels"],
    ["refine", "--dataset", "{d}/ds", "--labels", "{d}/labels", "--out", "{d}/refined"],
    ["evaluate", "--auto", "{d}/refined", "--reference", "{d}/labels", "--out", "{d}/rep.json"],
]


class TestConfigValidation:
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("text, key", MALFORMED_CONFIGS)
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, text, key, argv):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text + "\n")
        code, _, err = run_cli(["--config", str(cfg), *(a.format(d=tmp_path) for a in argv)])
        assert code == 2, err
        assert "error:" in err and key in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["bad.yaml"]  # rejected before any work

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, jobs):
        out = tmp_path / "ds"
        code, _, err = run_cli(["--jobs", jobs, "simulate", "--out", str(out), "--samples", "1"])
        assert code == 2
        assert "--jobs" in err
        assert not out.exists()

    def test_camera_that_sees_no_calibration_target_exits_2(self, tmp_path):
        # An upward-looking camera sees none of the target; run in a subprocess
        # with a timeout, so a draw loop without a bound fails instead of hanging.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scene: {cam_from_robot: {rotation: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "
            "translation: [0, 0, 0]}}\n"
        )
        out = tmp_path / "ds"
        src = os.path.dirname(os.path.dirname(os.path.abspath(ipslabel.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ipslabel.cli", "--config", str(cfg), "simulate",
             "--out", str(out), "--samples", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: scene.cam_from_robot")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_importing_the_cli_loads_neither_yaml_nor_a_process_pool(self):
        # every stage, --version included, pays for what the CLI imports;
        # yaml is loaded by a config file and the pool by --jobs > 1
        src = os.path.dirname(os.path.dirname(os.path.abspath(ipslabel.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = "import sys, ipslabel.cli; print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_int_for_a_float_field_is_written_as_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scene: {beacon_noise: 0}\n")
        out = tmp_path / "ds"
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--out", str(out), "--samples", "1"])
        assert code == 0, err
        manifest = read(out / "manifest.json")
        assert '"beacon_noise": 0.0,' in manifest
        assert json.loads(manifest)["scene"]["beacon_noise"] == 0.0


# ---------------------------------------------------------------------------
# calibrate


class TestCalibrate:
    def test_noise_free_dataset_recovers_extrinsic(self, noise_free_dataset, tmp_path):
        out = str(tmp_path / "cal.json")
        code, stdout, err = run_cli(
            ["--seed", "9", "calibrate", "--dataset", noise_free_dataset, "--out", out]
        )
        assert code == 0, err
        report = json.loads(read(out))
        assert set(report) == {"extrinsic", "inliers", "rmse_px", "method", "delta_px", "planar"}
        assert report["rmse_px"] < 1e-6
        assert len(report["extrinsic"]) == 16
        assert len(report["inliers"]) == 63
        assert "rmse_px" in stdout
        assert not re.search(r"-0\.0\b", read(out))
        _extrinsic_from_report(out)  # orthonormality survives the report rounding

    def test_planar_output_matches_frozen_report(self, tmp_path):
        out = str(tmp_path / "cal.json")
        code, _, err = run_cli(["--seed", "20", "calibrate", *CAL_FLAGS, "--planar", "--out", out])
        assert code == 0, err
        assert read(out) == read(os.path.join(FIXTURES, "expected_planar.json"))

    def test_no_planar_output_matches_frozen_report(self, tmp_path):
        out = str(tmp_path / "cal.json")
        code, _, err = run_cli(["--seed", "20", "calibrate", *CAL_FLAGS, "--no-planar", "--out", out])
        assert code == 0, err
        assert read(out) == read(os.path.join(FIXTURES, "expected_noplanar.json"))

    @pytest.mark.skipif(
        not openblas_dynamic_arch(),
        reason="needs numpy linked to a DYNAMIC_ARCH OpenBLAS on x86_64",
    )
    @pytest.mark.parametrize("coretype", ["Prescott", "Nehalem"])
    @pytest.mark.parametrize(
        "mode, fixture",
        [("--planar", "expected_planar.json"), ("--no-planar", "expected_noplanar.json")],
    )
    def test_report_is_byte_identical_under_other_blas_kernels(
        self, tmp_path, coretype, mode, fixture
    ):
        out = str(tmp_path / "cal.json")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ipslabel.__file__)))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ipslabel.cli", "--seed", "20", "calibrate", *CAL_FLAGS,
             mode, "--out", out],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert read(out) == read(os.path.join(FIXTURES, fixture))

    def test_planar_constraint_helps_on_noisy_fixture(self):
        planar = json.loads(read(os.path.join(FIXTURES, "expected_planar.json")))
        free = json.loads(read(os.path.join(FIXTURES, "expected_noplanar.json")))
        assert planar["planar"] is True and free["planar"] is False
        assert planar["rmse_px"] <= free["rmse_px"]

    def test_too_few_correspondences(self, tmp_path):
        corr = tmp_path / "c.csv"
        corr.write_text(
            "beacon_x,beacon_y,beacon_z,u,v,plane_tag\n"
            "0,0,0,320,240,floor\n1,0,0,400,240,floor\n0,1,0,320,300,floor\n"
        )
        code, _, err = run_cli([
            "calibrate", "--correspondences", str(corr),
            "--robot-beacons", os.path.join(FIXTURES, "robot_beacons.csv"),
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2
        assert "at least 6" in err

    def test_needs_input_paths(self, tmp_path):
        code, _, err = run_cli(["calibrate", "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "--dataset" in err


# ---------------------------------------------------------------------------
# generate / refine / evaluate on a shared noisy pipeline


@pytest.fixture(scope="module")
def pipeline(noisy_dataset, tmp_path_factory):
    """calibrate -> generate -> refine over the session's noisy dataset."""
    root = tmp_path_factory.mktemp("pipeline")
    cal = str(root / "cal.json")
    labels = str(root / "labels")
    refined = str(root / "refined")
    cfg = root / "cfg.yaml"
    cfg.write_text("refine:\n  iterations: 1500\n")
    code, _, err = run_cli(
        ["--seed", "9", "calibrate", "--dataset", noisy_dataset, "--iterations", "300", "--out", cal]
    )
    assert code == 0, err
    code, _, err = run_cli(
        ["generate", "--dataset", noisy_dataset, "--calibration", cal, "--out", labels]
    )
    assert code == 0, err
    code, _, err = run_cli(
        ["--config", str(cfg), "--seed", "9", "refine",
         "--dataset", noisy_dataset, "--labels", labels, "--out", refined]
    )
    assert code == 0, err
    return {"dataset": noisy_dataset, "cal": cal, "labels": labels, "refined": refined,
            "truth": os.path.join(noisy_dataset, "truth"), "cfg": str(cfg)}


class TestGenerate:
    def test_noise_free_labels_match_truth(self, noise_free_dataset, tmp_path):
        cal = str(tmp_path / "cal.json")
        labels = str(tmp_path / "labels")
        code, _, err = run_cli(
            ["--seed", "9", "calibrate", "--dataset", noise_free_dataset, "--out", cal]
        )
        assert code == 0, err
        code, _, err = run_cli(
            ["generate", "--dataset", noise_free_dataset, "--calibration", cal, "--out", labels]
        )
        assert code == 0, err
        report = compare_labels(labels, os.path.join(noise_free_dataset, "truth"))
        assert report.mean_iou_3d >= 0.999
        assert report.mean_iou_2d >= 0.999
        assert report.unmatched_auto == 0

    def test_refined_box2d_is_the_projection_of_the_refined_box3d(self, pipeline):
        manifest = json.loads(read(os.path.join(pipeline["dataset"], "manifest.json")))
        scene = from_dict(SceneConfig, manifest["scene"], "scene")
        cam_from_lidar = inverse(scene.lidar_from_cam)
        entries = [
            e for f in sorted(os.listdir(pipeline["refined"]))
            for e in json.loads(read(os.path.join(pipeline["refined"], f)))["objects"]
        ]
        assert entries and all(e["refined"] is True for e in entries)
        for entry in entries:
            box = OrientedBox3.from_dict(entry["box3d_lidar"])
            box2 = project_box(cam_from_lidar.apply(box.vertices()), scene.intrinsics)
            assert entry["box2d"] == box2.to_dict()
            assert entry["truncated"] == box2.is_truncated
            assert entry["behind_camera_vertices"] == box2.behind_camera_vertices

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "labels2")
        code, _, err = run_cli(
            ["generate", "--dataset", pipeline["dataset"], "--calibration", pipeline["cal"], "--out", again]
        )
        assert code == 0, err
        assert tree_digest(again) == tree_digest(pipeline["labels"])

    def test_jobs_do_not_change_output(self, pipeline, tmp_path):
        par = str(tmp_path / "labels_par")
        code, _, err = run_cli(
            ["--jobs", "2", "generate", "--dataset", pipeline["dataset"],
             "--calibration", pipeline["cal"], "--out", par]
        )
        assert code == 0, err
        assert tree_digest(par) == tree_digest(pipeline["labels"])

    @pytest.mark.parametrize("calibration_readings", [5, 20])
    def test_every_reading_is_averaged(self, tmp_path, calibration_readings):
        """calibrate and generate write what they write from one reading per
        frame that is the mean of all the frame's readings."""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"scene: {{collection_readings: 3, calibration_readings: {calibration_readings}}}\n"
        )
        ds, mean_ds = tmp_path / "ds", tmp_path / "mean_ds"
        code, _, err = run_cli(
            ["--config", str(cfg), "--seed", "5", "simulate", "--out", str(ds), "--samples", "2"]
        )
        assert code == 0, err
        shutil.copytree(ds, mean_ds)
        csvs = ["calibration/robot_beacons.csv"] + [
            f"samples/{sid}/beacons.csv" for sid in os.listdir(mean_ds / "samples")
        ]
        for rel in csvs:
            readings = parse_beacons_csv(read(mean_ds / rel))
            for rs in readings.values():
                assert len(rs) == (calibration_readings if rel.startswith("calib") else 3)
                assert not np.array_equal(rs[0].noisy.front, rs[1].noisy.front)
            mean = {
                frame: [BeaconReading(BeaconPair(
                    np.mean([r.noisy.front for r in rs], axis=0),
                    np.mean([r.noisy.rear for r in rs], axis=0),
                ), rs[0].clean)]
                for frame, rs in readings.items()
            }
            (mean_ds / rel).write_text(beacons_csv(mean))
        for root in (ds, mean_ds):
            for argv in (
                ["calibrate", "--dataset", str(root), "--iterations", "300",
                 "--out", str(root / "cal.json")],
                ["generate", "--dataset", str(root), "--calibration", str(root / "cal.json"),
                 "--out", str(root / "labels")],
            ):
                code, _, err = run_cli(["--config", str(cfg), *argv])
                assert code == 0, err
        assert read(ds / "cal.json") == read(mean_ds / "cal.json")
        assert tree_digest(ds / "labels") == tree_digest(mean_ds / "labels")

    def test_every_sample_gets_a_label_file(self, pipeline):
        assert sorted(os.listdir(pipeline["labels"])) == [
            "sample_000.json", "sample_001.json", "sample_002.json",
        ]
        doc = json.loads(read(os.path.join(pipeline["labels"], "sample_000.json")))
        assert [e["id"] for e in doc["objects"]] == ["obj0", "obj1"]
        assert all(e["refined"] is False for e in doc["objects"])


class TestRefine:
    def test_refinement_improves_mean_iou(self, pipeline):
        before = compare_labels(pipeline["labels"], pipeline["truth"]).mean_iou_3d
        after = compare_labels(pipeline["refined"], pipeline["truth"]).mean_iou_3d
        assert after >= before

    def test_refined_flag_set(self, pipeline):
        for fname in sorted(os.listdir(pipeline["refined"])):
            doc = json.loads(read(os.path.join(pipeline["refined"], fname)))
            assert all(e["refined"] is True for e in doc["objects"])

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "refined2")
        code, _, err = run_cli(
            ["--config", pipeline["cfg"], "--seed", "9", "refine",
             "--dataset", pipeline["dataset"], "--labels", pipeline["labels"], "--out", again]
        )
        assert code == 0, err
        assert tree_digest(again) == tree_digest(pipeline["refined"])

    def test_jobs_do_not_change_output(self, pipeline, tmp_path):
        par = str(tmp_path / "refined_par")
        code, _, err = run_cli(
            ["--config", pipeline["cfg"], "--seed", "9", "--jobs", "2", "refine",
             "--dataset", pipeline["dataset"], "--labels", pipeline["labels"], "--out", par]
        )
        assert code == 0, err
        assert tree_digest(par) == tree_digest(pipeline["refined"])

    def test_one_label_file_refines_as_in_the_full_run(self, pipeline, tmp_path):
        # each object's seed follows its sample's place in the dataset, not in --labels
        labels, out = tmp_path / "labels", tmp_path / "refined"
        labels.mkdir()
        shutil.copy(os.path.join(pipeline["labels"], "sample_001.json"), labels)
        code, _, err = run_cli(
            ["--config", pipeline["cfg"], "--seed", "9", "refine",
             "--dataset", pipeline["dataset"], "--labels", str(labels), "--out", str(out)]
        )
        assert code == 0, err
        assert os.listdir(out) == ["sample_001.json"]
        assert read(out / "sample_001.json") == read(
            os.path.join(pipeline["refined"], "sample_001.json")
        )

    def test_removed_entry_leaves_the_others_as_in_the_full_run(self, pipeline, tmp_path):
        # each object's seed follows its place in the manifest, not in the label file
        labels, out = tmp_path / "labels", tmp_path / "refined"
        labels.mkdir()
        doc = json.loads(read(os.path.join(pipeline["labels"], "sample_000.json")))
        doc["objects"] = [e for e in doc["objects"] if e["id"] != "obj0"]
        (labels / "sample_000.json").write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["--config", pipeline["cfg"], "--seed", "9", "refine",
             "--dataset", pipeline["dataset"], "--labels", str(labels), "--out", str(out)]
        )
        assert code == 0, err
        full = json.loads(read(os.path.join(pipeline["refined"], "sample_000.json")))["objects"]
        part = json.loads(read(out / "sample_000.json"))["objects"]
        assert [e["id"] for e in part] == ["obj1"]
        assert part == [e for e in full if e["id"] == "obj1"]

    def test_unknown_class_is_a_usage_error(self, pipeline, tmp_path):
        # refine takes the class from the manifest object the label names,
        # so the manifest and the label both call obj0 a sofa
        dataset = tmp_path / "ds"
        shutil.copytree(pipeline["dataset"], dataset)
        manifest = json.loads(read(dataset / "manifest.json"))
        manifest["scene"]["objects"][0]["class"] = "sofa"
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        labels = tmp_path / "weird"
        labels.mkdir()
        doc = json.loads(read(os.path.join(pipeline["labels"], "sample_000.json")))
        doc["objects"][0]["class"] = "sofa"
        (labels / "sample_000.json").write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["refine", "--dataset", str(dataset), "--labels", str(labels),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "sofa" in err and "table_stem" in err


class TestEvaluate:
    def test_self_comparison_is_perfect(self, pipeline, tmp_path):
        out = str(tmp_path / "rep.json")
        code, stdout, err = run_cli(
            ["evaluate", "--auto", pipeline["labels"], "--reference", pipeline["labels"], "--out", out]
        )
        assert code == 0, err
        report = json.loads(read(out))
        assert report["mean_iou_3d"] == pytest.approx(1.0, abs=1e-12)
        assert report["unmatched_auto"] == 0
        assert "matched 6" in stdout

    def test_report_matches_library_call(self, pipeline, tmp_path):
        out = str(tmp_path / "rep.json")
        code, _, err = run_cli(
            ["evaluate", "--auto", pipeline["refined"], "--reference", pipeline["truth"], "--out", out]
        )
        assert code == 0, err
        direct = compare_labels(pipeline["refined"], pipeline["truth"]).to_dict()
        assert json.loads(read(out)) == json.loads(json.dumps(direct))

    def test_needs_inputs(self, tmp_path):
        code, _, err = run_cli(["evaluate", "--out", str(tmp_path / "rep.json")])
        assert code == 2
        assert "--auto" in err

    def test_downsample_study(self, pipeline, tmp_path):
        out = str(tmp_path / "study.json")
        csv = str(tmp_path / "study.csv")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("refine:\n  iterations: 200\n")
        argv = ["--config", str(cfg), "--seed", "4", "evaluate", "--study", "downsample",
                "--dataset", pipeline["dataset"], "--labels", pipeline["labels"],
                "--sample", "sample_000", "--object-id", "obj0",
                "--proportions", "0.5,1.0", "--trials", "2", "--out", out, "--csv", csv]
        code, _, err = run_cli(argv)
        assert code == 0, err
        report = json.loads(read(out))
        assert report["object"] == "obj0"
        assert len(report["rows"]) == 4
        assert set(report["mean_fitness"]) == {"0.5", "1.0"}
        lines = read(csv).splitlines()
        assert lines[0] == "proportion,trial,fitness,error"
        assert len(lines) == 5
        # identical flags, identical artifacts
        out2, csv2 = str(tmp_path / "s2.json"), str(tmp_path / "s2.csv")
        argv2 = argv[:-4] + ["--out", out2, "--csv", csv2]
        code, _, err = run_cli(argv2)
        assert code == 0, err
        assert read(out2) == read(out)
        assert read(csv2) == read(csv)

    def test_downsample_study_needs_sample(self, pipeline, tmp_path):
        code, _, err = run_cli(
            ["evaluate", "--study", "downsample", "--dataset", pipeline["dataset"],
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "--sample" in err


# ---------------------------------------------------------------------------
# malformed inputs and the error-to-exit-code mapping


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 1-sample seed-7 dataset with its calibration report and labels."""
    root = tmp_path_factory.mktemp("small_run")
    ds, cal, labels = str(root / "ds"), str(root / "cal.json"), str(root / "labels")
    for argv in (
        ["--seed", "7", "simulate", "--out", ds, "--samples", "1"],
        ["--seed", "7", "calibrate", "--dataset", ds, "--iterations", "300", "--out", cal],
        ["generate", "--dataset", ds, "--calibration", cal, "--out", labels],
    ):
        code, _, err = run_cli(argv)
        assert code == 0, err
    return root


def _json_edit(*path, value=None):
    """Set the entry at ``path`` of a JSON document, or delete it if value is None."""

    def mutate(text):
        doc = json.loads(text)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
        return json.dumps(doc)

    return mutate


def _field_edit(line_index, field_index, value, sep=","):
    def mutate(text):
        lines = text.splitlines()
        fields = lines[line_index].split(sep)
        fields[field_index] = value
        lines[line_index] = sep.join(fields)
        return "\n".join(lines) + "\n"

    return mutate


CLOUD = "ds/samples/sample_000/cloud.ply"


def _as_text(path):
    """The text of an input file; a cloud's as ASCII PLY, so that a line edit corrupts it."""
    if path.suffix == ".ply":
        return ascii_ply(read_ply(path.read_bytes()).points)
    return path.read_text()

BEACONS = "ds/samples/sample_000/beacons.csv"
LABEL = "labels/sample_000.json"
GENERATE = ["generate", "--dataset", "{d}/ds", "--calibration", "{d}/cal.json", "--out", "{o}"]
REFINE = ["refine", "--dataset", "{d}/ds", "--labels", "{d}/labels", "--out", "{o}"]
EVALUATE = ["evaluate", "--auto", "{d}/labels", "--reference", "{d}/ds/truth", "--out", "{o}"]
CALIBRATE = ["calibrate", "--dataset", "{d}/ds", "--iterations", "20", "--out", "{o}"]
STUDY = ["evaluate", "--study", "downsample", "--dataset", "{d}/ds", "--labels", "{d}/labels",
         "--sample", "sample_000", "--trials", "1", "--out", "{o}"]

MALFORMED_INPUTS = [
    # (id, file to corrupt, corruption, argv, what the error must name);
    # a cloud is turned into ASCII PLY (see _as_text) before it is corrupted
    ("nan-ply", CLOUD, _field_edit(16, 0, "nan", sep=" "), REFINE,
     ["cloud.ply", "line 17", "non-finite"]),
    ("nan-ply-study", CLOUD, _field_edit(16, 0, "nan", sep=" "), STUDY, ["cloud.ply", "line 17"]),
    ("ply-without-z", CLOUD, lambda t: t.replace("property double z\n", ""), REFINE,
     ["cloud.ply", "x, y, z"]),
    ("truncated-manifest", "ds/manifest.json", lambda t: t[: len(t) // 2], GENERATE,
     ["manifest.json"]),
    ("manifest-without-scene", "ds/manifest.json", _json_edit("scene"), REFINE,
     ["manifest.json", "'scene'"]),
    ("manifest-bad-scene", "ds/manifest.json", _json_edit("scene", "lidar", "channels", value=0),
     GENERATE, ["manifest.json", "scene.lidar"]),
    ("non-orthonormal-extrinsic", "cal.json", _json_edit("extrinsic", 0, value=lambda v: 2 * v),
     GENERATE, ["cal.json", "orthonormal"]),
    ("missing-extrinsic", "cal.json", _json_edit("extrinsic"), GENERATE,
     ["cal.json", "'extrinsic'"]),
    ("nan-extrinsic", "cal.json", _json_edit("extrinsic", 3, value=math.nan), GENERATE,
     ["cal.json", "NaN"]),
    ("huge-int-extrinsic", "cal.json", _json_edit("extrinsic", 3, value=10**400), GENERATE,
     ["cal.json", "too large"]),
    ("label-without-class", LABEL, _json_edit("objects", 0, "class"), REFINE,
     ["sample_000.json", "missing key 'class'"]),
    ("label-without-class-evaluate", LABEL, _json_edit("objects", 0, "class"), EVALUATE,
     ["sample_000.json", "missing key 'class'"]),
    ("label-with-list-id", LABEL, _json_edit("objects", 0, "id", value=["obj0"]), REFINE,
     ["sample_000.json", "'id'"]),
    ("label-with-wrong-class", LABEL, _json_edit("objects", 0, "class", value="table"), REFINE,
     ["sample_000.json", "'obj0'", "'table'"]),
    ("label-with-wrong-class-study", LABEL, _json_edit("objects", 0, "class", value="table"),
     STUDY, ["sample_000.json", "'obj0'", "'table'"]),
    ("label-without-id", LABEL, _json_edit("objects", 0, "id"), REFINE,
     ["sample_000.json", "None"]),
    ("label-with-2-dims", LABEL, _json_edit("objects", 0, "box3d_lidar", "dims", value=[1.0, 1.0]),
     REFINE, ["sample_000.json", "size 2"]),
    ("label-with-2-dims-evaluate", LABEL,
     _json_edit("objects", 0, "box3d_lidar", "dims", value=[1.0, 1.0]), EVALUATE,
     ["sample_000.json", "size 2"]),
    ("label-error-entry-evaluate", LABEL, _json_edit("objects", 0, "error", value="EmptyReadings: no beacon readings"),
     EVALUATE, ["sample_000.json", "no box3d_lidar"]),
    ("beacons-non-numeric", BEACONS, _field_edit(1, 2, "abc"), GENERATE,
     ["beacons.csv", "line 2", "abc"]),
    ("beacons-inf", BEACONS, _field_edit(3, 4, "inf"), GENERATE,
     ["beacons.csv", "line 4", "non-finite"]),
    ("robot-beacons-inf", "ds/calibration/robot_beacons.csv", _field_edit(2, 3, "-inf"), CALIBRATE,
     ["robot_beacons.csv", "line 3"]),
    ("correspondences-non-numeric", "ds/calibration/correspondences.csv", _field_edit(5, 3, "1.0.0"),
     CALIBRATE, ["correspondences.csv", "line 6"]),
    # 7 header lines, then 10 vertex rows; line 18 is the first row past them
    ("ply-longer-than-its-header", CLOUD, lambda t: re.sub(r"element vertex \d+", "element vertex 10", t),
     REFINE, ["cloud.ply", "line 18"]),
]

BAD_FLAGS = [
    (["simulate", "--out", "{o}", "--samples", "0"], "--samples"),
    ([*STUDY[:-4], "--trials", "0", "--out", "{o}"], "--trials"),
    ([*STUDY, "--proportions", "abc"], "--proportions"),
    ([*STUDY, "--proportions", "0.5,1.5"], "--proportions"),
    ([*CALIBRATE, "--delta-px", "0"], "--delta-px"),
    ([*CALIBRATE, "--delta-px", "nan"], "--delta-px"),
    ([*CALIBRATE, "--iterations", "0"], "--iterations"),
    (["--seed", "-2", "simulate", "--out", "{o}", "--samples", "1"], "--seed"),
]


def _run_in_copy(small_run, tmp_path, argv):
    d = tmp_path / "in"
    shutil.copytree(small_run, d)
    out = tmp_path / "out"
    code, _, err = run_cli([a.format(d=d, o=out) for a in argv])
    return d, out, code, err


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "rel, mutate, argv, names", [case[1:] for case in MALFORMED_INPUTS],
        ids=[case[0] for case in MALFORMED_INPUTS],
    )
    def test_exits_2_naming_the_file(self, small_run, tmp_path, rel, mutate, argv, names):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        path = d / rel
        path.write_text(mutate(_as_text(path)))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in argv])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err
        for name in names:
            assert name in err
        assert not out.exists()

    def test_nan_in_the_binary_cloud_exits_2_naming_it(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        path = d / CLOUD
        points = read_ply(path.read_bytes()).points.copy()
        points[9, 0] = math.nan
        path.write_bytes(write_ply(PointCloud(points)))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in REFINE])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err and "vertex 9" in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", BAD_FLAGS, ids=[flag for _, flag in BAD_FLAGS])
    def test_bad_flag_exits_2_naming_the_flag(self, small_run, tmp_path, argv, flag):
        _, out, code, err = _run_in_copy(small_run, tmp_path, argv)
        assert code == 2
        assert "error:" in err and f"argument {flag}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [GENERATE, REFINE, [*REFINE[:-1], "{d}/labels"]],
        ids=["generate", "refine", "refine-in-place"],
    )
    def test_non_empty_out_exits_2_writing_nothing(self, small_run, tmp_path, argv):
        # label files written beside an earlier run's would be read as one set
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        argv = [a.format(d=d, o=tmp_path / "out") for a in argv]
        out = argv[-1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "sample_001.json"), "w") as fh:
            fh.write("{}")
        before = tree_digest(d), tree_digest(out)
        code, _, err = run_cli(argv)
        assert code == 2
        assert err.startswith("error: ") and out in err and "Traceback" not in err
        assert (tree_digest(d), tree_digest(out)) == before

    def test_label_file_of_no_dataset_sample_exits_2(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        stray = d / "labels" / "sample_005.json"
        shutil.copy(d / LABEL, stray)
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in REFINE])
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(stray) in err and str(d / "ds") in err
        assert not out.exists()

    def test_averaging_flag_is_gone(self, small_run, tmp_path):
        _, out, code, err = _run_in_copy(small_run, tmp_path, [*CALIBRATE, "--averaging-n", "16"])
        assert code == 2
        assert "error:" in err and "--averaging-n" in err and "Traceback" not in err
        assert not out.exists()

    def test_study_on_a_class_without_proposals_exits_2_naming_it(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        for rel, mutate in (
            ("ds/manifest.json", _json_edit("scene", "objects", 0, "class", value="sofa")),
            (LABEL, _json_edit("objects", 0, "class", value="sofa")),
        ):
            (d / rel).write_text(mutate((d / rel).read_text()))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in STUDY])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "'sofa'" in err and "cabinet_two_point_face" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_permuted_ply_columns_give_identical_refined_labels(self, small_run, tmp_path, fmt):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        ply = d / CLOUD
        data = ply.read_bytes()
        if fmt == "ascii":
            lines = ascii_ply(read_ply(data).points).splitlines()
            header, body = lines[:7], lines[7:]
            assert header[3:6] == ["property double x", "property double y", "property double z"]
            header[3:6] = ["property double z", "property double x", "property double y"]
            body = [" ".join((z, x, y)) for x, y, z in (row.split() for row in body)]
            ply.write_text("\n".join(header + body) + "\n")
        else:
            xyz = b"property double x\nproperty double y\nproperty double z\n"
            header, end, body = data.partition(b"end_header\n")
            assert xyz in header
            header = header.replace(xyz, b"property double z\nproperty double x\nproperty double y\n")
            body = np.frombuffer(body, "<f8").reshape(-1, 3)[:, [2, 0, 1]]
            ply.write_bytes(header + end + body.astype("<f8").tobytes())
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("refine: {iterations: 300}\n")
        outs = []
        for root in (small_run, d):
            out = str(tmp_path / f"refined_{len(outs)}")
            code, _, err = run_cli(
                ["--config", str(cfg), "--seed", "3", "refine", "--dataset", str(root / "ds"),
                 "--labels", str(root / "labels"), "--out", out]
            )
            assert code == 0, err
            outs.append(tree_digest(out))
        assert outs[0] == outs[1]

    def test_object_without_beacon_rows_gets_an_error_entry(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        beacons = d / BEACONS
        beacons.write_text("".join(
            line for line in beacons.read_text().splitlines(keepends=True)
            if not line.startswith("obj1,")
        ))
        labels, refined = tmp_path / "labels", tmp_path / "refined"
        code, _, err = run_cli(["generate", "--dataset", str(d / "ds"), "--calibration",
                                str(d / "cal.json"), "--out", str(labels)])
        assert code == 0, err
        entry = json.loads(read(labels / "sample_000.json"))["objects"][1]
        assert entry == {"id": "obj1", "class": "table", "error": "EmptyReadings: no beacon readings"}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("refine: {iterations: 50}\n")
        code, _, err = run_cli(["--config", str(cfg), "refine", "--dataset", str(d / "ds"),
                                "--labels", str(labels), "--out", str(refined)])
        assert code == 0, err
        assert json.loads(read(refined / "sample_000.json"))["objects"][1] == entry

    def test_cloud_without_a_ground_plane_keeps_every_unrefined_entry(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        points = np.random.default_rng(3).uniform(0, 5, (3000, 3))
        (d / CLOUD).write_bytes(write_ply(PointCloud(points)))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in REFINE])
        assert code == 0, err
        unrefined = json.loads(read(d / LABEL))["objects"]
        refined = json.loads(read(out / "sample_000.json"))["objects"]
        assert len(refined) == len(unrefined) == 2
        for before, after in zip(unrefined, refined):
            assert after.pop("refine_error").startswith("NoPlaneFound: ")
            assert after == before

    @pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug")])
    def test_a_bug_propagates_instead_of_exiting_2(self, monkeypatch, tmp_path, error):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "generate_dataset", broken)
        with pytest.raises(type(error), match="a bug"):
            main(["simulate", "--out", str(tmp_path / "ds"), "--samples", "1"])
