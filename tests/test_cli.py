"""End-to-end command-line pipeline: simulate, calibrate, generate, refine, evaluate."""

import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import ipslabel
from ipslabel.cli import _extrinsic_from_report
from ipslabel.eval import compare_labels

from .conftest import FIXTURES, run_cli, tree_digest

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
    ("collection: {averaging_n: 0}", "averaging_n"),
    ("scene: {beacon_noise: abc}", "scene.beacon_noise"),
    ("refine: {seed: 3}", "seed"),
    ("sede: 4", "sede"),
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

    def test_unknown_class_is_a_usage_error(self, pipeline, tmp_path):
        labels = tmp_path / "weird"
        labels.mkdir()
        doc = json.loads(read(os.path.join(pipeline["labels"], "sample_000.json")))
        doc["objects"][0]["class"] = "sofa"
        (labels / "sample_000.json").write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["refine", "--dataset", pipeline["dataset"], "--labels", str(labels),
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
