"""End-to-end command-line pipeline: simulate, calibrate, generate, refine, evaluate."""

import concurrent.futures
import json
import math
import os
import platform
import re
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import ipslabel
from ipslabel import sim
from ipslabel.cli import main
from ipslabel.cloud import read_ply, write_ply
from ipslabel.config import RefineConfig, SceneConfig, _manifest_rig, load_config
from ipslabel.eval import compare_labels
from ipslabel.fileio import to_dict
from ipslabel.geom import BeaconPair, beacons_csv, inverse, parse_beacons_csv
from ipslabel.labelgen import OrientedBox3, _extrinsic_from_report, project_box, write_labels
from ipslabel.refine import write_refined_labels

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


def run_python(args, timeout=60, **env):
    """Run ``python *args`` in a new interpreter that imports this ipslabel."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ipslabel.__file__)))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


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

    def test_mounts_at_the_edge_of_the_orthonormality_tolerance_simulate(self, tmp_path):
        # each default mount rotation scaled by 1 + 4.5e-10 has |R^T R - I| =
        # 9e-10, inside the 1e-9 check; the simulator's chain composes the two
        lines = ["scene:"]
        for key in ("cam_from_robot", "lidar_from_cam"):
            mount = to_dict(getattr(SceneConfig(), key))
            rows = ", ".join(
                "[" + ", ".join(f"{(1 + 4.5e-10) * x:.17e}" for x in row) + "]"
                for row in mount["rotation"]
            )
            lines.append(f"  {key}: {{rotation: [{rows}], translation: {mount['translation']}}}")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "ds")
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--out", out, "--samples", "1"])
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

    def test_an_id_with_a_lone_surrogate_is_a_usage_error(self, tmp_path):
        # beacons.csv is UTF-8, which has no lone surrogate: rejected before any file is written
        cfg = tmp_path / "cfg.json"
        obj = {**to_dict(SceneConfig().objects[0]), "id": "\ud800"}
        cfg.write_text(json.dumps({"scene": {"objects": [obj]}}))
        out = tmp_path / "ds"
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--out", str(out), "--samples", "1"])
        assert code == 2, err
        assert err.startswith("error: scene: ") and "'\\ud800'" in err and "Traceback" not in err
        assert not out.exists()

    def test_a_scene_at_the_edge_of_its_reach_runs_every_stage(self, tmp_path):
        # every number that the stages write of this scene is within the
        # readers' bound of 10**6; the largest is about 999,981
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"floor_z": 999980.0}}))
        d = str(tmp_path)
        for argv in (
            ["simulate", "--out", f"{d}/ds", "--samples", "1"],
            ["calibrate", "--dataset", f"{d}/ds", "--iterations", "300", "--out", f"{d}/cal.json"],
            ["generate", "--dataset", f"{d}/ds", "--calibration", f"{d}/cal.json", "--out", f"{d}/labels"],
            ["refine", "--dataset", f"{d}/ds", "--labels", f"{d}/labels", "--out", f"{d}/refined"],
            ["evaluate", "--auto", f"{d}/refined", "--reference", f"{d}/ds/truth", "--out", f"{d}/rep.json"],
        ):
            code, _, err = run_cli(["--config", str(cfg), *argv])
            assert code == 0, (argv[0], err)

    def test_calibration_pixels_beyond_the_bound_write_nothing(self, tmp_path):
        # calibrate reads no pixel beyond 10**6, and noise of this size puts one there
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"pixel_noise_sigma": 1e6}}))
        out = tmp_path / "ds"
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--out", str(out), "--samples", "1"])
        assert code == 2, err
        assert err.startswith("error: correspondence CSV line ") and "Traceback" not in err
        assert "beyond 1,000,000" in err
        assert not out.exists()

    def test_a_scene_beyond_the_bound_writes_nothing(self, tmp_path):
        # its beacons and calibration points lie beyond the readers' bound of 10**6
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scene: {objects: [" + _OBJECT.replace("x: 4.0", "x: 999999.9") + "]}\n")
        out = tmp_path / "ds"
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--out", str(out), "--samples", "1"])
        assert code == 2, err
        assert err.startswith("error: ") and "beyond 1,000,000" in err and "Traceback" not in err
        assert not out.exists()

    def test_a_sample_beyond_the_bound_writes_nothing(self, tmp_path):
        # the calibration set lies within the readers' bound of 10**6, but the
        # beacons atop the first object, line 4 of the first sample's
        # beacons.csv, do not: that sample's cloud is not written either
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"floor_z": 999999.0}}))
        out = tmp_path / "ds"
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--out", str(out), "--samples", "2"])
        assert code == 2, err
        assert err.startswith("error: beacon CSV line 4: ") and "Traceback" not in err
        assert not out.exists()

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

    def test_jobs_load_no_pool_and_do_not_change_output(self, tmp_path):
        # simulate runs in one process whatever --jobs says, one sample at a time
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        code, _, err = run_cli(["--seed", "3", "simulate", "--out", a, "--samples", "2"])
        assert code == 0, err
        probe = (
            "import sys; from ipslabel.cli import main; code = main(sys.argv[1:]); "
            "print('concurrent.futures' in sys.modules); sys.exit(code)"
        )
        proc = run_python(["-c", probe, "--seed", "3", "--jobs", "2", "simulate", "--out", b,
                           "--samples", "2"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert tree_digest(b) == tree_digest(a)

    def test_missing_config_file_is_an_io_error(self, tmp_path):
        code, _, err = run_cli(["--config", str(tmp_path / "nope.yaml"), "simulate", "--out", str(tmp_path / "d"), "--samples", "1"])
        assert code == 3
        assert "i/o error" in err


_OBJECT = "{id: obj0, class: cabinet, dims: [0.9, 0.5, 1.3], x: 4.0, y: 0.9, yaw: 0.4}"

MALFORMED_CONFIGS = [
    # (config text, key the error must name; a YAML error's mark names the file {cfg})
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
    ("scene: {objects: [" + _OBJECT + ", " + _OBJECT + "]}", "scene: object ids must be unique"),
    ("seed: 1\nseed: 2", "duplicate key 'seed'\n  in \"{cfg}\", line 2, column 1"),
    ("scene: {objects: [" + _OBJECT[:-1] + ", x: 4.0}]}", "duplicate key 'x'\n  in \"{cfg}\", line 1"),
    ("seed: [1", "but got '<stream end>'\n  in \"{cfg}\", line 2, column 1"),
    ("scene: {objects: [" + _OBJECT[:-1] + ", beacon_sep: 0.001}]}", "scene.objects[0]: beacon_sep"),
    ("scene: {robot_beacon_sep: -0.4}", "scene: robot_beacon_sep"),
    ("scene: {intrinsics: {fx: 500, fy: 500, cx: 320, cy: 240, width: 1000001, height: 480}}",
     "scene.intrinsics: image size must be positive, at most 1,000,000 px"),
]

# Runs a CLI stage with the arguments that follow -c, then prints the numpy and
# ipslabel.* modules it loaded on its last line.
STAGE_PROBE = """
import sys
from ipslabel.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:  # --version and --help
    code = e.code
print(" ".join(sorted(m for m in sys.modules if m == "numpy" or m.startswith("ipslabel."))))
sys.exit(code)
"""

# (id, argv on the small_run directory {d}, ipslabel modules the run must not
# load); None stands for numpy and every module but cli and errors
STAGE_IMPORTS = [
    ("version", ["--version"], None),
    ("help", ["--help"], None),
    ("simulate", ["simulate", "--out", "{o}", "--samples", "1"], {"refine", "eval"}),
    ("calibrate", ["calibrate", "--dataset", "{d}/ds", "--iterations", "20", "--out", "{o}"],
     {"sim", "labelgen", "refine", "eval", "cloud"}),
    ("generate", ["generate", "--dataset", "{d}/ds", "--calibration", "{d}/cal.json", "--out", "{o}"],
     {"sim", "calib", "refine", "eval", "cloud"}),
    ("refine", ["refine", "--dataset", "{d}/ds", "--labels", "{d}/labels", "--out", "{o}"],
     {"sim", "calib", "eval"}),
    ("evaluate", ["evaluate", "--auto", "{d}/labels", "--reference", "{d}/ds/truth", "--out", "{o}"],
     {"sim", "calib", "refine", "cloud"}),
]

# Runs a CLI stage with the arguments that follow -c, then prints whether it
# loaded PyYAML on its last line.
YAML_PROBE = """
import sys
from ipslabel.cli import main
code = main(sys.argv[1:])
print("yaml" in sys.modules)
sys.exit(code)
"""

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
        assert "error:" in err and key.format(cfg=cfg) in err
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
        proc = run_python(
            ["-m", "ipslabel.cli", "--config", str(cfg), "simulate", "--out", str(out),
             "--samples", "1"]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: scene.cam_from_robot")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_importing_the_cli_loads_neither_yaml_nor_a_process_pool(self):
        # every stage, --version included, pays for what the CLI imports;
        # yaml is loaded by a config file that is not strict JSON, and the pool by
        # refine --jobs > 1
        probe = "import sys, ipslabel.cli; print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))"
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_importing_the_package_loads_none_of_its_modules(self):
        # the package re-exports nothing, so a stage loads only what it imports
        probe = "import sys, ipslabel; print(sorted(m for m in sys.modules if m.startswith('ipslabel.')))"
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv, unloaded", [case[1:] for case in STAGE_IMPORTS],
        ids=[case[0] for case in STAGE_IMPORTS],
    )
    def test_a_stage_loads_only_the_modules_it_runs(self, small_run, tmp_path, argv, unloaded):
        argv = [a.format(d=small_run, o=tmp_path / "out") for a in argv]
        proc = run_python(["-c", STAGE_PROBE, *argv])
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        if unloaded is None:
            assert loaded <= {"ipslabel.cli", "ipslabel.errors"}
        else:
            assert not loaded & {f"ipslabel.{name}" for name in unloaded}

    def test_a_json_config_loads_no_yaml_and_reads_as_its_yaml_twin(self, small_run, tmp_path):
        # strict JSON is read by json; the same config written as YAML needs PyYAML
        reports = {}
        for name, text, loads_yaml in [
            ("cfg.json", '{"calibration": {"delta_px": 4.0, "iterations": 20}}', "False"),
            ("cfg.yaml", "calibration:\n  delta_px: 4.0\n  iterations: 20\n", "True"),
        ]:
            cfg, out = tmp_path / name, tmp_path / f"{name}.cal.json"
            cfg.write_text(text)
            argv = ["--config", str(cfg), "calibrate", "--dataset", f"{small_run}/ds", "--out", str(out)]
            proc = run_python(["-c", YAML_PROBE, *argv])
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == loads_yaml
            reports[name] = read(out)
        assert reports["cfg.json"] == reports["cfg.yaml"]
        assert json.loads(reports["cfg.json"])["delta_px"] == 4.0

    def test_a_json_exponent_is_a_number_and_a_yaml_one_a_string(self, small_run, tmp_path):
        # JSON reads 4e-2 as 0.04; YAML 1.1 reads a number with no "." as a string
        refined = {}
        for name, text in [
            ("cfg.json", '{"refine": {"shell_delta": 4e-2}}'),
            ("twin.yaml", "refine: {shell_delta: 0.04}\n"),
            ("cfg.yaml", "refine: {shell_delta: 4e-2}\n"),
        ]:
            cfg, out = tmp_path / name, tmp_path / f"{name}.refined"
            cfg.write_text(text)
            code, _, err = run_cli([
                "--config", str(cfg), "refine", "--dataset", f"{small_run}/ds",
                "--labels", f"{small_run}/labels", "--out", str(out),
            ])
            if name == "cfg.yaml":
                assert code == 2
                assert "error: refine.shell_delta: expected a finite number, got '4e-2'" in err
                assert not out.exists()
            else:
                assert code == 0, err
                refined[name] = tree_digest(out)
        assert refined["cfg.json"] == refined["twin.yaml"]
        assert load_config(str(tmp_path / "cfg.json")).refine.shell_delta == 0.04

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
        proc = run_python(
            ["-m", "ipslabel.cli", "--seed", "20", "calibrate", *CAL_FLAGS, mode, "--out", out],
            timeout=300,
            OPENBLAS_CORETYPE=coretype,
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
        rig = _manifest_rig(os.path.join(pipeline["dataset"], "manifest.json"))
        cam_from_lidar = inverse(rig.lidar_from_cam)
        entries = [
            e for f in sorted(os.listdir(pipeline["refined"]))
            for e in json.loads(read(os.path.join(pipeline["refined"], f)))["objects"]
        ]
        assert entries and all(e["refined"] is True for e in entries)
        for entry in entries:
            box = OrientedBox3.from_dict(entry["box3d_lidar"])
            box2, truncated, behind = project_box(cam_from_lidar.apply(box.vertices()), rig.intrinsics)
            assert entry["box2d"] == to_dict(box2)
            assert entry["truncated"] == truncated
            assert entry["behind_camera_vertices"] == behind

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "labels2")
        code, _, err = run_cli(
            ["generate", "--dataset", pipeline["dataset"], "--calibration", pipeline["cal"], "--out", again]
        )
        assert code == 0, err
        assert tree_digest(again) == tree_digest(pipeline["labels"])

    def test_jobs_do_not_change_output(self, pipeline, tmp_path):
        # generate runs in one process whatever --jobs says: a sample's labels
        # take about a millisecond, less than a worker's start-up
        par = str(tmp_path / "labels_par")
        probe = (
            "import sys; from ipslabel.cli import main; code = main(sys.argv[1:]); "
            "print('concurrent.futures.process' in sys.modules); sys.exit(code)"
        )
        proc = run_python(["-c", probe, "--jobs", "2", "generate", "--dataset", pipeline["dataset"],
                           "--calibration", pipeline["cal"], "--out", par])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert len(os.listdir(par)) >= 2
        assert tree_digest(par) == tree_digest(pipeline["labels"])

    def test_a_bad_sample_writes_no_label_file(self, noisy_dataset, pipeline, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(noisy_dataset, ds)
        last = sorted(os.listdir(ds / "samples"))[-1]
        (ds / "samples" / last / "beacons.csv").write_text("frame\n")
        out = tmp_path / "labels"
        code, _, err = run_cli(
            ["generate", "--dataset", str(ds), "--calibration", pipeline["cal"], "--out", str(out)]
        )
        assert code == 2, err
        assert last in err
        assert not out.exists()

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
                assert not np.array_equal(rs[0].front, rs[1].front)
            mean = {
                frame: [BeaconPair(
                    np.mean([r.front for r in rs], axis=0),
                    np.mean([r.rear for r in rs], axis=0),
                )]
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

    def test_a_bad_label_file_writes_no_label_file(self, pipeline, tmp_path):
        # every file is refined before the first is written, so the good file
        # sorted before the bad one is not written either
        labels, out = tmp_path / "labels", tmp_path / "refined"
        labels.mkdir()
        out.mkdir()
        shutil.copy(os.path.join(pipeline["labels"], "sample_000.json"), labels)
        doc = json.loads(read(os.path.join(pipeline["labels"], "sample_001.json")))
        doc["objects"][0]["id"] = "obj9"
        (labels / "sample_001.json").write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["--config", pipeline["cfg"], "--seed", "9", "--jobs", "1", "refine",
             "--dataset", pipeline["dataset"], "--labels", str(labels), "--out", str(out)]
        )
        assert code == 2
        assert "'obj9'" in err and "names no manifest object" in err
        assert os.listdir(out) == []

    def test_unknown_class_is_a_usage_error(self, pipeline, tmp_path):
        # refine takes the class from the manifest object the label names,
        # so the manifest and the label both call obj0 a sofa
        dataset = tmp_path / "ds"
        shutil.copytree(pipeline["dataset"], dataset)
        manifest = json.loads(read(dataset / "manifest.json"))
        manifest["rig"]["objects"]["obj0"]["class"] = "sofa"
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


def _repeat_key(key, value):
    """Give a JSON document's top-level mapping ``key`` a second time, first."""

    def mutate(text):
        return text.replace("{", "{" + json.dumps(key) + ": " + json.dumps(value) + ", ", 1)

    return mutate


def _rename_rig_object(old, new):
    """Rename a manifest rig object, keeping its class and dims."""
    def rename(objects):
        return {new if k == old else k: v for k, v in objects.items()}

    return _json_edit("rig", "objects", value=rename)


def _v1_manifest(text):
    """The manifest as the v1 format wrote it: a simulator scene and no rig."""
    return _json_edit("rig")(_json_edit("format", value="ipslabel-dataset-v1")(text))


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
        return ascii_ply(read_ply(path.read_bytes()))
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
    ("manifest-without-rig", "ds/manifest.json", _json_edit("rig"), REFINE,
     ["manifest.json", "'rig'"]),
    ("v1-manifest", "ds/manifest.json", _v1_manifest, GENERATE, ["manifest.json", "'rig'"]),
    ("v1-manifest-calibrate", "ds/manifest.json", _v1_manifest, CALIBRATE,
     ["manifest.json", "'rig'"]),
    ("manifest-bad-rig", "ds/manifest.json",
     _json_edit("rig", "objects", "obj0", "dims", 1, value=0.0), GENERATE,
     ["manifest.json", "rig.objects.obj0", "positive"]),
    # positive, but a box that small has a dim of 0 once it is rotated
    ("tiny-rig-dim", "ds/manifest.json",
     _json_edit("rig", "objects", "obj0", "dims", 2, value=1e-300), GENERATE,
     ["manifest.json", "rig.objects.obj0", "at least 0.001 m"]),
    ("subnormal-rig-dim", "ds/manifest.json",
     _json_edit("rig", "objects", "obj0", "dims", 2, value=1e-320), GENERATE,
     ["manifest.json", "rig.objects.obj0", "at least 0.001 m"]),
    ("subnormal-focal-length", "ds/manifest.json",
     _json_edit("rig", "intrinsics", "fy", value=1e-320), CALIBRATE,
     ["manifest.json", "rig.intrinsics", "at least 0.001 px"]),
    ("rig-object-robot", "ds/manifest.json", _rename_rig_object("obj0", "robot"), GENERATE,
     ["manifest.json", "rig: objects", "'robot'"]),
    ("rig-object-id-with-comma", "ds/manifest.json", _rename_rig_object("obj1", "obj,1"), REFINE,
     ["manifest.json", "rig: objects", "'obj,1'"]),
    ("rig-without-objects", "ds/manifest.json", _json_edit("rig", "objects", value={}), STUDY,
     ["manifest.json", "rig: objects", "at least one object"]),
    ("manifest-with-repeated-key", "ds/manifest.json", _repeat_key("seed", 7), GENERATE,
     ["manifest.json", "duplicate key 'seed'"]),
    ("manifest-with-duplicate-ids", "ds/manifest.json",
     lambda t: t.replace('"obj1": {', '"obj0": {', 1), REFINE,
     ["manifest.json", "duplicate key 'obj0'"]),
    ("non-orthonormal-extrinsic", "cal.json", _json_edit("extrinsic", 0, value=lambda v: 2 * v),
     GENERATE, ["cal.json", "orthonormal"]),
    ("report-with-repeated-key", "cal.json", _repeat_key("inliers", []), GENERATE,
     ["cal.json", "duplicate key 'inliers'"]),
    ("missing-extrinsic", "cal.json", _json_edit("extrinsic"), GENERATE,
     ["cal.json", "'extrinsic'"]),
    ("nan-extrinsic", "cal.json", _json_edit("extrinsic", 3, value=math.nan), GENERATE,
     ["cal.json", "NaN"]),
    ("huge-int-extrinsic", "cal.json", _json_edit("extrinsic", 3, value=10**400), GENERATE,
     ["cal.json", "extrinsic[3]", "a finite number"]),
    ("huge-extrinsic", "cal.json", _json_edit("extrinsic", 3, value=1e308), GENERATE,
     ["cal.json", "extrinsic[3]", "magnitude at most 1,000,000"]),
    ("string-extrinsic", "cal.json", _json_edit("extrinsic", 3, value=str), GENERATE,
     ["cal.json", "extrinsic[3]", "a finite number"]),
    ("15-entry-extrinsic", "cal.json", _json_edit("extrinsic", value=lambda v: v[:15]), GENERATE,
     ["cal.json", "extrinsic: expected a list of 16"]),
    ("label-with-repeated-key", LABEL, _repeat_key("sample", "sample_000"), REFINE,
     ["sample_000.json", "duplicate key 'sample'"]),
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
     REFINE, ["sample_000.json", "objects[0].box3d_lidar.dims", "a list of 3"]),
    ("label-with-2-dims-evaluate", LABEL,
     _json_edit("objects", 0, "box3d_lidar", "dims", value=[1.0, 1.0]), EVALUATE,
     ["sample_000.json", "objects[0].box3d_lidar.dims", "a list of 3"]),
    ("label-with-string-yaw", LABEL, _json_edit("objects", 0, "box3d_lidar", "yaw", value=str),
     REFINE, ["sample_000.json", "objects[0].box3d_lidar.yaw", "a finite number"]),
    ("label-with-string-yaw-evaluate", LABEL,
     _json_edit("objects", 0, "box3d_lidar", "yaw", value=str), EVALUATE,
     ["sample_000.json", "objects[0].box3d_lidar.yaw", "a finite number"]),
    ("label-box-with-unknown-key", LABEL, _json_edit("objects", 0, "box3d_lidar", "pitch", value=0.0),
     REFINE, ["sample_000.json", "objects[0].box3d_lidar", "'pitch'"]),
    ("label-with-bool-u0-evaluate", LABEL, _json_edit("objects", 0, "box2d", "u0", value=False),
     EVALUATE, ["sample_000.json", "objects[0].box2d.u0", "a finite number"]),
    ("label-error-entry-evaluate", LABEL, _json_edit("objects", 0, "error", value="EmptyReadings: no beacon readings"),
     EVALUATE, ["sample_000.json", "no box3d_lidar"]),
    ("beacons-non-numeric", BEACONS, _field_edit(1, 2, "abc"), GENERATE,
     ["beacons.csv", "line 2", "abc"]),
    ("beacons-inf", BEACONS, _field_edit(3, 4, "inf"), GENERATE,
     ["beacons.csv", "line 4", "non-finite"]),
    # finite, but the pair's length axis would be vertical
    ("beacons-huge", BEACONS, _field_edit(3, 4, "1e30"), GENERATE,
     ["beacons.csv", "line 4", "magnitude over 1,000,000"]),
    # a mistyped frame would leave obj0 without readings and say nothing of why
    ("beacons-unknown-frame", BEACONS, lambda t: t.replace("\nobj0,", "\nob0,"), GENERATE,
     ["beacons.csv", "['ob0']", "rig object"]),
    ("robot-beacons-inf", "ds/calibration/robot_beacons.csv", _field_edit(2, 3, "-inf"), CALIBRATE,
     ["robot_beacons.csv", "line 3"]),
    # the calibration file holds the robot's readings only; rows of another frame are no input
    ("robot-beacons-object-frame", "ds/calibration/robot_beacons.csv",
     lambda t: t + "".join(f"obj0{row[len('robot'):]}\n" for row in t.splitlines()[-2:]), CALIBRATE,
     ["robot_beacons.csv", "['obj0']", "not 'robot'"]),
    ("correspondences-non-numeric", "ds/calibration/correspondences.csv", _field_edit(5, 3, "1.0.0"),
     CALIBRATE, ["correspondences.csv", "line 6"]),
    # 7 header lines, then 10 vertex rows; line 18 is the first row past them
    ("ply-longer-than-its-header", CLOUD, lambda t: re.sub(r"element vertex \d+", "element vertex 10", t),
     REFINE, ["cloud.ply", "line 18"]),
]

# (id, {path: its corruption, or None to delete it}, argv, directory the
# error must name): a stage that would label or compare nothing exits 2
NO_OBJECTS = _json_edit("objects", value=[])
NOTHING_TO_LABEL = [
    ("generate-without-samples", {"ds/samples/sample_000": None}, GENERATE, "{d}/ds/samples"),
    ("refine-without-label-files", {LABEL: None}, REFINE, "{d}/labels"),
    ("refine-on-the-samples-dir", {},
     ["refine", "--dataset", "{d}/ds", "--labels", "{d}/ds/samples", "--out", "{o}"],
     "{d}/ds/samples"),
    ("evaluate-without-objects", {LABEL: NO_OBJECTS, "ds/truth/sample_000.json": NO_OBJECTS},
     EVALUATE, "{d}/ds/truth"),
]

BAD_FLAGS = [
    (["simulate", "--out", "{o}", "--samples", "0"], "--samples"),
    ([*STUDY[:-4], "--trials", "0", "--out", "{o}"], "--trials"),
    ([*STUDY, "--proportions", "abc"], "--proportions"),
    ([*STUDY, "--proportions", "0.5,1.5"], "--proportions"),
    ([*CALIBRATE, "--delta-px", "0"], "--delta-px"),
    ([*CALIBRATE, "--delta-px", "nan"], "--delta-px"),
    ([*CALIBRATE, "--delta-px", "1e300"], "--delta-px"),  # beyond what a config may give
    ([*CALIBRATE, "--iterations", "0"], "--iterations"),
    (["--seed", "-2", "simulate", "--out", "{o}", "--samples", "1"], "--seed"),
]


def _run_in_copy(small_run, tmp_path, argv):
    d = tmp_path / "in"
    shutil.copytree(small_run, d)
    out = tmp_path / "out"
    code, _, err = run_cli([a.format(d=d, o=out) for a in argv])
    return d, out, code, err


def test_stages_read_only_the_rig_of_the_manifest(small_run, tmp_path):
    """calibrate, generate, refine and the study write the same files from a
    dataset without the simulator's record: no manifest scene or
    calibration_truth, and no truth/."""
    rig_only = tmp_path / "rig_only"
    shutil.copytree(small_run / "ds", rig_only)
    shutil.rmtree(rig_only / "truth")
    manifest = json.loads(read(rig_only / "manifest.json"))
    del manifest["scene"], manifest["calibration_truth"]
    (rig_only / "manifest.json").write_text(json.dumps(manifest))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("refine: {iterations: 300}\n")
    digests = []
    for ds in (small_run / "ds", rig_only):
        out = tmp_path / f"out_{len(digests)}"
        for argv in (
            ["calibrate", "--dataset", ds, "--iterations", "300", "--out", out / "cal.json"],
            ["generate", "--dataset", ds, "--calibration", out / "cal.json", "--out", out / "labels"],
            ["refine", "--dataset", ds, "--labels", out / "labels", "--out", out / "refined"],
            ["evaluate", "--study", "downsample", "--dataset", ds, "--labels", out / "labels",
             "--sample", "sample_000", "--trials", "1", "--out", out / "study.json"],
        ):
            code, _, err = run_cli(["--config", str(cfg), "--seed", "7", *map(str, argv)])
            assert code == 0, err
        digests.append(tree_digest(out))
    assert set(digests[0]) == {
        "cal.json", "labels/sample_000.json", "refined/sample_000.json", "study.json"
    }
    assert digests[0] == digests[1]


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
        points = read_ply(path.read_bytes()).copy()
        points[9, 0] = math.nan
        path.write_bytes(write_ply(points))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in REFINE])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err and "vertex 9" in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edits, argv, named", [case[1:] for case in NOTHING_TO_LABEL],
        ids=[case[0] for case in NOTHING_TO_LABEL],
    )
    def test_stage_with_nothing_to_label_exits_2_naming_the_dir(
        self, small_run, tmp_path, edits, argv, named
    ):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        for rel, mutate in edits.items():
            path = d / rel
            if mutate is not None:
                path.write_text(mutate(path.read_text()))
            else:
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in argv])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert named.format(d=d) in err
        assert not out.exists()

    def test_a_report_that_puts_a_label_beyond_the_bound_writes_nothing(self, small_run, tmp_path):
        # each extrinsic entry is within the bound, but a box centre in the LiDAR frame is not
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        report = d / "cal.json"
        edits = (_json_edit("extrinsic", 7, value=-999999.0), _json_edit("extrinsic", 11, value=999999.0))
        for edit in edits:
            report.write_text(edit(report.read_text()))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in GENERATE])
        assert code == 2, err
        assert err.startswith("error: objects[") and "Traceback" not in err
        assert ".box3d_lidar.center[" in err and "beyond 1,000,000" in err
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
            ("ds/manifest.json", _json_edit("rig", "objects", "obj0", "class", value="sofa")),
            (LABEL, _json_edit("objects", 0, "class", value="sofa")),
        ):
            (d / rel).write_text(mutate((d / rel).read_text()))
        out = tmp_path / "out"
        code, _, err = run_cli([a.format(d=d, o=out) for a in STUDY])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "'sofa'" in err and "cabinet_two_point_face" in err
        assert not out.exists()

    @staticmethod
    def _refines_as_the_original(small_run, d, tmp_path):
        """Whether ``refine`` writes the same files on the copy ``d`` of
        ``small_run`` as on ``small_run`` itself."""
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
        return outs[0] == outs[1]

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_permuted_ply_columns_give_identical_refined_labels(self, small_run, tmp_path, fmt):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        ply = d / CLOUD
        data = ply.read_bytes()
        if fmt == "ascii":
            lines = ascii_ply(read_ply(data)).splitlines()
            header, body = lines[:7], lines[7:]
            assert header[3:6] == ["property double x", "property double y", "property double z"]
            header[3:6] = ["property double z", "property double x", "property double y"]
            body = [" ".join((z, x, y)) for x, y, z in (row.split() for row in body)]
            ply.write_text("\n".join(header + body) + "\n")
        else:
            xyz = b"property float x\nproperty float y\nproperty float z\n"
            header, end, body = data.partition(b"end_header\n")
            assert xyz in header
            header = header.replace(xyz, b"property float z\nproperty float x\nproperty float y\n")
            body = np.frombuffer(body, "<f4").reshape(-1, 3)[:, [2, 0, 1]]
            ply.write_bytes(header + end + body.astype("<f4").tobytes())
        assert self._refines_as_the_original(small_run, d, tmp_path)

    def test_ply_fields_beside_xyz_give_identical_refined_labels(self, small_run, tmp_path):
        # a LiDAR driver's layout: intensity, ring and time beside the points
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        ply = d / CLOUD
        xyz = b"property float x\nproperty float y\nproperty float z\n"
        header, end, body = ply.read_bytes().partition(b"end_header\n")
        assert xyz in header
        header = header.replace(xyz, b"property float x\nproperty uchar intensity\nproperty float y\n"
                                     b"property ushort ring\nproperty float z\nproperty double time\n")
        points = np.frombuffer(body, "<f4").reshape(-1, 3)
        records = np.zeros(len(points), [("x", "<f4"), ("intensity", "u1"), ("y", "<f4"),
                                         ("ring", "<u2"), ("z", "<f4"), ("time", "<f8")])
        for i, axis in enumerate("xyz"):
            records[axis] = points[:, i]
        records["intensity"], records["ring"] = 255, np.arange(len(points)) % 32
        records["time"] = np.arange(len(points)) * 1e-6
        ply.write_bytes(header + end + records.tobytes())
        assert self._refines_as_the_original(small_run, d, tmp_path)

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

    def test_object_with_beacons_half_a_mm_apart_gets_an_error_entry(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        beacons = d / BEACONS
        lines = beacons.read_text().splitlines()
        (front,) = [i for i, ln in enumerate(lines) if ln.startswith("obj1,front,")]
        (rear,) = [i for i, ln in enumerate(lines) if ln.startswith("obj1,rear,")]
        x, y, z = (float(v) for v in lines[front].split(",")[2:5])
        lines[rear] = ",".join(["obj1", "rear", repr(x + 0.0005), repr(y), repr(z)])
        beacons.write_text("\n".join(lines) + "\n")
        labels = tmp_path / "labels"
        code, _, err = run_cli(["generate", "--dataset", str(d / "ds"), "--calibration",
                                str(d / "cal.json"), "--out", str(labels)])
        assert code == 0, err
        obj0, obj1 = json.loads(read(labels / "sample_000.json"))["objects"]
        assert "box3d_lidar" in obj0
        assert obj1 == {"id": "obj1", "class": "table",
                        "error": "DegenerateBeaconPair: planar beacon separation 5.000e-04 m <= 1.000e-03 m"}

    def test_cloud_without_a_ground_plane_keeps_every_unrefined_entry(self, small_run, tmp_path):
        d = tmp_path / "in"
        shutil.copytree(small_run, d)
        points = np.random.default_rng(3).uniform(0, 5, (3000, 3))
        (d / CLOUD).write_bytes(write_ply(points))
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

        monkeypatch.setattr(sim, "generate_dataset", broken)
        with pytest.raises(type(error), match="a bug"):
            main(["simulate", "--out", str(tmp_path / "ds"), "--samples", "1"])


# ---------------------------------------------------------------------------
# process pool


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool started, by an in-process stand-in."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


@pytest.mark.parametrize("count, jobs, started", [(3, 64, [3]), (1, 8, [])])
def test_refine_starts_no_more_workers_than_label_files(
    pools, pipeline, tmp_path, count, jobs, started
):
    labels, out = tmp_path / "labels", tmp_path / "refined"
    labels.mkdir()
    fnames = sorted(os.listdir(pipeline["labels"]))[:count]
    for fname in fnames:
        shutil.copy(os.path.join(pipeline["labels"], fname), labels)
    cfg = RefineConfig(iterations=1500)
    assert write_refined_labels(pipeline["dataset"], str(labels), str(out), cfg, 9, jobs) == count
    assert pools == started
    for fname in fnames:
        assert read(out / fname) == read(os.path.join(pipeline["refined"], fname))


def test_jobs_start_a_pool_for_refine_only(pools, pipeline, tmp_path):
    # refine is the one stage that fans out; simulate makes one sample at a time
    code, _, err = run_cli(["--jobs", "2", "simulate", "--out", str(tmp_path / "ds"), "--samples", "2"])
    assert code == 0, err
    assert pools == []
    code, _, err = run_cli(
        ["--config", pipeline["cfg"], "--seed", "9", "--jobs", "2", "refine", "--dataset",
         pipeline["dataset"], "--labels", pipeline["labels"], "--out", str(tmp_path / "refined")]
    )
    assert code == 0, err
    assert pools == [2]


# ---------------------------------------------------------------------------
# the stage drivers as library functions


def test_generate_and_refine_drivers_write_the_files_the_cli_writes(small_run, tmp_path):
    ds, cal = str(small_run / "ds"), str(small_run / "cal.json")
    labels = str(tmp_path / "labels")
    assert write_labels(ds, cal, labels) == 1
    assert tree_digest(labels) == tree_digest(small_run / "labels")
    refined, cli_refined = str(tmp_path / "refined"), str(tmp_path / "cli_refined")
    assert write_refined_labels(ds, labels, refined, RefineConfig(iterations=300), seed=3) == 1
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("refine: {iterations: 300}\n")
    code, _, err = run_cli(["--config", str(cfg), "--seed", "3", "refine", "--dataset", ds,
                            "--labels", labels, "--out", cli_refined])
    assert code == 0, err
    assert tree_digest(refined) == tree_digest(cli_refined)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_every_output_file_gets_the_mode_that_open_gives(tmp_path, umask, mode):
    # the atomic writes go through mkstemp's 0o600 file, which the rename keeps
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("refine: {iterations: 300}\n")
    out = tmp_path / "out"
    ds, cal, labels, refined = (str(out / name) for name in ("ds", "cal.json", "labels", "refined"))
    previous = os.umask(umask)
    try:
        for argv in (
            ["simulate", "--out", ds, "--samples", "1"],
            ["calibrate", "--dataset", ds, "--iterations", "300", "--out", cal],
            ["generate", "--dataset", ds, "--calibration", cal, "--out", labels],
            ["refine", "--dataset", ds, "--labels", labels, "--out", refined],
            ["evaluate", "--auto", refined, "--reference", labels, "--out", str(out / "rep.json")],
        ):
            code, _, err = run_cli(["--config", str(cfg), *argv])
            assert code == 0, err
    finally:
        os.umask(previous)
    modes = {
        os.path.relpath(os.path.join(d, name), out): stat.S_IMODE(os.stat(os.path.join(d, name)).st_mode)
        for d, _, names in os.walk(out) for name in names
    }
    assert {"ds/manifest.json", "cal.json", "rep.json"} <= set(modes)
    assert {os.path.basename(p) for p in modes} >= {"cloud.ply", "beacons.csv"}
    assert {p.split(os.sep)[0] for p in modes} == {"ds", "cal.json", "labels", "refined", "rep.json"}
    assert set(modes.values()) == {mode}
