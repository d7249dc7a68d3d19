"""The dict form of the config dataclasses: round trips and malformed input."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipslabel import config
from ipslabel.config import (
    MIN_PNP_POINTS,
    CalibOptions,
    CameraIntrinsics,
    LidarConfig,
    PipelineConfig,
    RefineConfig,
    Rig,
    SceneConfig,
    config_from_dict,
    load_config,
)
from ipslabel.errors import ConfigError
from ipslabel.fileio import MAX_MAGNITUDE, from_dict, to_dict

PROPERTY = settings(max_examples=200, deadline=None)

# the numbers an input may hold: of magnitude at most MAX_MAGNITUDE
finite = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
positive = st.floats(min_value=1e-3, max_value=1e3)
# a beacon pair must be wider than geom.EPS_BEACON (1 mm) to give a heading
separations = st.floats(min_value=1e-3, max_value=1e3, exclude_min=True)
counts = st.integers(min_value=1, max_value=100)


def _rotation(a: float, b: float, c: float) -> list:
    """A proper rotation from z-y-x Euler angles."""
    ca, sa, cb, sb, cc, sc = (f(x) for x in (a, b, c) for f in (math.cos, math.sin))
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return (rz @ ry @ rx).tolist()


angle = st.floats(min_value=-math.pi, max_value=math.pi)
transforms = st.fixed_dictionaries({
    "rotation": st.builds(_rotation, angle, angle, angle),
    "translation": st.lists(finite, min_size=3, max_size=3),
})


def _valid_id(text: str) -> bool:
    """A valid object id is not 'robot' and holds no comma or line break."""
    return text != "robot" and "," not in text and text.splitlines() in ([], [text])


objects = st.fixed_dictionaries({
    "id": st.text(max_size=8).filter(_valid_id),
    "class": st.sampled_from(["cabinet", "table"]),
    "dims": st.lists(positive, min_size=3, max_size=3),
    "x": finite,
    "y": finite,
    "yaw": finite,
    "beacon_sep": separations,
})
SCENE_KEYS = {
    "objects": st.lists(objects, min_size=1, max_size=3, unique_by=lambda o: o["id"]),
    "intrinsics": st.fixed_dictionaries({
        "fx": positive, "fy": positive, "cx": finite, "cy": finite,
        "width": st.integers(1, 4096), "height": st.integers(1, 4096),
    }),
    "cam_from_robot": transforms,
    "lidar_from_cam": transforms,
    "lidar": st.fixed_dictionaries({
        "channels": st.integers(1, 128), "vfov_min_deg": finite, "vfov_max_deg": finite,
        "azimuth_step_deg": positive, "max_range": positive,
    }),
    "beacon_noise": st.floats(min_value=0.0, max_value=1.0),
    "pixel_noise_sigma": st.floats(min_value=0.0, max_value=5.0),
    "robot_beacon_height": finite,
    "robot_beacon_sep": separations,
    "collection_readings": counts,
    "calibration_readings": counts,
    "calibration_points": st.integers(min_value=MIN_PNP_POINTS, max_value=100),
    "floor_z": finite,
    "table_z": finite,
    "robot_radius_min": finite,
    "robot_radius_max": finite,
    "heading_jitter_deg": finite,
}


def _ordered_radii(d: dict) -> dict:
    """A valid scene has robot_radius_min <= robot_radius_max."""
    low, high = sorted((d["robot_radius_min"], d["robot_radius_max"]))
    return {**d, "robot_radius_min": low, "robot_radius_max": high}


scene_dicts = st.fixed_dictionaries(SCENE_KEYS).map(_ordered_radii)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position in a nested dict/list, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


DEFAULT_CONFIG = to_dict(PipelineConfig())


def test_strategy_covers_every_scene_key():
    assert set(SCENE_KEYS) == set(to_dict(SceneConfig()))


def test_default_config_round_trips():
    assert to_dict(config_from_dict(DEFAULT_CONFIG)) == DEFAULT_CONFIG
    assert "seed" not in DEFAULT_CONFIG["refine"]  # an argument of refine_label, not config


@pytest.mark.parametrize(
    "cls", [PipelineConfig, CalibOptions, RefineConfig, SceneConfig, LidarConfig]
)
def test_every_field_is_in_the_dict_form_and_round_trips(cls):
    d = to_dict(cls())
    assert set(d) == {f.name for f in dataclasses.fields(cls)}
    back = from_dict(cls, d, cls.__name__)
    assert to_dict(back) == d


@PROPERTY
@given(scene_dicts)
def test_scene_dict_round_trips(d):
    assert to_dict(from_dict(SceneConfig, d, "scene")) == d


@pytest.mark.parametrize(
    "ids, name",
    [
        (["obj0", "obj0"], "unique"),  # would lose one object's beacons and labels
        (["robot"], "'robot'"),  # would overwrite the robot's beacons
        (["a,b"], "'a,b'"),  # would split its beacons.csv rows
        (["a\nb"], "'a\\nb'"),
        (["obj0", "a\r"], "'a\\r'"),
        (["\u2028"], "'\\u2028'"),
        (["a\ud800"], "'a\\ud800'"),  # has no UTF-8, so beacons.csv cannot hold it
    ],
)
def test_object_ids_that_break_the_dataset_are_rejected(ids, name):
    scene = DEFAULT_CONFIG["scene"]
    objects = [{**scene["objects"][0], "id": object_id} for object_id in ids]
    with pytest.raises(ConfigError, match="^scene: ") as info:
        config_from_dict({"scene": {**scene, "objects": objects}})
    assert name in str(info.value)


def test_scene_rig_is_its_measured_part_in_id_order():
    scene = SceneConfig(objects=tuple(reversed(SceneConfig().objects)))
    d = to_dict(scene.rig)
    assert d == {
        "intrinsics": to_dict(scene.intrinsics),
        "lidar_from_cam": to_dict(scene.lidar_from_cam),
        "objects": {
            "obj0": {"class": "cabinet", "dims": [0.9, 0.5, 1.3]},
            "obj1": {"class": "table", "dims": [1.2, 0.8, 0.75]},
        },
    }
    assert list(scene.rig.objects) == ["obj0", "obj1"]
    rig = from_dict(Rig, {**d, "objects": dict(reversed(d["objects"].items()))}, "rig")
    assert list(rig.objects) == ["obj0", "obj1"]
    assert to_dict(rig) == d


@pytest.mark.parametrize(
    "objects, expected",
    [
        ([], "rig.objects: expected a mapping with string keys"),
        ({1: {"class": "table", "dims": [1.0, 1.0, 1.0]}}, "rig.objects: expected a mapping"),
        ({"t": {"class": "table"}}, "rig.objects.t: missing key 'dims'"),
        ({"t": {"class": "table", "dims": [1.0, 1.0, 1.0], "x": 0.0}}, "'x'"),
        ({}, "rig: objects: needs at least one object"),
        ({"t": {"class": "table", "dims": [1.0, 1e-320, 1.0]}}, "rig.objects.t: object dimensions"),
    ],
)
def test_malformed_rig_objects_are_rejected(objects, expected):
    d = {**to_dict(SceneConfig().rig), "objects": objects}
    with pytest.raises(ConfigError) as info:
        from_dict(Rig, d, "rig")
    assert expected in str(info.value)


@pytest.mark.parametrize("fx, fy", [(1e-3, 1e-320), (1e-300, 500.0), (0.0, 500.0)])
def test_a_focal_length_below_a_thousandth_of_a_pixel_is_rejected(fx, fy):
    d = {**to_dict(SceneConfig().rig.intrinsics), "fx": fx, "fy": fy}
    with pytest.raises(ConfigError, match=r"^rig.intrinsics: focal lengths .* at least 0.001 px"):
        from_dict(CameraIntrinsics, d, "rig.intrinsics")


@pytest.mark.parametrize("value", [1e6, -1e6, 0.0, 5e-324, 10**6])
def test_a_number_up_to_the_bound_is_read(value):
    assert from_dict(float, value, "x") == value


@pytest.mark.parametrize(
    "value", [math.nextafter(1e6, math.inf), -1e30, 1e308, 10**400, math.inf, math.nan],
    ids=["above-1e6", "-1e30", "1e308", "10**400", "inf", "nan"],
)
def test_a_number_beyond_the_bound_is_rejected(value):
    with pytest.raises(ConfigError, match="^x: expected a finite number of magnitude at most 1,000,000"):
        from_dict(float, value, "x")


def test_a_merged_key_may_be_overridden(tmp_path):
    # load_config rejects a key given twice, but not one that overrides a << merge
    path = tmp_path / "cfg.yaml"
    path.write_text("calibration: {<<: {delta_px: 4.0, iterations: 10}, iterations: 20}\n")
    assert load_config(str(path)).calibration == CalibOptions(delta_px=4.0, iterations=20)


@PROPERTY
@given(st.sampled_from(list(_paths(DEFAULT_CONFIG))), json_values)
def test_junk_value_is_accepted_or_a_config_error(path, junk):
    try:
        config_from_dict(_replaced(DEFAULT_CONFIG, path, junk))
    except ConfigError:
        pass


KEY = "k" * 200
# (config file bytes, the reader that reads them: "json", "yaml", or None when
# they do not decode, and the value read, or an error message that it starts
# with). Strict JSON is read by json; YAML reads any other text, and JSON that
# fileio.decode_json rejects.
CONFIG_TEXTS = {
    "json": (
        b'{"seed": 3, "refine": {"shell_delta": 0.04}}', "json",
        {"seed": 3, "refine": {"shell_delta": 0.04}},
    ),
    "nested": (
        b'{"a": [[1, [2.5, -0.0]], {"b": [true, null, "x"]}], "c": -0}', "json",
        {"a": [[1, [2.5, -0.0]], {"b": [True, None, "x"]}], "c": 0},
    ),
    "out of range": (
        b'{"x": 1.5e+3, "y": 2.5E-3, "z": 1.0e+400}', "yaml",
        {"x": 1500.0, "y": 0.0025, "z": math.inf},
    ),
    "escapes": (b'{"x": "\\/\\u00e9", "y": "#:"}', "json", {"x": "/\u00e9", "y": "#:"}),
    "indented": (
        b'{\n  "scene": {\n    "lidar": {"channels": 32}\n  }\n}\n', "json",
        {"scene": {"lidar": {"channels": 32}}},
    ),
    "no point": (b'{"x": 1e5}', "json", {"x": 1e5}),
    "unsigned exponent": (b'{"x": 1.5e3}', "json", {"x": 1500.0}),
    "negative exponent": (b'{"x": 1e-3}', "json", {"x": 0.001}),
    "nan": (b'{"x": NaN}', "yaml", {"x": "NaN"}),
    "infinity": (b'{"x": Infinity, "y": -Infinity}', "yaml", {"x": "Infinity", "y": "-Infinity"}),
    "repeated key": (
        b'{"seed": 1, "seed": 2}', "yaml", "found duplicate key 'seed'\n  in \"CFG\", line 1, column 13"
    ),
    "nested repeated key": (
        b'{"scene": {"lidar": {"channels": 16, "channels": 32}}}', "yaml",
        "found duplicate key 'channels'\n  in \"CFG\", line 1, column 38",
    ),
    "repeated key in a list": (b'{"x": [[1, 2], [3, {"y": 1, "y": 1}]]}', "yaml", "found duplicate key 'y'"),
    "byte order mark": (b'\xef\xbb\xbf{"seed": 3}', "yaml", {"seed": 3}),
    "raw NEL": (b'{"id": "a\xc2\x85b"}', "json", {"id": "a\x85b"}),
    "raw DEL": (b'{"id": "a\x7fb"}', "json", {"id": "a\x7fb"}),
    "surrogate pair": (b'{"id": "\\ud83d\\ude00"}', "json", {"id": "\U0001f600"}),
    "line break before a colon": (b'{"seed"\n: 3}', "json", {"seed": 3}),
    "long key": (b'{"' + KEY.encode() + b'": 3}', "json", {KEY: 3}),
    "yaml": (b"seed: 3\n", "yaml", {"seed": 3}),
    "empty": (b"", "yaml", None),
    "not utf-8": (b'{"id": "\xff"}', None, "'utf-8' codec can't decode byte 0xff"),
}
# the texts that read otherwise than when YAML 1.1 read every config: YAML reads
# a number with no "." or an unsigned exponent as a string, folds a raw NEL,
# rejects a raw DEL, keeps both halves of a surrogate pair and rejects a line
# break before a colon
READ_OTHERWISE_THAN_YAML = {
    "no point", "unsigned exponent", "negative exponent", "raw NEL", "raw DEL",
    "surrogate pair", "line break before a colon",
}


def _outcome(read, path):
    """("value", value) or ("error", message with the path as CFG) of ``read(path)``."""
    try:
        return "value", read(str(path))
    except ConfigError as e:
        return "error", str(e).replace(str(path), "CFG")


@pytest.mark.parametrize("name", CONFIG_TEXTS)
def test_a_strict_json_config_is_read_by_json(tmp_path, monkeypatch, name):
    raw, reader, expected = CONFIG_TEXTS[name]
    path = tmp_path / "cfg.yaml"
    path.write_bytes(raw)
    yaml_reads = []
    load_yaml = config._load_yaml
    monkeypatch.setattr(config, "_load_yaml", lambda *args: yaml_reads.append(1) or load_yaml(*args))
    kind, got = _outcome(config._read_yaml, path)
    assert yaml_reads == ([1] if reader == "yaml" else [])
    if reader is None or isinstance(expected, str):
        assert kind == "error" and got.startswith(f"malformed config CFG: {expected}")
    else:
        assert (kind, got) == ("value", expected)
        assert repr(got) == repr(expected)  # -0.0 stays -0.0, and 1e5 a float
    if reader is not None:  # what YAML alone reads
        yaml_alone = _outcome(lambda p: load_yaml(p, raw.decode("utf-8")), path)
        assert (yaml_alone != (kind, got)) == (name in READ_OTHERWISE_THAN_YAML)


def test_a_tab_indented_json_config_loads(tmp_path):
    # the one kind of config that loads now and failed when YAML read them all
    path = tmp_path / "cfg.json"
    path.write_text('{\n\t"seed": 3,\n\t"refine": {"iterations": 40}\n}\n')
    cfg = load_config(str(path))
    assert (cfg.seed, cfg.refine.iterations) == (3, 40)
