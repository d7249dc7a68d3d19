"""The dict form of the config dataclasses: round trips and malformed input."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipslabel.calib import MIN_PNP_POINTS
from ipslabel.config import CalibOptions, PipelineConfig, config_from_dict
from ipslabel.errors import ConfigError
from ipslabel.fileio import from_dict, to_dict
from ipslabel.refine import RefineConfig
from ipslabel.sim import LidarConfig, SceneConfig

PROPERTY = settings(max_examples=200, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)
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
objects = st.fixed_dictionaries({
    "id": st.text(max_size=8),
    "class": st.sampled_from(["cabinet", "table"]),
    "dims": st.lists(positive, min_size=3, max_size=3),
    "x": finite,
    "y": finite,
    "yaw": finite,
    "beacon_sep": positive,
})
SCENE_KEYS = {
    "objects": st.lists(objects, min_size=1, max_size=3),
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
    "robot_beacon_sep": finite,
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


@PROPERTY
@given(st.sampled_from(list(_paths(DEFAULT_CONFIG))), json_values)
def test_junk_value_is_accepted_or_a_config_error(path, junk):
    try:
        config_from_dict(_replaced(DEFAULT_CONFIG, path, junk))
    except ConfigError:
        pass
