"""The PLY and CSV readers: valid text round-trips, junk text is a UsageError."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipslabel.calib import Correspondence
from ipslabel.cloud import PointCloud, read_ply, write_ply
from ipslabel.errors import UsageError
from ipslabel.geom import BeaconPair
from ipslabel.sim import (
    BeaconReading,
    beacons_csv,
    correspondences_csv,
    parse_beacons_csv,
    parse_correspondences_csv,
)

PROPERTY = settings(max_examples=200, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
names = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=6)

clouds = st.lists(vec3, max_size=20).map(lambda pts: PointCloud(np.array(pts).reshape(-1, 3)))
correspondence_lists = st.lists(
    st.builds(Correspondence, vec3, st.tuples(finite, finite), names), max_size=10
)
readings = st.builds(
    BeaconReading, st.builds(BeaconPair, vec3, vec3), st.builds(BeaconPair, vec3, vec3)
)


@st.composite
def beacon_files(draw):
    """A {frame: readings} map as beacons_csv writes it: every frame has the same count."""
    frames = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    count = draw(st.integers(1, 3))
    return {frame: draw(st.lists(readings, min_size=count, max_size=count)) for frame in frames}


ply_texts = clouds.map(write_ply)
beacon_texts = beacon_files().map(beacons_csv)
correspondence_texts = correspondence_lists.map(correspondences_csv)

# Characters that make text almost, but not quite, one of the formats.
JUNK = st.text(alphabet="0123456789.,-+eE naifINFxyz_\n\t", max_size=6)
TOKENS = st.sampled_from(["nan", "-inf", "inf", "1e999", "", "abc", "1_0", "0x1", "front"]) | JUNK
PLY_HEADER_LINES = [
    "ply", "format ascii 1.0", "format binary_little_endian 1.0", "element vertex 1",
    "element vertex 2", "element vertex -1", "element face 1", "property double x",
    "property double y", "property double z", "property float w", "property list uchar int v",
    "comment made by hand", "end_header", "",
]


def _corrupt(text: str, at: int, junk: str, cut: int) -> str:
    """``text`` with ``cut`` characters at position ``at`` replaced by ``junk``."""
    at %= len(text) + 1
    return text[:at] + junk + text[at + cut:]


def _replace_field(text: str, sep: str, line: int, field: int, token: str) -> str:
    """``text`` with one ``sep``-separated field of the ``line``-th line from the
    end (a data row, mostly) replaced by ``token``."""
    lines = text.splitlines()
    line = -1 - line % len(lines)
    fields = lines[line].split(sep)
    fields[field % len(fields)] = token
    lines[line] = sep.join(fields)
    return "\n".join(lines) + "\n"


def corrupted(texts, sep: str):
    """Valid texts with a span of characters, or one field, replaced by junk."""
    index = st.integers(min_value=0)
    return st.builds(_corrupt, texts, index, JUNK, st.integers(0, 4)) | st.builds(
        _replace_field, texts, st.just(sep), index, index, TOKENS
    )


def _parsed_or_usage_error(read, text):
    try:
        return read(text)
    except UsageError:
        return None


@PROPERTY
@given(clouds)
def test_ply_round_trips(cloud):
    text = write_ply(cloud)
    assert write_ply(read_ply(text)) == text


@PROPERTY
@given(beacon_texts)
def test_beacons_csv_round_trips(text):
    assert beacons_csv(parse_beacons_csv(text)) == text


@PROPERTY
@given(correspondence_texts)
def test_correspondences_csv_round_trips(text):
    assert correspondences_csv(parse_correspondences_csv(text)) == text


@PROPERTY
@given(corrupted(ply_texts, " "))
def test_corrupted_ply_is_parsed_or_a_usage_error(text):
    cloud = _parsed_or_usage_error(read_ply, text)
    assert cloud is None or np.isfinite(cloud.points).all()


@PROPERTY
@given(st.lists(st.sampled_from(PLY_HEADER_LINES), max_size=8), JUNK)
def test_junk_ply_header_is_parsed_or_a_usage_error(header, body):
    text = "\n".join(["ply", *header, "end_header", body])
    cloud = _parsed_or_usage_error(read_ply, text)
    assert cloud is None or np.isfinite(cloud.points).all()


@PROPERTY
@given(corrupted(beacon_texts, ","))
def test_corrupted_beacons_csv_is_parsed_or_a_usage_error(text):
    parsed = _parsed_or_usage_error(parse_beacons_csv, text)
    for frame_readings in (parsed or {}).values():
        for r in frame_readings:
            pairs = (r.noisy.front, r.noisy.rear, r.clean.front, r.clean.rear)
            assert np.isfinite(pairs).all()


@PROPERTY
@given(corrupted(correspondence_texts, ","))
def test_corrupted_correspondences_csv_is_parsed_or_a_usage_error(text):
    parsed = _parsed_or_usage_error(parse_correspondences_csv, text)
    for c in parsed or []:
        assert np.isfinite(c.beacon_ips).all() and np.isfinite(c.pixel).all()


def test_ply_rows_are_the_shortest_round_trip_text_of_each_float():
    cloud = PointCloud([[-0.0, 1e-320, 1e300], [0.1, -2.5, 3.0]])
    assert write_ply(cloud) == (
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 2\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "end_header\n"
        "-0.0 1e-320 1e+300\n"
        "0.1 -2.5 3.0\n"
    )


def test_ply_rows_past_the_vertex_count_are_rejected_naming_the_first():
    text = write_ply(PointCloud(np.eye(3)))  # 7 header lines, rows on lines 8-10
    for extra, line in (("1 2 3\n", 11), ("\n1 2 3\n", 12)):
        with pytest.raises(UsageError, match=f"PLY line {line}:"):
            read_ply(text + extra)
    assert write_ply(read_ply(text + "\n \n")) == text  # trailing blank lines are fine


def test_ply_without_a_format_line_is_rejected():
    text = write_ply(PointCloud(np.eye(3)))
    with pytest.raises(UsageError, match="format ascii"):
        read_ply(text.replace("format ascii 1.0\n", ""))
