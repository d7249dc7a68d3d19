"""The PLY and CSV readers: valid files round-trip, junk files are a UsageError."""

import math
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipslabel.calib import Correspondence, correspondences_csv, parse_correspondences_csv
from ipslabel.cloud import read_ply, write_ply
from ipslabel.errors import UsageError
from ipslabel.geom import BeaconPair, beacons_csv, parse_beacons_csv

from .oracles import ascii_ply

PROPERTY = settings(max_examples=200, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
names = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=6)

clouds = st.lists(vec3, max_size=20).map(lambda pts: np.array(pts).reshape(-1, 3))
correspondence_lists = st.lists(
    st.builds(Correspondence, vec3, st.tuples(finite, finite), names), max_size=10
)
readings = st.builds(BeaconPair, vec3, vec3)


@st.composite
def beacon_files(draw):
    """A {frame: readings} map as beacons_csv writes it: every frame has the same count."""
    frames = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    count = draw(st.integers(1, 3))
    return {frame: draw(st.lists(readings, min_size=count, max_size=count)) for frame in frames}


ply_files = clouds.map(write_ply)
ascii_ply_texts = clouds.map(ascii_ply)
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


def _corrupt_bytes(data: bytes, at: int, junk: bytes, cut: int) -> bytes:
    """``data`` with ``cut`` bytes at position ``at`` replaced by ``junk``."""
    at %= len(data) + 1
    return data[:at] + junk + data[at + cut:]


# Byte strings that make a float64 body almost, but not quite, valid.
NON_FINITE = [struct.pack("<d", v) for v in (math.nan, math.inf, -math.inf)]
BYTE_JUNK = st.sampled_from(NON_FINITE) | st.binary(max_size=9)


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


def read_ascii_ply(text: str):
    return read_ply(text.encode("utf-8"))


@PROPERTY
@given(clouds)
def test_ply_round_trips(cloud):
    data = write_ply(cloud)
    back = read_ply(data)
    assert back.tobytes() == cloud.tobytes()
    assert write_ply(back) == data


@PROPERTY
@given(clouds)
def test_ascii_ply_reads_the_float64_of_each_row(cloud):
    text = ascii_ply(cloud)
    back = read_ascii_ply(text)
    assert back.tobytes() == cloud.tobytes()
    assert ascii_ply(back) == text


@PROPERTY
@given(beacon_texts)
def test_beacons_csv_round_trips(text):
    assert beacons_csv(parse_beacons_csv(text)) == text


@PROPERTY
@given(correspondence_texts)
def test_correspondences_csv_round_trips(text):
    assert correspondences_csv(parse_correspondences_csv(text)) == text


@PROPERTY
@given(corrupted(ascii_ply_texts, " "))
def test_corrupted_ply_is_parsed_or_a_usage_error(text):
    cloud = _parsed_or_usage_error(read_ascii_ply, text)
    assert cloud is None or np.isfinite(cloud).all()


@PROPERTY
@given(st.builds(_corrupt_bytes, ply_files, st.integers(min_value=0), BYTE_JUNK, st.integers(0, 9)))
def test_corrupted_binary_ply_is_parsed_or_a_usage_error(data):
    cloud = _parsed_or_usage_error(read_ply, data)
    assert cloud is None or np.isfinite(cloud).all()


@PROPERTY
@given(st.lists(st.sampled_from(PLY_HEADER_LINES), max_size=8), JUNK)
def test_junk_ply_header_is_parsed_or_a_usage_error(header, body):
    text = "\n".join(["ply", *header, "end_header", body])
    cloud = _parsed_or_usage_error(read_ascii_ply, text)
    assert cloud is None or np.isfinite(cloud).all()


@PROPERTY
@given(corrupted(beacon_texts, ","))
def test_corrupted_beacons_csv_is_parsed_or_a_usage_error(text):
    parsed = _parsed_or_usage_error(parse_beacons_csv, text)
    for frame_readings in (parsed or {}).values():
        for r in frame_readings:
            assert np.isfinite((r.front, r.rear)).all()


@PROPERTY
@given(corrupted(correspondence_texts, ","))
def test_corrupted_correspondences_csv_is_parsed_or_a_usage_error(text):
    parsed = _parsed_or_usage_error(parse_correspondences_csv, text)
    for c in parsed or []:
        assert np.isfinite(c.beacon_ips).all() and np.isfinite(c.pixel).all()


def test_ply_is_its_header_then_the_little_endian_float64_bits():
    cloud = np.array([[-0.0, 1e-320, 1e300], [0.1, -2.5, 3.0]])
    assert write_ply(cloud) == (
        b"ply\n"
        b"format binary_little_endian 1.0\n"
        b"element vertex 2\n"
        b"property double x\n"
        b"property double y\n"
        b"property double z\n"
        b"end_header\n"
        + bytes.fromhex(
            "0000000000000080" "e807000000000000" "9c7500883ce4377e"
            "9a9999999999b93f" "00000000000004c0" "0000000000000840"
        )
    )


def test_ply_rows_past_the_vertex_count_are_rejected_naming_the_first():
    text = ascii_ply(np.eye(3))  # 7 header lines, rows on lines 8-10
    for extra, line in (("1 2 3\n", 11), ("\n1 2 3\n", 12)):
        with pytest.raises(UsageError, match=f"PLY line {line}:"):
            read_ascii_ply(text + extra)
    assert ascii_ply(read_ascii_ply(text + "\n \n")) == text  # trailing blank lines are fine


def test_ply_without_a_format_line_is_rejected():
    text = ascii_ply(np.eye(3))
    with pytest.raises(UsageError, match="format ascii"):
        read_ascii_ply(text.replace("format ascii 1.0\n", ""))


@pytest.mark.parametrize("end", ["\r\n", "\r", "\x0c", "\x85", "\u2028"])
def test_ascii_ply_lines_end_where_str_splitlines_ends_them(end):
    text = ascii_ply([[1.5, -2.0, 3.25], [0.0, 1e-3, 7.0]])
    cloud = read_ascii_ply(text.replace("\n", end))
    assert ascii_ply(cloud) == text


# The binary reader's own checks, on a 3-vertex file: 7 header lines, then
# 3 rows of 3 little-endian doubles (72 bytes).
EYE = write_ply(np.eye(3))


def test_binary_ply_without_a_format_line_is_rejected():
    with pytest.raises(UsageError, match="no 'format ascii' or 'format binary_little_endian' line"):
        read_ply(EYE.replace(b"format binary_little_endian 1.0\n", b""))


@pytest.mark.parametrize("fmt", ["binary_big_endian", "utf8"])
def test_ply_of_another_format_is_rejected_naming_it(fmt):
    data = EYE.replace(b"binary_little_endian", fmt.encode())
    with pytest.raises(UsageError, match=f"line 2: unsupported 'format {fmt} 1.0'"):
        read_ply(data)


def test_binary_ply_property_that_is_not_double_is_rejected_naming_it():
    with pytest.raises(UsageError, match="property 'y' is float; a binary body holds doubles only"):
        read_ply(EYE.replace(b"property double y", b"property float y"))


@pytest.mark.parametrize(
    "data, size",
    [(EYE[:-1], 71), (EYE[:-24], 48), (EYE + bytes(24), 96),
     (EYE.replace(b"element vertex 3", b"element vertex 4"), 72)],
    ids=["one-byte-short", "one-row-short", "one-row-long", "count-larger-than-body"],
)
def test_binary_ply_body_of_another_size_is_rejected_naming_both(data, size):
    promised = 96 if b"vertex 4" in data else 72
    with pytest.raises(UsageError, match=f"body has {size} bytes; .* take {promised}$"):
        read_ply(data)


@pytest.mark.parametrize("vertex", [0, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_binary_ply_non_finite_point_is_rejected_naming_its_vertex(vertex, value):
    at = len(EYE) - 72 + vertex * 24 + 8  # the y of ``vertex``
    data = EYE[:at] + struct.pack("<d", value) + EYE[at + 8:]
    with pytest.raises(UsageError, match=f"PLY vertex {vertex}: non-finite point"):
        read_ply(data)

