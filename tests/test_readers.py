"""The PLY and CSV readers: valid files round-trip, junk files are a UsageError."""

import json
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
from ipslabel.fileio import MAX_MAGNITUDE, dump_json
from ipslabel.geom import BeaconPair, beacons_csv, parse_beacons_csv

from .conftest import traced_peak
from .oracles import ascii_ply

PROPERTY = settings(max_examples=200, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
# The numbers a CSV cell may hold: of magnitude at most MAX_MAGNITUDE (a cloud has no such bound).
bounded = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
bounded3 = st.tuples(bounded, bounded, bounded)
names = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=6)

clouds = st.lists(vec3, max_size=20).map(lambda pts: np.array(pts).reshape(-1, 3))
# Float64 points that round to finite float32 ones, as write_ply needs.
F32_MAX = float(np.finfo(np.float32).max)
f32_range = st.floats(-F32_MAX, F32_MAX)
f32_clouds = st.lists(st.tuples(f32_range, f32_range, f32_range), max_size=20).map(
    lambda pts: np.array(pts).reshape(-1, 3)
)
correspondence_lists = st.lists(
    st.builds(Correspondence, bounded3, st.tuples(bounded, bounded), names), max_size=10
)
readings = st.builds(BeaconPair, bounded3, bounded3)


@st.composite
def beacon_files(draw):
    """A {frame: readings} map as beacons_csv writes it: every frame has the same count."""
    frames = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    count = draw(st.integers(1, 3))
    return {frame: draw(st.lists(readings, min_size=count, max_size=count)) for frame in frames}


ply_files = f32_clouds.map(write_ply)
ascii_ply_texts = clouds.map(ascii_ply)
beacon_texts = beacon_files().map(beacons_csv)
correspondence_texts = correspondence_lists.map(correspondences_csv)

# Characters that make text almost, but not quite, one of the formats.
JUNK = st.text(alphabet="0123456789.,-+eE naifINFxyz_\n\t", max_size=6)
TOKENS = st.sampled_from(["nan", "-inf", "inf", "1e999", "", "abc", "1_0", "0x1", "front"]) | JUNK
PLY_HEADER_LINES = [
    "ply", "format ascii 1.0", "format binary_little_endian 1.0", "format binary_big_endian 1.0",
    "element vertex 1", "element vertex 2", "element vertex -1", "element face 1",
    "property double x", "property double y", "property double z", "property float w",
    "property uchar i", "property half h", "property list uchar int v",
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


# Byte strings that make a float32 body almost, but not quite, valid.
NON_FINITE = [struct.pack("<f", v) for v in (math.nan, math.inf, -math.inf)]
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
@given(f32_clouds)
def test_ply_round_trips(cloud):
    data = write_ply(cloud)
    back = read_ply(data)
    assert back.tobytes() == cloud.astype("<f4").astype("<f8").tobytes()
    assert write_ply(back) == data


def _binary_ply(fields: list, records: np.ndarray, fmt: str = "binary_little_endian") -> bytes:
    """A binary PLY of ``records`` whose vertex has the PLY properties
    ``fields`` [(type, name)], in that order."""
    header = ["ply", f"format {fmt} 1.0", f"element vertex {len(records)}",
              *(f"property {typ} {name}" for typ, name in fields), "end_header", ""]
    return "\n".join(header).encode("ascii") + records.tobytes()


@PROPERTY
@given(clouds)
def test_float64_ply_reads_bit_for_bit(cloud):
    # the body earlier versions of write_ply wrote: the float64 bits of the points
    records = cloud.astype("<f8").view([("x", "<f8"), ("y", "<f8"), ("z", "<f8")])
    data = _binary_ply([("double", "x"), ("double", "y"), ("double", "z")], records)
    assert read_ply(data).tobytes() == cloud.tobytes()


@PROPERTY
@given(f32_clouds, st.integers(0, 255), st.integers(0, 65535), st.floats(width=32))
def test_float32_ply_with_fields_beside_xyz_reads_its_points(cloud, intensity, ring, time):
    # a LiDAR driver's layout: float32 points among fields read by no stage, in any order
    fields = [("float", "time"), ("float", "z"), ("uchar", "intensity"), ("float", "x"),
              ("ushort", "ring"), ("float32", "y")]
    records = np.zeros(len(cloud), [("time", "<f4"), ("z", "<f4"), ("intensity", "u1"),
                                     ("x", "<f4"), ("ring", "<u2"), ("y", "<f4")])
    records["time"], records["intensity"], records["ring"] = time, intensity, ring
    for i, axis in enumerate("xyz"):
        records[axis] = cloud[:, i]
    back = read_ply(_binary_ply(fields, records))
    assert back.tobytes() == cloud.astype("<f4").astype("<f8").tobytes()
    assert write_ply(back) == write_ply(cloud)


@PROPERTY
@given(f32_clouds)
def test_big_endian_ply_reads_what_its_little_endian_twin_reads(cloud):
    fields = [("float", axis) for axis in "xyz"]
    little = _binary_ply(fields, cloud.astype("<f4"))
    big = _binary_ply(fields, cloud.astype(">f4"), "binary_big_endian")
    assert read_ply(big).tobytes() == read_ply(little).tobytes()


@pytest.mark.parametrize("typ, code", [
    ("char", "i1"), ("uchar", "u1"), ("short", "i2"), ("ushort", "u2"), ("int", "i4"),
    ("uint", "u4"), ("float", "f4"), ("double", "f8"), ("int8", "i1"), ("uint8", "u1"),
    ("int16", "i2"), ("uint16", "u2"), ("int32", "i4"), ("uint32", "u4"), ("float32", "f4"),
    ("float64", "f8"),
])
@pytest.mark.parametrize("order", ["<", ">"])
def test_binary_ply_points_of_every_scalar_type_read_as_float64(typ, code, order):
    values = np.array([[0, 1, 2], [127, 100, 7]], dtype=order + code)
    fmt = {"<": "binary_little_endian", ">": "binary_big_endian"}[order]
    cloud = read_ply(_binary_ply([(typ, axis) for axis in "xyz"], values, fmt))
    assert cloud.dtype == np.float64 and not cloud.flags.writeable
    assert cloud.flags.f_contiguous  # each axis contiguous, as the stages' arithmetic runs fastest
    assert cloud.tolist() == values.tolist()


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
            assert (np.abs((r.front, r.rear)) <= MAX_MAGNITUDE).all()


@PROPERTY
@given(corrupted(correspondence_texts, ","))
def test_corrupted_correspondences_csv_is_parsed_or_a_usage_error(text):
    parsed = _parsed_or_usage_error(parse_correspondences_csv, text)
    for c in parsed or []:
        assert (np.abs(c.beacon_ips) <= MAX_MAGNITUDE).all()
        assert (np.abs(c.pixel) <= MAX_MAGNITUDE).all()


def test_ply_is_its_header_then_the_little_endian_float32_bits():
    # each point rounded to the nearest float32: 1e-45 to the least subnormal,
    # 0.1 up, and 1 + 2**-24, halfway between two float32s, to the even one
    cloud = np.array([[-0.0, 1e-45, 3e38], [0.1, -2.5, 1 + 2**-24]])
    assert write_ply(cloud) == (
        b"ply\n"
        b"format binary_little_endian 1.0\n"
        b"element vertex 2\n"
        b"property float x\n"
        b"property float y\n"
        b"property float z\n"
        b"end_header\n"
        + bytes.fromhex("00000080" "01000000" "e6b1617f" "cdcccc3d" "000020c0" "0000803f")
    )


@pytest.mark.parametrize("value", [3.5e38, -1e300, F32_MAX * (1 + 2**-24)])
def test_ply_of_a_point_beyond_float32_is_not_written(value):
    cloud = np.eye(3)
    cloud[0, 0] = math.inf  # written as it is: an infinite point was not finite to begin with
    assert write_ply(cloud).endswith(cloud.astype("<f4").tobytes())
    cloud[2, 1] = value
    with pytest.raises(ValueError, match="vertex 2: .* overflows float32"):
        write_ply(cloud)


def test_ply_rows_past_the_vertex_count_are_rejected_naming_the_first():
    text = ascii_ply(np.eye(3))  # 7 header lines, rows on lines 8-10
    for extra, line in (("1 2 3\n", 11), ("\n1 2 3\n", 12)):
        with pytest.raises(UsageError, match=f"PLY line {line}:"):
            read_ascii_ply(text + extra)
    assert ascii_ply(read_ascii_ply(text + "\n \n")) == text  # trailing blank lines are fine


# float() and numpy read each as 420; C's strtod, as other PLY and CSV tools use, does not
@pytest.mark.parametrize("text", ["4_20", "\u0664\u0662\u0660", "4.2_0e2"])
def test_a_number_that_strtod_does_not_read_is_rejected_naming_its_line(text):
    ply = ascii_ply(np.eye(3))  # rows on lines 8-10
    with pytest.raises(UsageError, match="^PLY line 9: number text must be ASCII and hold no '_'"):
        read_ascii_ply(ply.replace("\n0.0 1.0 0.0\n", f"\n0.0 {text} 0.0\n"))
    csv = correspondences_csv([Correspondence((1.0, 2.0, 3.0), (4.0, 5.0), "floor")])
    with pytest.raises(UsageError, match="^correspondence CSV line 2: number text must be ASCII"):
        parse_correspondences_csv(csv.replace("4.0", text))


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
# 3 rows of 3 little-endian float32s (36 bytes).
EYE = write_ply(np.eye(3))


def test_binary_ply_without_a_format_line_is_rejected():
    with pytest.raises(
        UsageError,
        match="no 'format ascii' or 'format binary_little_endian' or 'format binary_big_endian' line",
    ):
        read_ply(EYE.replace(b"format binary_little_endian 1.0\n", b""))


@pytest.mark.parametrize("fmt", ["binary", "utf8"])
def test_ply_of_another_format_is_rejected_naming_it(fmt):
    data = EYE.replace(b"binary_little_endian", fmt.encode())
    with pytest.raises(UsageError, match=f"line 2: unsupported 'format {fmt} 1.0'"):
        read_ply(data)


def test_binary_ply_property_of_an_unknown_type_is_rejected_naming_it():
    with pytest.raises(UsageError, match="property 'y' has unknown type 'half'"):
        read_ply(EYE.replace(b"property float y", b"property half y"))


def test_ply_list_property_is_rejected_naming_it():
    data = EYE.replace(b"end_header", b"property list uchar int rings\nend_header")
    with pytest.raises(UsageError, match="line 7: unsupported 'property list uchar int rings'"):
        read_ply(data)


@pytest.mark.parametrize(
    "data, size",
    [(EYE[:-1], 35), (EYE[:-12], 24), (EYE + bytes(12), 48),
     (EYE.replace(b"element vertex 3", b"element vertex 4"), 36)],
    ids=["one-byte-short", "one-row-short", "one-row-long", "count-larger-than-body"],
)
def test_binary_ply_body_of_another_size_is_rejected_naming_both(data, size):
    promised = 48 if b"vertex 4" in data else 36
    with pytest.raises(UsageError, match=f"body has {size} bytes; .* of 12 bytes take {promised}$"):
        read_ply(data)


@pytest.mark.parametrize("vertex", [0, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_binary_ply_non_finite_point_is_rejected_naming_its_vertex(vertex, value):
    at = len(EYE) - 36 + vertex * 12 + 4  # the y of ``vertex``
    data = EYE[:at] + struct.pack("<f", value) + EYE[at + 4:]
    with pytest.raises(UsageError, match=f"PLY vertex {vertex}: non-finite point"):
        read_ply(data)



def test_a_dense_cloud_is_read_into_one_copy():
    """read_ply copies the points once, into the float64 cloud it returns:
    its traced peak is 1.13 times the cloud's bytes. Copying the columns into
    an array and freezing a copy of that took 2.13 times."""
    cloud = np.random.default_rng(0).uniform(-30.0, 30.0, (100_000, 3))
    data = write_ply(cloud)
    back, peak = traced_peak(read_ply, data)
    assert back.tobytes() == cloud.astype(np.float32).astype(float).tobytes()
    assert peak <= 1.5 * back.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_dense_cloud_is_written_from_one_copy_of_its_body(order):
    """write_ply copies the float32 body once, into the bytes it returns: its
    traced peak is 1.13 times the float64 cloud's bytes. Joining the header to
    a ``tobytes()`` copy of the body took 1.63 times."""
    cloud = np.asarray(np.random.default_rng(0).uniform(-30.0, 30.0, (100_000, 3)), order=order)
    data, peak = traced_peak(write_ply, cloud)
    assert read_ply(data).tobytes() == cloud.astype(np.float32).astype(float).tobytes()
    assert peak <= 1.3 * cloud.nbytes


@pytest.mark.parametrize("value", [math.nextafter(MAX_MAGNITUDE, math.inf), -1e300, math.inf, math.nan])
def test_no_writer_writes_a_number_that_its_reader_rejects(value):
    pair = BeaconPair((0.0, 0.0, 0.0), (0.0, value, 0.0))
    with pytest.raises(UsageError, match=r"^beacon CSV line 3: cannot write .*, beyond 1,000,000"):
        beacons_csv({"robot": [pair]})
    corr = Correspondence((0.0, 0.0, 0.0), (value, 0.0), "floor")
    with pytest.raises(UsageError, match=r"^correspondence CSV line 2: cannot write"):
        correspondences_csv([corr])
    with pytest.raises(UsageError, match=r"^objects\[1\]\.center\[2\]: cannot write"):
        dump_json({"objects": [{}, {"center": (0.0, 1, value)}]})


@pytest.mark.parametrize("value", [MAX_MAGNITUDE, -MAX_MAGNITUDE])
def test_every_writer_writes_a_number_at_the_bound_that_its_reader_accepts(value):
    pair = BeaconPair((0.0, 0.0, 0.0), (0.0, value, 0.0))
    assert parse_beacons_csv(beacons_csv({"robot": [pair]}))["robot"][0].rear[1] == value
    corr = Correspondence((0.0, 0.0, 0.0), (value, 0.0), "floor")
    assert parse_correspondences_csv(correspondences_csv([corr]))[0].pixel[0] == value
    assert json.loads(dump_json({"center": [0.0, value]})) == {"center": [0.0, value]}


@pytest.mark.parametrize("obj, key", [
    (2e6, "<root>"),
    ([{"a": {"b": (0.0, -math.inf)}}], r"\[0\]\.a\.b\[1\]"),
    ({"x": np.float64(-1e7)}, "x"),
], ids=["root", "nested", "numpy-float64"])
def test_dump_json_names_the_key_of_a_number_beyond_the_bound(obj, key):
    with pytest.raises(UsageError, match=rf"^{key}: cannot write .*, beyond 1,000,000"):
        dump_json(obj)
