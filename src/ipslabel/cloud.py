"""PLY serialization of point clouds.

A cloud is a float64 (N, 3) array of points in the LiDAR frame; read_ply
returns it read-only. write_ply writes a ``binary_little_endian`` PLY whose
body is the float32 bits of the points, rounded to nearest, so a cloud is
the same bytes on any host and read -> write is byte-identical (float32 ->
float64 -> float32 is exact). read_ply reads ASCII PLY and binary bodies of
either byte order with any scalar property types, as LiDAR drivers and
other tools write them (property types as in Turk, "The PLY Polygon File
Format", 1994); the x, y and z of each vertex are read, other properties
are not.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import UsageError
from .geom import frozen

# One header line: it ends where str.splitlines ends a line of UTF-8 text,
# or at the end of the file.
_LINE = re.compile(rb"(.*?)(?:\r\n|[\n\r\x0b\x0c\x1c-\x1e]|\xc2\x85|\xe2\x80[\xa8\xa9]|\Z)", re.S)
# Each format, with the byte order of a binary body.
_FORMATS = {"ascii": None, "binary_little_endian": "<", "binary_big_endian": ">"}
# The numpy type of each PLY scalar property type, by its name and its sized name.
_TYPES = {
    "char": "i1", "uchar": "u1", "short": "i2", "ushort": "u2",
    "int": "i4", "uint": "u4", "float": "f4", "double": "f8",
    "int8": "i1", "uint8": "u1", "int16": "i2", "uint16": "u2",
    "int32": "i4", "uint32": "u4", "float32": "f4", "float64": "f8",
}


def write_ply(cloud: np.ndarray) -> bytes:
    """The binary PLY bytes of an (N, 3) cloud, its points rounded to the
    nearest float32. A finite coordinate beyond float32's range raises
    ValueError."""
    points = np.asarray(cloud, float).reshape(len(cloud), 3)
    with np.errstate(over="ignore"):
        body = points.astype("<f4", order="C")
    inf = np.isinf(body)
    if inf.any():  # an infinite point stays infinite; a finite one must not become so
        over = (inf > np.isinf(points)).any(axis=1)
        if over.any():
            vertex = over.argmax()
            raise ValueError(f"vertex {vertex}: {points[vertex].tolist()} overflows float32")
    header = "\n".join([
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(points)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
        "",
    ])
    return b"".join((header.encode("ascii"), body))  # one copy of the body


def _header(data: bytes) -> tuple:
    """(format, vertex count, [(type, name)] of the properties, offset of the
    body, number of header lines) of a PLY file."""
    pos, line_no = 0, 0
    fmt, n, props = None, None, []
    while True:
        match = _LINE.match(data, pos)
        if match.end() == pos:  # end of file
            if line_no == 0:
                raise UsageError("not a PLY file (missing 'ply' magic)")
            raise UsageError("PLY header has no end_header line")
        pos, line_no = match.end(), line_no + 1
        line = match.group(1).decode("utf-8", "replace")
        tok = line.split()
        if line_no == 1:
            if line.strip() != "ply":
                raise UsageError("not a PLY file (missing 'ply' magic)")
        elif tok == ["end_header"]:
            break
        elif tok[:2] == ["element", "vertex"] and len(tok) == 3 and tok[2].isdecimal() and n is None:
            n = int(tok[2])
        elif tok[:1] == ["property"] and len(tok) == 3 and n is not None:
            props.append((tok[1], tok[2]))
        elif tok[:1] == ["format"] and len(tok) > 1 and tok[1] in _FORMATS and fmt in (None, tok[1]):
            fmt = tok[1]
        elif tok and tok[0] not in ("comment", "obj_info"):
            raise UsageError(f"PLY header line {line_no}: unsupported {line.strip()!r}")
    if fmt is None:
        formats = " or ".join(f"'format {name}'" for name in _FORMATS)
        raise UsageError(f"PLY header has no {formats} line")
    names = [name for _, name in props]
    if n is None or not set("xyz") <= set(names) or len(set(names)) != len(names):
        raise UsageError(f"PLY header needs a vertex element with x, y, z once each: {names}")
    return fmt, n, props, pos, line_no


def _ascii_values(body: bytes, n: int, width: int, first_line: int) -> np.ndarray:
    """The (n, width) rows of an ASCII body whose first row is line ``first_line``."""
    try:
        lines = body.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise UsageError(f"PLY body is not UTF-8 text: {e}") from None
    rows = [line.split() for line in lines[:n]]
    if len(rows) != n:
        raise UsageError(f"PLY body has {len(rows)} rows, header promised {n}")
    for line_no, line in enumerate(lines[n:], start=first_line + n):
        if line.strip():
            raise UsageError(f"PLY line {line_no}: a row past the {n} vertices the header promised")
    try:
        return np.array(rows, dtype=float).reshape(n, width)
    except ValueError:  # name the first row that does not parse on its own
        for line_no, row in enumerate(rows, start=first_line):
            try:
                np.array(row, dtype=float).reshape(width)
            except ValueError as e:
                raise UsageError(f"PLY line {line_no}: {e}") from None
        raise


def _binary_values(data: bytes, offset: int, n: int, props: list, order: str) -> np.ndarray:
    """The n vertex records of the body at ``data[offset:]``, in byte order ``order``."""
    for typ, name in props:
        if typ not in _TYPES:
            raise UsageError(f"PLY property {name!r} has unknown type {typ!r}")
    dtype = np.dtype([(name, order + _TYPES[typ]) for typ, name in props])
    size = n * dtype.itemsize
    if len(data) - offset != size:
        raise UsageError(
            f"PLY binary body has {len(data) - offset} bytes; "
            f"the header's {n} vertices of {dtype.itemsize} bytes take {size}"
        )
    return np.frombuffer(data, dtype, n, offset)


def read_ply(data: bytes) -> np.ndarray:
    """Parse the bytes of a PLY file with one ``vertex`` element, ASCII or
    binary of either byte order, into a read-only (N, 3) cloud: one
    float64 copy of the points, column-major (each axis contiguous).

    The point columns are found by the names of the ``property`` lines, so
    any column order reads the same cloud; other properties are ignored. A
    binary body is read through one structured dtype of the header's
    property types, so x, y and z may be of any PLY scalar type. A
    malformed header, a non-finite point, an ASCII row that does not parse
    or is non-blank past the vertex count, a binary property of a type PLY
    does not define, or a binary body of another size than the header
    promises, raises UsageError. Errors name ASCII rows by line and binary
    ones by vertex, counted from 0.
    """
    fmt, n, props, offset, header_lines = _header(data)
    if fmt == "ascii":
        values = _ascii_values(data[offset:], n, len(props), header_lines + 1)
        names = [name for _, name in props]
        columns = [values[:, names.index(axis)] for axis in "xyz"]
    else:
        records = _binary_values(data, offset, n, props, _FORMATS[fmt])
        columns = [records[axis] for axis in "xyz"]
    # one float64 copy, column-major with each axis contiguous: the stages'
    # per-point arithmetic (cloud - centre, norms of rows) runs 3-5x faster
    # on it than row-major
    pts = frozen(columns, (3, -1)).T
    finite = np.isfinite(pts)
    if not finite.all():
        bad = finite.all(axis=1).argmin()
        where = f"line {header_lines + 1 + bad}" if fmt == "ascii" else f"vertex {bad}"
        raise UsageError(f"PLY {where}: non-finite point")
    return pts
