"""Point clouds and ASCII PLY serialization.

PLY floats are written with repr(), the shortest decimal string that
round-trips the exact float64 value, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class PointCloud:
    """Immutable (N, 3) cloud tagged with the frame it lives in."""

    points: np.ndarray
    frame: str = "lidar"

    def __post_init__(self):
        pts = np.array(self.points, dtype=float).reshape(-1, 3)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def write_ply(cloud: PointCloud) -> str:
    n = len(cloud)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    pts = cloud.points
    for lo in range(0, n, 1024):  # slices keep few Python floats alive at once
        lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in pts[lo : lo + 1024].tolist())
    return "\n".join(lines) + "\n"


def read_ply(text: str, frame: str = "lidar") -> PointCloud:
    """Parse an ASCII PLY file with one ``vertex`` element.

    The point columns are found by the names of the ``property`` lines, so
    any column order reads the same cloud; other properties are ignored. A
    malformed header or row, a non-blank row past the vertex count, or a
    non-finite point, raises UsageError.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise UsageError("not a PLY file (missing 'ply' magic)")
    n, names, ascii_format = None, [], False
    for end, line in enumerate(lines[1:], start=1):
        tok = line.split()
        if tok == ["end_header"]:
            break
        if tok[:2] == ["element", "vertex"] and len(tok) == 3 and tok[2].isdecimal() and n is None:
            n = int(tok[2])
        elif tok[:1] == ["property"] and len(tok) == 3 and n is not None:
            names.append(tok[2])
        elif tok[:2] == ["format", "ascii"]:
            ascii_format = True
        elif tok and tok[0] not in ("comment", "obj_info"):
            raise UsageError(f"PLY header line {end + 1}: unsupported {line.strip()!r}")
    else:
        raise UsageError("PLY header has no end_header line")
    if not ascii_format:
        raise UsageError("PLY header has no 'format ascii' line")
    if n is None or not set("xyz") <= set(names) or len(set(names)) != len(names):
        raise UsageError(f"PLY header needs a vertex element with x, y, z once each: {names}")
    body = [line.split() for line in lines[end + 1 : end + 1 + n]]
    if len(body) != n:
        raise UsageError(f"PLY body has {len(body)} rows, header promised {n}")
    for line_no, line in enumerate(lines[end + 1 + n :], start=end + 2 + n):
        if line.strip():
            raise UsageError(f"PLY line {line_no}: a row past the {n} vertices the header promised")
    try:
        values = np.array(body, dtype=float).reshape(n, len(names))
    except ValueError:  # name the first row that does not parse on its own
        for line_no, row in enumerate(body, start=end + 2):
            try:
                np.array(row, dtype=float).reshape(len(names))
            except ValueError as e:
                raise UsageError(f"PLY line {line_no}: {e}") from None
        raise
    pts = values[:, [names.index(axis) for axis in "xyz"]]
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise UsageError(f"PLY line {end + 2 + bad[0]}: non-finite point")
    return PointCloud(pts, frame=frame)
