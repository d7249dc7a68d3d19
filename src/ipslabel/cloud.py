"""Point clouds and ASCII PLY serialization.

PLY floats are written with repr(), the shortest decimal string that
round-trips the exact float64 value, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    for x, y, z in cloud.points:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    return "\n".join(lines) + "\n"


def read_ply(text: str, frame: str = "lidar") -> PointCloud:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError("not a PLY file (missing 'ply' magic)")
    n = None
    header_end = None
    for i, line in enumerate(lines[1:], start=1):
        tok = line.strip().split()
        if not tok:
            continue
        if tok[0] == "format":
            if tok[1] != "ascii":
                raise ValueError("only ascii PLY is supported")
        elif tok[0] == "element":
            if tok[1] != "vertex":
                raise ValueError(f"unsupported PLY element {tok[1]!r}")
            n = int(tok[2])
        elif tok[0] == "end_header":
            header_end = i
            break
    if n is None or header_end is None:
        raise ValueError("malformed PLY header")
    body = lines[header_end + 1 : header_end + 1 + n]
    if len(body) != n:
        raise ValueError(f"PLY body has {len(body)} rows, header promised {n}")
    if n == 0:
        return PointCloud(np.zeros((0, 3)), frame=frame)
    pts = np.array([[float(v) for v in row.split()[:3]] for row in body])
    return PointCloud(pts, frame=frame)
