"""Layered pipeline configuration: defaults < config file < CLI flags.

The config file is strict JSON, read with no PyYAML by fileio.decode_json as
every JSON input is, or YAML, which also reads the JSON that decode_json
rejects; its shape is the dict form of PipelineConfig (see fileio.from_dict).
Unknown keys and mistyped values are rejected with the dotted key named; a
key given twice in one mapping, and YAML syntax errors, surface with their
line/column.

CameraIntrinsics and MIN_PNP_POINTS, which the rig and the scene use, live
here too, so that a stage that calibrates nothing does not load calib.

The config dataclasses of every stage live here, so that a stage loads only
the modules it runs. fileio.from_dict resolves their string annotations in
this module's globals, so the annotation types are imported at module level.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields, replace
from typing import Annotated

import numpy as np

from .errors import ConfigError
from .fileio import MAX_MAGNITUDE, decode_json, from_dict, read_json, read_text
from .geom import EPS_BEACON, RigidTransform, compose, inverse


MIN_PNP_POINTS = 6  # correspondences that a PnP pose needs (see calib)
# Smallest object dimension (metres) and focal length (pixels): a positive
# but microscopic one, or a subnormal, leaves a box of no size or an image
# no solver can fit.
MIN_SIZE = 1e-3


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; images are assumed rectified (no distortion)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if not (self.fx >= MIN_SIZE and self.fy >= MIN_SIZE):
            raise ValueError(f"focal lengths must be positive, at least {MIN_SIZE} px")
        # a 2D box is clamped to the image, and must read back (fileio.MAX_MAGNITUDE)
        if not (0 < self.width <= MAX_MAGNITUDE and 0 < self.height <= MAX_MAGNITUDE):
            raise ValueError(f"image size must be positive, at most {MAX_MAGNITUDE:,.0f} px")


def _check_beacon_sep(name: str, value: float) -> None:
    # a narrower pair has no heading: geom.frame_from_beacons and beacon_yaw reject it
    if value <= EPS_BEACON:
        raise ValueError(f"{name} must be > {EPS_BEACON} m, got {value}")


@dataclass(frozen=True)
class CalibOptions:
    delta_px: float = 8.0
    iterations: int = 2000
    planar: bool = True

    def __post_init__(self):
        if self.delta_px <= 0:
            raise ValueError("delta_px must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class RefineConfig:
    radius: float = 1.5  # neighborhood around the unrefined center, meters
    shell_delta: float = 0.05  # shell half-thickness, meters
    iterations: int = 5000
    ground_threshold: float = 0.03  # plane inlier / ground strip distance, meters
    table_min_height: float = 0.3  # drop points below this height for tables
    plane_iterations: int = 100

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"RefineConfig.{f.name} must be positive")


# ---------------------------------------------------------------------------
# The rig that the stages read from a dataset's manifest, and the simulated
# scene (sim) that writes it.


@dataclass(frozen=True)
class ObjectSpec:
    """Measured object class and dimensions (meters)."""

    class_name: str
    length: float
    width: float
    height: float

    def __post_init__(self):
        if not all(d >= MIN_SIZE for d in self.dims):
            raise ValueError(f"object dimensions must be positive, at least {MIN_SIZE} m")

    @property
    def dims(self) -> tuple:
        return (self.length, self.width, self.height)

    FORM = {"class": str, "dims": tuple[float, float, float]}

    def to_dict(self) -> dict:
        return {"class": self.class_name, "dims": list(self.dims)}

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectSpec":
        return cls(d["class"], *d["dims"])


@dataclass(frozen=True)
class Rig:
    """All that the stages read of a dataset's manifest (its ``rig``): camera
    intrinsics, LiDAR mount and measured objects, ``{id: ObjectSpec}`` in id order."""

    intrinsics: CameraIntrinsics
    lidar_from_cam: Annotated[RigidTransform, "cam", "lidar"]
    objects: dict[str, ObjectSpec]

    def __post_init__(self):
        if not self.objects:
            raise ValueError("objects: needs at least one object")
        for object_id in self.objects:
            # beacons.csv names each row's frame: "robot" is the robot's, a
            # comma or a line break in an id would split its rows, and a lone
            # surrogate has no UTF-8, the file's encoding
            breaks = "".join(object_id.splitlines()) != object_id
            surrogate = any("\ud800" <= c <= "\udfff" for c in object_id)
            if object_id == "robot" or "," in object_id or breaks or surrogate:
                raise ValueError(
                    f"objects: id {object_id!r} must not be 'robot' or hold a comma, "
                    "line break or surrogate"
                )
        object.__setattr__(self, "objects", dict(sorted(self.objects.items())))


def _default_cam_from_robot() -> RigidTransform:
    """Camera mount: optical axis ahead of the robot, pitched 15 degrees down."""
    a = math.radians(15.0)
    base = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    pitch = np.array(
        [[1.0, 0.0, 0.0], [0.0, math.cos(a), -math.sin(a)], [0.0, math.sin(a), math.cos(a)]]
    )
    rot = pitch @ base
    cam_pos_robot = np.array([0.05, 0.0, 0.05])
    return RigidTransform(rot, -rot @ cam_pos_robot, src="robot", dst="cam")


def _default_lidar_from_cam(cam_from_robot: RigidTransform) -> RigidTransform:
    """LiDAR mount: axis-aligned with the robot, 0.1 m below the beacons."""
    lidar_pos_robot = np.array([0.0, 0.0, -0.1])
    lidar_from_robot = RigidTransform(
        np.eye(3), -lidar_pos_robot, src="robot", dst="lidar"
    )
    return compose(lidar_from_robot, inverse(cam_from_robot))


DEFAULT_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
DEFAULT_CAM_FROM_ROBOT = _default_cam_from_robot()
DEFAULT_LIDAR_FROM_CAM = _default_lidar_from_cam(DEFAULT_CAM_FROM_ROBOT)


@dataclass(frozen=True)
class LidarConfig:
    channels: int = 16
    vfov_min_deg: float = -15.0
    vfov_max_deg: float = 15.0
    azimuth_step_deg: float = 0.2
    max_range: float = 30.0

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.azimuth_step_deg <= 0 or self.max_range <= 0:
            raise ValueError("azimuth_step_deg and max_range must be positive")


@dataclass(frozen=True)
class ObjectPlacement:
    """An object instance: measured spec plus its true pose on the floor."""

    object_id: str
    spec: ObjectSpec
    x: float
    y: float
    yaw: float
    beacon_sep: float = 0.4

    def __post_init__(self):
        _check_beacon_sep("beacon_sep", self.beacon_sep)

    # Dict form: flat, with the spec's class and dims beside the pose.
    FORM = {"id": str, **ObjectSpec.FORM, "x": float, "y": float, "yaw": float, "beacon_sep": float}

    def to_dict(self) -> dict:
        pose = {"x": self.x, "y": self.y, "yaw": self.yaw, "beacon_sep": self.beacon_sep}
        return {"id": self.object_id, **self.spec.to_dict(), **pose}

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectPlacement":
        spec = ObjectSpec.from_dict(d)
        return cls(d["id"], spec, d["x"], d["y"], d["yaw"], d.get("beacon_sep", cls.beacon_sep))


def _default_objects() -> tuple:
    return (
        ObjectPlacement("obj0", ObjectSpec("cabinet", 0.9, 0.5, 1.3), 4.0, 0.9, 0.4),
        ObjectPlacement("obj1", ObjectSpec("table", 1.2, 0.8, 0.75), 3.4, -1.6, -0.3),
    )


@dataclass(frozen=True)
class SceneConfig:
    objects: tuple[ObjectPlacement, ...] = field(default_factory=_default_objects)
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    # Annotated with the frames (src, dst), which their dict form leaves out.
    cam_from_robot: Annotated[RigidTransform, "robot", "cam"] = DEFAULT_CAM_FROM_ROBOT
    lidar_from_cam: Annotated[RigidTransform, "cam", "lidar"] = DEFAULT_LIDAR_FROM_CAM
    lidar: LidarConfig = LidarConfig()
    beacon_noise: float = 0.02  # uniform half-width per axis, meters
    pixel_noise_sigma: float = 0.0  # Gaussian, pixels (calibration pixels only)
    # Heights (robot_beacon_height, table_z, and each object's dims) are
    # measured from the floor plane z = floor_z.
    robot_beacon_height: float = 0.7
    robot_beacon_sep: float = 0.4
    collection_readings: int = 1
    calibration_readings: int = 16
    calibration_points: int = 63
    floor_z: float = 0.0
    table_z: float = 0.75  # calibration table plane height
    robot_radius_min: float = 3.5
    robot_radius_max: float = 5.5
    heading_jitter_deg: float = 3.0

    def __post_init__(self):
        if self.beacon_noise < 0 or self.pixel_noise_sigma < 0:
            raise ValueError("noise levels must be >= 0")
        _check_beacon_sep("robot_beacon_sep", self.robot_beacon_sep)
        for name in ("collection_readings", "calibration_readings"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.calibration_points < MIN_PNP_POINTS:
            raise ValueError(f"calibration_points must be >= {MIN_PNP_POINTS}")
        if self.robot_radius_min > self.robot_radius_max:
            raise ValueError("robot_radius_min must be <= robot_radius_max")
        ids = [o.object_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"object ids must be unique, got {ids}")
        self.rig  # checks the ids as a manifest's rig is checked

    @property
    def rig(self) -> Rig:
        """The rig that the stages read of a dataset simulated from this scene."""
        objects = {o.object_id: o.spec for o in self.objects}
        return Rig(self.intrinsics, self.lidar_from_cam, objects)


def _manifest_rig(path: str) -> Rig:
    """The rig of the dataset manifest at ``path``."""
    return read_json(path, lambda manifest: from_dict(Rig, manifest["rig"], "rig"))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    calibration: CalibOptions = CalibOptions()
    refine: RefineConfig = RefineConfig()
    scene: SceneConfig = field(default_factory=SceneConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def config_from_dict(d: dict) -> PipelineConfig:
    return from_dict(PipelineConfig, {} if d is None else d, "")


def load_config(path: str | None, seed: int | None = None) -> PipelineConfig:
    """The config file at ``path`` (the defaults if None); ``seed`` overrides its seed."""
    cfg = PipelineConfig() if path is None else config_from_dict(_read_yaml(path))
    return cfg if seed is None else replace(cfg, seed=seed)


def _read_yaml(path: str):
    """The config file at ``path``: strict JSON as fileio.decode_json reads
    it, with no PyYAML; any other text, and JSON that it rejects, as YAML."""
    try:
        text = read_text(path)
    except UnicodeDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    try:
        return decode_json(text)
    except (ValueError, RecursionError):
        pass  # YAML reads it, and names the line of a fault
    return _load_yaml(path, text)


def _load_yaml(path: str, text: str):
    """The YAML document ``text`` of the config file at ``path``."""
    import yaml  # imported here: a run without a config file, or with JSON, does not pay for it

    class UniqueKeyLoader(yaml.SafeLoader):
        """SafeLoader that rejects a mapping key given twice, where YAML keeps the last."""

        def construct_mapping(self, node, deep=False):
            # the keys written here; the base class adds a << merge's, which they may override
            key_nodes = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep=deep)  # rejects unhashable keys
            seen = set()
            for key_node in key_nodes:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
            return mapping

    try:
        stream = io.StringIO(text)
        stream.name = path  # the name that yaml's error marks give, for "<unicode string>"
        return yaml.load(stream, Loader=UniqueKeyLoader)
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
