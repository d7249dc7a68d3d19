"""ipslabel: object-detection labels from indoor-positioning beacons.

Generates 2D image boxes and 3D LiDAR-frame boxes for tagged objects from
beacon measurements, a calibrated camera extrinsic (PnP + RANSAC with a
planar height constraint), and a generalized-RANSAC point-cloud refiner,
verified end-to-end against a built-in synthetic scene simulator.
"""

__version__ = "0.1.0"

from . import errors
from .calib import (
    CalibrationResult,
    CameraIntrinsics,
    Correspondence,
    apply_planar_constraint,
    project,
    reprojection_rmse,
    solve_pnp,
    solve_pnp_ransac,
)
from .cloud import PointCloud, read_ply, write_ply
from .config import CalibOptions, PipelineConfig, load_config
from .eval import EvalReport, compare_labels, downsample_study, iou_2d, iou_3d
from .geom import (
    BeaconPair,
    RigidTransform,
    average_beacon_readings,
    beacon_yaw,
    compose,
    frame_from_beacons,
    inverse,
)
from .labelgen import (
    Box2,
    ObjectSpec,
    OrientedBox3,
    box_from_vertices,
    box_to_camera,
    box_to_lidar,
    object_box_ips,
    project_box,
)
from .refine import (
    CLASS_KINDS,
    GroundPlane,
    MpfKind,
    RefineConfig,
    crop_and_strip,
    fit_ground_plane,
    fitness,
    kinds_for_class,
    mpf_cabinet,
    mpf_cabinet_two_point,
    mpf_table,
    refine_label,
)
from .sim import (
    GroundTruthSample,
    LidarConfig,
    ObjectPlacement,
    SceneConfig,
    default_scene,
    emit_beacons,
    generate_dataset,
    make_calibration_set,
    make_sample,
    raycast_lidar,
)

__all__ = [
    "__version__",
    "errors",
    "BeaconPair",
    "RigidTransform",
    "average_beacon_readings",
    "beacon_yaw",
    "compose",
    "frame_from_beacons",
    "inverse",
    "CameraIntrinsics",
    "Correspondence",
    "CalibrationResult",
    "apply_planar_constraint",
    "project",
    "reprojection_rmse",
    "solve_pnp",
    "solve_pnp_ransac",
    "Box2",
    "ObjectSpec",
    "OrientedBox3",
    "box_from_vertices",
    "box_to_camera",
    "box_to_lidar",
    "object_box_ips",
    "project_box",
    "GroundPlane",
    "MpfKind",
    "RefineConfig",
    "CLASS_KINDS",
    "crop_and_strip",
    "fit_ground_plane",
    "fitness",
    "kinds_for_class",
    "mpf_cabinet",
    "mpf_cabinet_two_point",
    "mpf_table",
    "refine_label",
    "PointCloud",
    "read_ply",
    "write_ply",
    "GroundTruthSample",
    "LidarConfig",
    "ObjectPlacement",
    "SceneConfig",
    "default_scene",
    "emit_beacons",
    "generate_dataset",
    "make_calibration_set",
    "make_sample",
    "raycast_lidar",
    "EvalReport",
    "compare_labels",
    "downsample_study",
    "iou_2d",
    "iou_3d",
    "CalibOptions",
    "PipelineConfig",
    "load_config",
]
