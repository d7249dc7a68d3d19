"""Layered pipeline configuration: defaults < config file < CLI flags.

The config file is YAML; its shape is the dict form of PipelineConfig (see
fileio.from_dict). Unknown keys and mistyped values are rejected with the
dotted key named, and YAML syntax errors surface with their line/column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .fileio import from_dict, read_text
from .refine import RefineConfig
from .sim import SceneConfig


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


def load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    import yaml  # imported here: a run without a config file does not pay for it

    try:
        raw = yaml.safe_load(read_text(path))
    except (yaml.YAMLError, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    return config_from_dict(raw)
