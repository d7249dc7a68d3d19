"""Exception hierarchy shared across the pipeline: every leaf is a UsageError
(the CLI exits 2) or a NumericalError (exit 4); any other exception is a bug.
"""


def error_text(e: BaseException) -> str:
    """A caught error as written to label entries, study rows and stderr: "Type: message"."""
    return f"{type(e).__name__}: {e}"


class IpsLabelError(Exception):
    """Base class for all ipslabel errors."""


class UsageError(IpsLabelError, ValueError):
    """The input, configuration or arguments are wrong; the caller can fix them."""


class NumericalError(IpsLabelError):
    """The input is well formed, but the computation on it failed."""


class ConfigError(UsageError):
    """Bad or inconsistent configuration input."""


# --- geometry ---------------------------------------------------------------

class DegenerateBeaconPair(NumericalError):
    """Beacons coincide in the xy-plane; heading is undefined."""


class FrameMismatch(UsageError):
    """Transform frames do not chain."""


class EmptyReadings(UsageError):
    """No beacon readings to average."""


# --- camera / calibration ---------------------------------------------------

class BehindCamera(NumericalError):
    """Point has non-positive depth in the camera frame."""


class MissingPlaneTag(UsageError):
    """Correspondence lacks a plane tag while the planar constraint is on."""


class DegenerateConfiguration(NumericalError):
    """Point configuration leaves the pose underdetermined."""


class NoConvergence(NumericalError):
    """Pose refinement failed numerically."""


class TooFewInliers(NumericalError):
    """RANSAC consensus too small to refit a pose."""


class EmptySubset(UsageError):
    """RMSE requested over an empty index set."""


# --- label generation -------------------------------------------------------

class AllVerticesBehindCamera(NumericalError):
    """Every box vertex projects behind the camera."""


# --- refinement -------------------------------------------------------------

class TooFewPoints(NumericalError):
    """Not enough points for the requested fit."""


class NoPlaneFound(NumericalError):
    """Plane RANSAC never reached the minimum inlier ratio."""


class EmptyNeighborhood(NumericalError):
    """No points survive cropping around the unrefined label."""


class DegenerateSample(NumericalError):
    """Sampled points cannot form a box proposal."""


class AllProposalsDegenerate(NumericalError):
    """Every RANSAC iteration produced a degenerate proposal."""


# --- evaluation / IO --------------------------------------------------------

class MissingSample(UsageError):
    """Sample ids do not match between label directories."""


class ClassMismatch(UsageError):
    """Labelled object classes cannot be paired."""
