"""Exception hierarchy shared across the pipeline: every error is a UsageError
(the CLI exits 2) or a NumericalError (exit 4); any other exception is a bug.

A fault gets a class of its own only where a caller catches it by type (the
benchmark's tracer counts some) or error_text writes its name into an
output; any other fault raises its base with its message.
"""


def error_text(e: BaseException) -> str:
    """A caught error as written to label entries, study rows and stderr: "Type: message"."""
    return f"{type(e).__name__}: {e}"


class UsageError(ValueError):
    """The input, configuration or arguments are wrong; the caller can fix them."""


class NumericalError(Exception):
    """The input is well formed, but the computation on it failed."""


# --- geometry ---------------------------------------------------------------

class DegenerateBeaconPair(NumericalError):
    """Beacons coincide in the xy-plane; heading is undefined."""


class EmptyReadings(UsageError):
    """No beacon readings to average."""


# --- camera / calibration ---------------------------------------------------

class DegenerateConfiguration(NumericalError):
    """Point configuration leaves the pose underdetermined."""


class NoConvergence(NumericalError):
    """Pose refinement failed numerically."""


class TooFewInliers(NumericalError):
    """RANSAC consensus too small to refit a pose."""


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
