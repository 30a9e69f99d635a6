"""Exception hierarchy shared by all latentvar modules."""


class LatentVarError(Exception):
    """Base class for all errors raised by this package."""


class CyclicLatent(LatentVarError):
    """The latent-to-latent block has a directed cycle (no nilpotency index)."""


class NonStationary(LatentVarError):
    """The full transition matrix has spectral radius >= 1."""


class InsufficientData(LatentVarError):
    """The panel is too short for the requested lag or horizon."""


class SingularCovariance(LatentVarError):
    """The lagged covariance matrix stayed singular even after the ridge fallback."""


class InconsistentRecovery(LatentVarError):
    """Tree recovery produced a network whose path census disagrees with the input."""


class NotIdentifiable(LatentVarError):
    """Tree recovery's one network fails the tree checks, or its profile closure passes its cap."""


class AmbiguousDistance(LatentVarError):
    """Some ordered pair of observed nodes has latent paths of several lengths."""


class CapExceeded(LatentVarError):
    """nm's partition search on a class passed its budget of row entries
    (rows checked times the class's initial latent count)."""


class ScaleExceeded(LatentVarError):
    """The brute-force search was asked for an instance beyond its size limits."""
