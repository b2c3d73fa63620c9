"""Exception types shared across the package."""


class SoftgripError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDataError(SoftgripError):
    """Too few samples for the requested polynomial degree."""


class RankDeficientError(SoftgripError):
    """Design matrix is numerically rank deficient (e.g. all angles identical)."""


class ZeroVarianceError(SoftgripError):
    """R^2 is undefined because all force values are identical."""


class OutOfRangeError(SoftgripError):
    """Angle outside the model's calibrated range plus margin (extrapolation risk)."""


class NonFiniteError(SoftgripError):
    """NaN or infinity fed to a controller."""


class ConfigError(SoftgripError):
    """Invalid or unparsable configuration; message lists per-field diagnostics."""
