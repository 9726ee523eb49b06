"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, GeometryError and
BundleError -> 3, NumericalError -> 4.
"""


class RakikitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RakikitError):
    """Invalid configuration value or unknown config key."""


class GeometryError(RakikitError):
    """Shape, axis, or sampling-pattern mismatch between inputs."""


class NumericalError(RakikitError):
    """Numerical failure (NaN loss, singular system, ...)."""


class BundleError(RakikitError):
    """Base class for tensor-bundle (de)serialization failures."""


class PayloadLengthError(BundleError):
    """Payload byte length disagrees with the header shape."""


class UnknownDtypeError(BundleError):
    """Header declares a dtype this toolkit does not read."""


class ByteOrderError(BundleError):
    """Header declares a byte order other than little-endian."""
