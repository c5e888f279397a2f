"""Exception taxonomy shared across the package.

Every category maps to a stable CLI exit code (see cli._EXIT_CODES).
"""


class AmcrError(Exception):
    """Base class for all package errors."""


class ShapeError(AmcrError):
    """Operand dimensions are incompatible with the operation."""


class ParameterError(AmcrError):
    """An operation parameter is outside its admissible range."""


class DataError(AmcrError):
    """A sample, label, or batch violates its contract."""


class TapeError(AmcrError):
    """A gradient was requested for a value outside the active graph."""


class StateError(AmcrError):
    """Training stages were invoked out of order."""


class ConfigError(AmcrError):
    """A run configuration is malformed or carries unknown keys."""


class FormatError(AmcrError):
    """A file on disk does not match its declared binary/text format."""


class VersionError(FormatError):
    """A checkpoint was written by an incompatible format version."""


class DependencyError(AmcrError):
    """A CLI command is missing a prior artifact it depends on."""
