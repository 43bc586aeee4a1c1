"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
InternalError -> 4.
"""


class GapminerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GapminerError):
    """Invalid configuration, flags, or generator parameters."""


class DataError(GapminerError):
    """Unusable input data or missing upstream artifacts."""


class CorpusQualityError(DataError):
    """More than half of the corpus lines were malformed."""


class InfeasibleResamplingError(DataError):
    """Label randomization cannot satisfy the distinctness constraint."""


class UnknownDisciplineError(DataError):
    """A requested discipline does not occur in the corpus."""


class MissingDependencyError(DataError):
    """A discipline that papers belong to has no diagram to classify them by."""


class InternalError(GapminerError):
    """An internal invariant was violated; indicates a bug, not bad data."""
