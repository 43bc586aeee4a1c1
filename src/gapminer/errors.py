"""Exception hierarchy shared across the pipeline: one class per exit code.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
InternalError -> 4, and prints each as one line; any other exception is a
bug and exits 4 as well. Whatever a stage raises while it hashes its inputs
or runs reaches the CLI with `stage <name>: ` in front of its message: an
error of these kinds keeps its class, and any other exception becomes an
InternalError naming its type. A traceback is logged at DEBUG level only.
"""


class GapminerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GapminerError):
    """Invalid configuration, flags, or generator parameters."""


class DataError(GapminerError):
    """Unusable input data or artifacts: a malformed corpus, a damaged
    artifact, an infeasible resampling, a failed write."""


class InternalError(GapminerError):
    """An internal invariant was violated; indicates a bug, not bad data."""
