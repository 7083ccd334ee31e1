"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2, everything else -> 3.
"""

from contextlib import contextmanager


class IleError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IleError):
    """Invalid configuration or command usage."""


class DataError(IleError):
    """Malformed, inconsistent or missing data."""


class StateError(IleError):
    """Operation called on an object in the wrong state (e.g. untrained model)."""


class TrainingError(IleError):
    """Training could not be performed."""


class MissingPrototypeError(DataError):
    """No prototype distribution exists for the predicted class.

    Signals that a sample cannot be scored this iteration; callers skip it.
    """


@contextmanager
def writing(path):
    """Turn an OSError raised while writing ``path`` into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
