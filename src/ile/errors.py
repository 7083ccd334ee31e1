"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2, everything else -> 3.
"""

import numbers
from contextlib import contextmanager
from dataclasses import fields


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


def check_numbers(section):
    """Raise ConfigError unless each int or float field of ``section`` holds a number.

    A field annotated ``X | None`` may also hold None. Sections call this
    before their range checks, which would otherwise raise a bare TypeError.
    """
    for f in fields(section):
        kinds = getattr(f.type, "__args__", (f.type,))
        value = getattr(section, f.name)
        if not {int, float} & set(kinds) or (value is None and type(None) in kinds):
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(
                f"{type(section).__name__}.{f.name} must be a number, got {value!r}"
            )


@contextmanager
def writing(path):
    """Turn an OSError raised while writing ``path`` into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
