"""Exception types shared across the package, and the config type check.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2, everything else -> 3.
"""

import math
import numbers
from contextlib import contextmanager
from dataclasses import fields
from typing import Literal, get_args, get_origin


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


def optional(tp):
    """``(X, True)`` for an ``X | None`` annotation, else ``(tp, False)``."""
    if type(None) not in getattr(tp, "__args__", ()):
        return tp, False
    return next(t for t in tp.__args__ if t is not type(None)), True


def coerce(tp, value, where):
    """``value`` as the scalar type ``tp``: bool and str exactly, a float any
    real number but NaN, an int a whole one; a bool is never a number. A
    ``Literal`` of strings is text that is one of its choices."""
    if get_origin(tp) is Literal:
        choices = get_args(tp)
        if coerce(str, value, where) not in choices:
            listed = ", ".join(map(repr, choices))
            raise ConfigError(f"{where} must be one of {listed}, got {value!r}")
        return value
    if tp in (bool, str) and isinstance(value, tp):
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if tp is float and number and not math.isnan(value):
        return float(value)
    if tp is int and number and value % 1 == 0:
        return int(value)
    what = {bool: "true or false", int: "an integer", float: "a number", str: "text"}
    raise ConfigError(f"{where} must be {what[tp]}, got {value!r}")


def check_fields(section):
    """Coerce a section's scalar fields; the rest hold their class (or None if optional)."""
    for f in fields(section):
        tp, nullable = optional(f.type)
        value, where = getattr(section, f.name), f"{type(section).__name__}.{f.name}"
        scalar = tp in (bool, int, float, str) or get_origin(tp) is Literal
        if scalar and (value is not None or not nullable):
            object.__setattr__(section, f.name, coerce(tp, value, where))
        elif not isinstance(value, f.type):  # ``X | None`` admits None
            raise ConfigError(f"{where} must be of type {tp.__name__}, got {value!r}")


@contextmanager
def writing(path):
    """Turn an OSError raised while writing ``path`` into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
