"""Feature-space augmentations for ensemble scoring.

The transforms are generic stand-ins that work on any block of flat feature
vectors: additive gaussian jitter plus horizontal flip and shift for vectors
that are row-major flattenings of a rows x cols grid. The transform list is
fully config-driven; the original sample is always element 0 of the ensemble.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError
from .seeding import rng


@dataclass(frozen=True)
class Identity:
    def apply(self, X, ids, seed, slot):
        return X


@dataclass(frozen=True)
class GaussianJitter:
    """Additive noise; sample ``ids[i]`` draws from its own (seed, id, slot) stream."""

    sigma: float

    def __post_init__(self):
        s = self.sigma
        number = isinstance(s, numbers.Real) and not isinstance(s, bool)
        if not number or not math.isfinite(s) or s < 0:
            raise ConfigError(
                "transform 'gaussian_jitter': sigma must be a finite number >= 0, "
                f"got {s!r}"
            )

    def apply(self, X, ids, seed, slot):
        if self.sigma == 0.0:
            return X
        noise = np.empty_like(X)
        for i, sid in enumerate(ids):
            noise[i] = rng(seed, sid, slot).normal(0.0, self.sigma, size=X.shape[1])
        return X + noise


def _check_grid(t, kind):
    """Grid parameters are integers, with rows and cols at least 1."""
    for f in fields(t):
        value = getattr(t, f.name)
        least = 1 if f.name in ("rows", "cols") else None
        integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if not integer or (least is not None and value < least):
            bound = f" >= {least}" if least is not None else ""
            raise ConfigError(
                f"transform {kind!r}: {f.name} must be an integer{bound}, got {value!r}"
            )


def _as_grids(X, rows, cols):
    if X.shape[1] != rows * cols:
        raise DataError(
            f"grid transform needs {rows * cols} features, got {X.shape[1]}"
        )
    return X.reshape(len(X), rows, cols)


@dataclass(frozen=True)
class GridHFlip:
    rows: int
    cols: int

    def __post_init__(self):
        _check_grid(self, "grid_hflip")

    def apply(self, X, ids, seed, slot):
        return _as_grids(X, self.rows, self.cols)[:, :, ::-1].reshape(len(X), -1)


@dataclass(frozen=True)
class GridShift:
    """Translate the grid by (dx, dy) cells, zero-filling vacated cells."""

    rows: int
    cols: int
    dx: int
    dy: int

    def __post_init__(self):
        _check_grid(self, "grid_shift")

    def apply(self, X, ids, seed, slot):
        g = _as_grids(X, self.rows, self.cols)
        out = np.zeros_like(g)
        r0, r1 = max(self.dy, 0), self.rows + min(self.dy, 0)
        c0, c1 = max(self.dx, 0), self.cols + min(self.dx, 0)
        if r0 < r1 and c0 < c1:
            out[:, r0:r1, c0:c1] = g[
                :, r0 - self.dy : r1 - self.dy, c0 - self.dx : c1 - self.dx
            ]
        return out.reshape(len(X), -1)


_KINDS = {
    "identity": Identity,
    "gaussian_jitter": GaussianJitter,
    "grid_hflip": GridHFlip,
    "grid_shift": GridShift,
}


def make_transform(kind, **params):
    cls = _KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown transform kind {kind!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for transform {kind!r}: {exc}") from exc


def transform_to_dict(t) -> dict:
    for kind, cls in _KINDS.items():
        if isinstance(t, cls):
            out = {"kind": kind}
            for name in getattr(cls, "__dataclass_fields__", {}):
                out[name] = getattr(t, name)
            return out
    raise ConfigError(f"unknown transform object {t!r}")


def transform_from_dict(spec) -> object:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"transform spec must be a dict with a 'kind': {spec!r}")
    params = {k: v for k, v in spec.items() if k != "kind"}
    return make_transform(spec["kind"], **params)


@dataclass(frozen=True)
class AugmentationPlan:
    """Ordered transform list; the first entry must be the identity."""

    transforms: tuple

    def __post_init__(self):
        if not self.transforms:
            raise ConfigError("augmentation plan needs at least one transform")
        if not isinstance(self.transforms[0], Identity):
            raise ConfigError("the first transform must be the identity")

    @property
    def count(self) -> int:
        return len(self.transforms)

    @classmethod
    def from_transforms(cls, transforms):
        return cls(tuple(transforms))

    @classmethod
    def identity_only(cls):
        return cls((Identity(),))


def apply(plan, samples, seed):
    """The augmented copies of a block of samples as an (n, A, d) array.

    Slot 0 holds the originals. A transform maps the whole (n, d) block at
    once; stochastic ones draw from a stream derived from (seed, sample id,
    slot), so results are independent of how samples are grouped or
    ordered, and noise-free transforms build no stream at all.
    """
    ids = samples.ids.tolist()  # Python ints: seed parts
    out = np.empty((len(samples), plan.count, samples.X.shape[1]))
    for slot, t in enumerate(plan.transforms):
        out[:, slot] = t.apply(samples.X, ids, seed, slot)
    return out
