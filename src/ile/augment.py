"""Feature-space augmentations for ensemble scoring.

The transforms are generic stand-ins that work on any block of flat feature
vectors: additive gaussian jitter plus horizontal flip and shift for vectors
that are row-major flattenings of a rows x cols grid. The transform list is
fully config-driven; the original sample is always element 0 of the ensemble.

Each transform is a config section: its dataclass fields are its JSON
parameters, decoded by the schema walker in ``config.py``, and its ``kind``
is the JSON name that ``TRANSFORMS`` maps back to the class. A transform
checks its parameters' ranges when it is built.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError, check_fields
from .seeding import rng


@dataclass(frozen=True)
class Identity:
    kind: ClassVar[str] = "identity"

    def apply(self, X, ids, seed, slot):
        return X


@dataclass(frozen=True)
class GaussianJitter:
    """Additive noise; sample ``ids[i]`` draws from its own (seed, id, slot) stream."""

    kind: ClassVar[str] = "gaussian_jitter"
    sigma: float

    def __post_init__(self):
        check_fields(self)
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ConfigError(
                f"transform {self.kind!r}: sigma must be a finite number >= 0, "
                f"got {self.sigma!r}"
            )

    def apply(self, X, ids, seed, slot):
        if self.sigma == 0.0:
            return X
        noise = np.empty_like(X)
        for i, sid in enumerate(ids):
            noise[i] = rng(seed, sid, slot).normal(0.0, self.sigma, size=X.shape[1])
        return X + noise


def _check_grid(t):
    """A grid transform's parameters are whole numbers; it has a row and a column."""
    check_fields(t)
    for name in ("rows", "cols"):
        value = getattr(t, name)
        if value < 1:
            raise ConfigError(f"transform {t.kind!r}: {name} must be >= 1, got {value!r}")


def _as_grids(X, rows, cols):
    if X.shape[1] != rows * cols:
        raise DataError(
            f"grid transform needs {rows * cols} features, got {X.shape[1]}"
        )
    return X.reshape(len(X), rows, cols)


@dataclass(frozen=True)
class GridHFlip:
    kind: ClassVar[str] = "grid_hflip"
    rows: int
    cols: int

    def __post_init__(self):
        _check_grid(self)

    def apply(self, X, ids, seed, slot):
        return _as_grids(X, self.rows, self.cols)[:, :, ::-1].reshape(X.shape)


@dataclass(frozen=True)
class GridShift:
    """Translate the grid by (dx, dy) cells, zero-filling vacated cells."""

    kind: ClassVar[str] = "grid_shift"
    rows: int
    cols: int
    dx: int
    dy: int

    def __post_init__(self):
        _check_grid(self)

    def apply(self, X, ids, seed, slot):
        g = _as_grids(X, self.rows, self.cols)
        out = np.zeros_like(g)
        r0, r1 = max(self.dy, 0), self.rows + min(self.dy, 0)
        c0, c1 = max(self.dx, 0), self.cols + min(self.dx, 0)
        if r0 < r1 and c0 < c1:
            out[:, r0:r1, c0:c1] = g[
                :, r0 - self.dy : r1 - self.dy, c0 - self.dx : c1 - self.dx
            ]
        return out.reshape(X.shape)


TRANSFORMS = {t.kind: t for t in (Identity, GaussianJitter, GridHFlip, GridShift)}


@dataclass(frozen=True)
class AugmentationPlan:
    """Ordered transform list; the first entry must be the identity."""

    transforms: tuple

    def __post_init__(self):
        check_fields(self)
        if not self.transforms:
            raise ConfigError("augmentation plan needs at least one transform")
        for i, t in enumerate(self.transforms):
            if not isinstance(t, tuple(TRANSFORMS.values())):
                raise ConfigError(
                    f"AugmentationPlan.transforms[{i}] must be a transform, got {t!r}"
                )
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
