"""Deterministic synthetic datasets for desk-scale experiments.

Four families: isotropic gaussian blobs, the classic two moons, concentric
rings, and noisy binary glyphs on a 5x5 grid (useful with the grid
augmentations). All are fully labelled; ids are sequential and class-major.
"""

import numpy as np

from .datasets import Samples
from .errors import ConfigError
from .seeding import rng

GRID_ROWS = 5
GRID_COLS = 5
# distance of every blob center from the origin
BLOB_RADIUS = 4.0


def _to_samples(points_per_class):
    sizes = [len(points) for points in points_per_class]
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return Samples.clean(np.arange(sum(sizes)), np.concatenate(points_per_class), labels)


def make_blobs(classes, per_class, noise, seed):
    """Isotropic gaussians at ``classes`` distinct centers on a circle."""
    points = []
    for cls in range(classes):
        angle = 2.0 * np.pi * cls / classes
        center = BLOB_RADIUS * np.array([np.cos(angle), np.sin(angle)])
        jitter = rng(seed, "blobs", cls).normal(0.0, 1.0, size=(per_class, 2))
        points.append(center + noise * jitter)
    return _to_samples(points)


def make_moons(classes, per_class, noise, seed):
    """Two interleaving half-circles; only supports exactly two classes."""
    t = np.linspace(0.0, np.pi, per_class)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    points = []
    for cls, base in enumerate([upper, lower]):
        jitter = rng(seed, "moons", cls).normal(0.0, 1.0, size=base.shape)
        points.append(base + noise * jitter)
    return _to_samples(points)


def make_rings(classes, per_class, noise, seed):
    """Concentric circles, one radius per class."""
    points = []
    for cls in range(classes):
        angles = np.linspace(0.0, 2.0 * np.pi, per_class, endpoint=False)
        base = (cls + 1.0) * np.column_stack([np.cos(angles), np.sin(angles)])
        jitter = rng(seed, "rings", cls).normal(0.0, 1.0, size=base.shape)
        points.append(base + noise * jitter)
    return _to_samples(points)


def make_digits_grid(classes, per_class, noise, seed):
    """Noisy copies of one random binary 5x5 glyph per class."""
    d = GRID_ROWS * GRID_COLS
    points = []
    for cls in range(classes):
        proto = rng(seed, "digits-proto", cls).integers(0, 2, size=d).astype(np.float64)
        jitter = rng(seed, "digits", cls).normal(0.0, 1.0, size=(per_class, d))
        points.append(proto + noise * jitter)
    return _to_samples(points)


_GENERATORS = {
    "blobs": make_blobs,
    "moons": make_moons,
    "rings": make_rings,
    "digits_grid": make_digits_grid,
}
SYNTH_KINDS = tuple(_GENERATORS)


def check_spec(kind, classes, per_class, noise):
    """Raise ConfigError unless ``generate`` accepts these arguments."""
    if kind not in _GENERATORS:
        raise ConfigError(f"unsupported synthetic kind {kind!r}")
    if classes < 2:
        raise ConfigError("synthetic data needs at least 2 classes")
    if kind == "moons" and classes != 2:
        raise ConfigError("moons supports exactly 2 classes")
    if per_class < 1:
        raise ConfigError("per_class must be >= 1")
    if not np.isfinite(noise) or noise < 0:
        raise ConfigError(f"noise must be a finite number >= 0, got {noise!r}")


def generate(kind, classes, per_class, noise, seed):
    """Dispatch to a generator by kind name."""
    check_spec(kind, classes, per_class, noise)
    return _GENERATORS[kind](classes, per_class, noise, seed)
