"""Confidence metrics over posterior distributions.

Three metrics cover distinct failure modes: the winning probability itself,
the margin over the runner-up, and the distance to the per-class prototype
(the mean posterior over all training samples assigned to the predicted
class). A weighted combination yields the single confidence the admission
threshold acts on; the distance metric is inverted so that higher is better
everywhere. ``block_metrics`` is the one place the metrics are computed, on
a block of chosen distributions at a time.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .classifier import predict_proba_batch
from .ensemble import ensemble_posteriors, select_distribution
from .errors import ConfigError, DataError, MissingPrototypeError, check_fields


@dataclass
class PrototypeTable:
    """Per-class mean posterior distributions with sample counts.

    A class with count 0 has no prototype; samples predicted as it are not
    scorable.
    """

    table: np.ndarray  # (C, C); row y = mean posterior over samples labelled y
    counts: np.ndarray  # (C,) samples per class


@dataclass(frozen=True)
class MetricWeights:
    w_a: float
    w_b: float
    w_c: float

    def __post_init__(self):
        check_fields(self)
        if not all(0 <= w < math.inf for w in (self.w_a, self.w_b, self.w_c)):
            raise ConfigError("metric weights must be finite and non-negative")
        if self.w_a + self.w_b + self.w_c <= 0:
            raise ConfigError("metric weights must not all be zero")

    @classmethod
    def equal(cls):
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def build_prototypes(model, labelled) -> PrototypeTable:
    """Mean posterior per assigned class over the labelled set."""
    if not labelled:
        raise DataError("cannot build prototypes from an empty labelled set")
    y = labelled.label
    probs = predict_proba_batch(model, labelled.X)
    table = np.zeros((model.C, model.C))
    counts = np.zeros(model.C, dtype=np.int64)
    for cls in range(model.C):
        mask = y == cls
        counts[cls] = mask.sum()
        if counts[cls]:
            table[cls] = probs[mask].mean(axis=0)
    return PrototypeTable(table=table, counts=counts)


def combine(c_a, c_b, c_c, weights, mode="bounded", epsilon=1e-6):
    """Weighted sum of the three metrics with the distance metric inverted.

    Works elementwise on scalars or arrays. "bounded" inverts via
    1/(1+c_c), which stays in (0, 1] and is finite at a perfect prototype
    match; "reciprocal" is the raw 1/c_c with an epsilon floor to avoid the
    singularity at zero.
    """
    if mode == "bounded":
        inv = 1.0 / (1.0 + c_c)
    elif mode == "reciprocal":
        inv = 1.0 / np.maximum(c_c, epsilon)
    else:
        raise ConfigError(f"unknown combine mode {mode!r}")
    return weights.w_a * c_a + weights.w_b * c_b + weights.w_c * inv


@dataclass
class BlockScores:
    """Raw metrics of a block of samples, one entry per sample.

    ``scorable`` is False where the predicted class ``y1`` has no prototype;
    ``c_c`` is NaN there and callers skip the sample.
    """

    y1: np.ndarray
    y2: np.ndarray
    c_a: np.ndarray
    c_b: np.ndarray
    c_c: np.ndarray
    scorable: np.ndarray

    @classmethod
    def concatenate(cls, blocks):
        return cls(
            *(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(cls))
        )


def block_metrics(dist, prototypes) -> BlockScores:
    """The raw metrics of chosen distributions, one (C,) row per sample.

    ``y1`` and ``y2`` are the two most probable classes (ties go to the
    lower index); ``c_a`` is the winning probability, ``c_b`` its margin
    over the runner-up and ``c_c`` the Euclidean distance from the
    prototype of ``y1``.
    """
    order = np.argsort(-dist, axis=1, kind="stable")
    y1, y2 = order[:, 0], order[:, 1]
    rows = np.arange(len(dist))
    c_a = dist[rows, y1]
    scorable = prototypes.counts[y1] > 0
    diff = dist - prototypes.table[y1]
    # one stacked (1, C) @ (C, 1) dot product per row, so a row's distance
    # does not depend on the rest of the block
    c_c = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return BlockScores(
        y1=y1,
        y2=y2,
        c_a=c_a,
        c_b=c_a - dist[rows, y2],
        c_c=np.where(scorable, c_c, np.nan),
        scorable=scorable,
    )


def score_block(model, prototypes, plan, samples, seed, population_std=True):
    """Ensemble-select a distribution per sample and compute the raw metrics.

    Returns BlockScores in the order of ``samples``. Each sample's result
    depends only on the sample and (seed, sample id), not on the block.
    """
    chosen = select_distribution(
        ensemble_posteriors(model, plan, samples, seed), population_std=population_std
    )
    return block_metrics(chosen.distribution, prototypes)


# kept only as a hook for bench/tracing.py until ROADMAP item 8 removes it
def metrics_for_sample(model, prototypes, plan, sample, seed, population_std=True):
    """(y1, y2, c_a, c_b, c_c) of a one-row set; MissingPrototypeError if unscorable."""
    s = score_block(model, prototypes, plan, sample, seed, population_std=population_std)
    if not s.scorable[0]:
        raise MissingPrototypeError(f"no prototype for class {s.y1[0]}")
    return int(s.y1[0]), int(s.y2[0]), float(s.c_a[0]), float(s.c_b[0]), float(s.c_c[0])


def weights_from_scored(c_a, c_b, c_c, correct) -> MetricWeights:
    """Weights proportional to each metric's top-half label accuracy.

    The arguments are per-sample arrays of the three metrics and of whether
    the predicted label is correct. Samples are ranked best-first per metric
    (ascending for the distance metric) and the accuracy of the top half
    measured; weights are the three accuracies normalized to sum to one,
    falling back to equal when all are zero.
    """
    correct = np.asarray(correct, dtype=np.float64)
    if len(correct) == 0:
        raise DataError("cannot calibrate weights from an empty scored set")
    half = (len(correct) + 1) // 2

    def top_half_accuracy(keys):
        order = np.argsort(keys, kind="stable")
        return float(correct[order[:half]].mean())

    accs = np.array(
        [
            top_half_accuracy(-np.asarray(c_a, dtype=np.float64)),
            top_half_accuracy(-np.asarray(c_b, dtype=np.float64)),
            top_half_accuracy(np.asarray(c_c, dtype=np.float64)),
        ]
    )
    total = accs.sum()
    if total <= 0:
        return MetricWeights.equal()
    return MetricWeights(*(accs / total))
