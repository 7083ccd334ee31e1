"""Confidence metrics over posterior distributions.

Three metrics cover distinct failure modes: the winning probability itself,
the margin over the runner-up, and the distance to the per-class prototype
(the mean posterior over all training samples assigned to the predicted
class). A weighted combination yields the single confidence the admission
threshold acts on; the distance metric is inverted so that higher is better
everywhere.
"""

from dataclasses import dataclass, fields

import numpy as np

from .classifier import predict_proba_batch
from .ensemble import ensemble_posteriors, select_distribution
from .errors import ConfigError, DataError, MissingPrototypeError

COMBINE_MODES = ("bounded", "reciprocal")


@dataclass
class PrototypeTable:
    """Per-class mean posterior distributions with sample counts."""

    table: np.ndarray  # (C, C); row y = mean posterior over samples labelled y
    counts: np.ndarray  # (C,) samples per class

    def present(self, label) -> bool:
        return 0 <= label < len(self.counts) and self.counts[label] > 0

    def get(self, label) -> np.ndarray:
        if not self.present(label):
            raise MissingPrototypeError(f"no prototype for class {label}")
        return self.table[label]


@dataclass(frozen=True)
class MetricWeights:
    w_a: float
    w_b: float
    w_c: float

    def __post_init__(self):
        if self.w_a < 0 or self.w_b < 0 or self.w_c < 0:
            raise ConfigError("metric weights must be non-negative")
        if self.w_a + self.w_b + self.w_c <= 0:
            raise ConfigError("metric weights must not all be zero")

    @classmethod
    def equal(cls):
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass
class ConfidenceReport:
    predicted_label: int
    runner_up: int
    c_a: float
    c_b: float
    c_c: float
    combined: float


def top_two(dist):
    """Indices of the two largest entries; ties go to the lower index."""
    dist = np.asarray(dist)
    if dist.shape[0] < 2:
        raise DataError("top_two needs at least two classes")
    order = np.argsort(-dist, kind="stable")
    return int(order[0]), int(order[1])


def metric_ca(dist) -> float:
    """The winning posterior probability."""
    return float(np.max(dist))


def metric_cb(dist) -> float:
    """Margin between the winning and runner-up probabilities."""
    y1, y2 = top_two(dist)
    return float(dist[y1] - dist[y2])


def metric_cc(dist, prototypes) -> float:
    """Euclidean distance from the predicted class's prototype distribution."""
    y1, _ = top_two(dist)
    proto = prototypes.get(y1)
    return float(np.linalg.norm(np.asarray(dist) - proto))


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

    ids: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    c_a: np.ndarray
    c_b: np.ndarray
    c_c: np.ndarray
    scorable: np.ndarray

    def __getitem__(self, index):
        """The entries selected by ``index`` (a mask, slice or index array)."""
        return BlockScores(*(getattr(self, f.name)[index] for f in fields(self)))

    @classmethod
    def concatenate(cls, blocks):
        return cls(
            *(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(cls))
        )


def score_block(model, prototypes, plan, samples, seed, population_std=True):
    """Ensemble-select a distribution per sample and compute the raw metrics.

    Returns BlockScores in the order of ``samples``. Each sample's result
    depends only on the sample and (seed, sample id), not on the block.
    """
    chosen = select_distribution(
        ensemble_posteriors(model, plan, samples, seed), population_std=population_std
    )
    dist = chosen.distribution
    order = np.argsort(-dist, axis=1, kind="stable")
    y1, y2 = order[:, 0], order[:, 1]
    rows = np.arange(len(dist))
    c_a = dist[rows, y1]
    scorable = prototypes.counts[y1] > 0
    diff = dist - prototypes.table[y1]
    # a stacked (1, C) @ (C, 1) product takes the same dot product as
    # np.linalg.norm does on one row, so block and one-sample distances agree
    c_c = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return BlockScores(
        ids=samples.ids,
        y1=y1,
        y2=y2,
        c_a=c_a,
        c_b=c_a - dist[rows, y2],
        c_c=np.where(scorable, c_c, np.nan),
        scorable=scorable,
    )


def metrics_for_sample(
    model, prototypes, plan, sample, seed, population_std=True
):
    """Ensemble-select a distribution and compute the three raw metrics.

    ``sample`` is a one-row set. Returns (y1, y2, c_a, c_b, c_c). Raises
    MissingPrototypeError when the predicted class has no prototype; callers
    skip such samples.
    """
    s = score_block(
        model, prototypes, plan, sample, seed, population_std=population_std
    )
    if not s.scorable[0]:
        raise MissingPrototypeError(f"no prototype for class {s.y1[0]}")
    return int(s.y1[0]), int(s.y2[0]), float(s.c_a[0]), float(s.c_b[0]), float(s.c_c[0])


def score_sample(
    model,
    prototypes,
    plan,
    sample,
    weights,
    mode="bounded",
    seed=0,
    population_std=True,
    epsilon=1e-6,
) -> ConfidenceReport:
    """Full confidence pipeline for one sample: ensemble, metrics, combination."""
    y1, y2, c_a, c_b, c_c = metrics_for_sample(
        model, prototypes, plan, sample, seed, population_std=population_std
    )
    c = combine(c_a, c_b, c_c, weights, mode=mode, epsilon=epsilon)
    return ConfidenceReport(
        predicted_label=y1, runner_up=y2, c_a=c_a, c_b=c_b, c_c=c_c, combined=float(c)
    )


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


def calibrate_weights(
    model, prototypes, plan, calibration, seed, population_std=True
) -> MetricWeights:
    """Score labelled calibration samples and weight the metrics by accuracy."""
    if not calibration:
        raise DataError("cannot calibrate weights on an empty set")
    labels = calibration.label
    if (labels < 0).any():
        sid = calibration.ids[np.argmax(labels < 0)]
        raise DataError(f"calibration sample {sid} has no label")
    scores = score_block(
        model, prototypes, plan, calibration, seed, population_std=population_std
    )
    ok = scores.scorable
    if not ok.any():
        raise DataError("no calibration sample could be scored")
    return weights_from_scored(
        scores.c_a[ok], scores.c_b[ok], scores.c_c[ok], scores.y1[ok] == labels[ok]
    )
