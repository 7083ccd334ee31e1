"""Accuracy-constrained admission thresholds.

A sample passes a cut with a confidence of at least the cut under the
closed admission rule, and above it under the open rule. The threshold is
learned by sweeping the distinct confidence values observed on labelled
training data and keeping the smallest value whose pass-set label accuracy
meets the target. Learning on training data is deliberate: the model is
most confident on samples it has seen, which makes the learned cut-off
conservative when transferred to the unlabelled pool. If no candidate meets
the target the sentinel +inf admits nothing.
"""

import math

import numpy as np

from .errors import DataError


def _as_arrays(confidences, correct):
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.shape != correct.shape:
        raise DataError(
            f"{confidences.shape} confidences but {correct.shape} correctness flags"
        )
    if len(confidences) == 0:
        raise DataError("cannot judge a threshold on an empty scored set")
    return confidences, correct


def threshold_accuracy(confidences, correct, t_c, strict=False):
    """Label accuracy among samples passing ``t_c``; None if nothing passes.

    ``confidences`` and ``correct`` are per-sample arrays: the combined
    confidence and whether the predicted label is right.
    """
    confidences, correct = _as_arrays(confidences, correct)
    passes = select_admissions(confidences, t_c, strict)
    total = int(passes.sum())
    if total == 0:
        return None
    return int(correct[passes].sum()) / total


def learn_threshold(confidences, correct, target_accuracy, strict=False) -> float:
    """Smallest observed confidence whose pass set is accurate enough.

    Candidates are exactly the distinct values in ``confidences``;
    candidates whose pass set is empty are excluded rather than counted as
    successes. Returns +inf when no candidate qualifies.
    """
    confidences, correct = _as_arrays(confidences, correct)
    order = np.argsort(-confidences, kind="stable")
    c_sorted = confidences[order]
    hits = np.cumsum(correct[order])
    # each candidate's last copy in descending order: it passes rows 0..last
    last = np.flatnonzero(np.append(c_sorted[:-1] != c_sorted[1:], True))
    ok = hits[last] / (last + 1) >= target_accuracy
    if strict:
        # under ">" candidate i passes what candidate i-1 passes under ">=",
        # and the largest candidate passes nothing
        ok = np.append(False, ok[:-1])
    if not ok.any():
        return math.inf
    # candidates are in descending order; the smallest qualifying one is last
    return float(c_sorted[last[ok][-1]])


def select_admissions(confidences, t_c, strict=False):
    """Mask of the samples whose combined confidence passes ``t_c``.

    ``confidences`` is a per-sample array; a sample passes with a
    confidence of at least ``t_c`` under the closed rule and above it
    under the open (``strict``) rule.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    return confidences > t_c if strict else confidences >= t_c
