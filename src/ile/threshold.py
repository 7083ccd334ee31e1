"""Accuracy-constrained admission thresholds.

The threshold is learned by sweeping the distinct confidence values observed
on labelled training data and keeping the smallest value whose pass-set label
accuracy meets the target. Learning on training data is deliberate: the model
is most confident on samples it has seen, which makes the learned cut-off
conservative when transferred to the unlabelled pool. If no candidate meets
the target the sentinel +inf admits nothing.
"""

import math

import numpy as np

from .errors import DataError


def _pass_counts(confidences, correct, strict):
    """Pass-set size and correct count at every distinct candidate value.

    Returns (candidates desc, k, num_correct) where k[i] is the number of
    samples passing candidate i under the admit rule.
    """
    order = np.argsort(-confidences, kind="stable")
    c_sorted = confidences[order]
    cum_correct = np.cumsum(correct[order])
    n = len(c_sorted)
    is_last = np.empty(n, dtype=bool)
    is_last[:-1] = c_sorted[:-1] != c_sorted[1:]
    is_last[-1] = True
    last_idx = np.nonzero(is_last)[0]
    candidates = c_sorted[last_idx]
    if strict:
        # conf > candidate: everything before the candidate's first occurrence
        first_idx = np.concatenate(([0], last_idx[:-1] + 1))
        k = first_idx
        num_correct = np.where(k > 0, cum_correct[np.maximum(k - 1, 0)], 0)
    else:
        k = last_idx + 1
        num_correct = cum_correct[last_idx]
    return candidates, k, num_correct


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
    candidates, k, num_correct = _pass_counts(confidences, correct, strict)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(k > 0, num_correct / np.maximum(k, 1), np.nan)
    ok = (k > 0) & (q >= target_accuracy)
    if not ok.any():
        return math.inf
    # candidates are in descending order; the smallest qualifying one is last
    return float(candidates[np.nonzero(ok)[0][-1]])


def select_admissions(confidences, t_c, strict=False):
    """Mask of the samples whose combined confidence passes ``t_c``.

    ``confidences`` is a per-sample array; a sample passes with a
    confidence of at least ``t_c`` under the closed rule and above it
    under the open (``strict``) rule.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    return confidences > t_c if strict else confidences >= t_c
