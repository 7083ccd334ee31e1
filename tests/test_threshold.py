import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ile import DataError
from ile.threshold import learn_threshold, select_admissions, threshold_accuracy


def scored(pairs):
    """(confidence, correct) pairs to the (confidences, correct) arrays."""
    return (
        np.array([conf for conf, _ in pairs], dtype=np.float64),
        np.array([ok for _, ok in pairs], dtype=bool),
    )


# ---------------------------------------------------------------------------
# threshold_accuracy
# ---------------------------------------------------------------------------

def test_accuracy_at_a_cut():
    rows = scored([(0.9, True), (0.8, True), (0.7, False)])
    assert threshold_accuracy(*rows, 0.75) == 1.0
    assert threshold_accuracy(*rows, -math.inf) == pytest.approx(2 / 3)
    assert threshold_accuracy(*rows, 0.95) is None
    assert threshold_accuracy(*rows, 0.8) == 1.0  # the cut itself passes
    assert threshold_accuracy(*rows, 0.8, strict=True) == 1.0  # only 0.9 passes
    assert threshold_accuracy(*rows, 0.7) == pytest.approx(2 / 3)
    with pytest.raises(DataError):
        threshold_accuracy([], [], 0.5)
    with pytest.raises(DataError):
        threshold_accuracy([0.5, 0.6], [True], 0.5)


# ---------------------------------------------------------------------------
# learn_threshold worked cases
# ---------------------------------------------------------------------------

def test_learned_cut_admits_the_accurate_prefix():
    rows = scored([(0.9, True), (0.8, True), (0.7, False), (0.6, True)])
    assert learn_threshold(*rows, 0.99) == 0.8
    assert learn_threshold(*rows, 0.5) == 0.6


def test_all_correct_gives_minimum_confidence():
    rows = scored([(0.9, True), (0.3, True), (0.5, True)])
    assert learn_threshold(*rows, 1.0) == 0.3


def test_unattainable_target_gives_infinity():
    rows = scored([(0.9, False), (0.8, False)])
    assert learn_threshold(*rows, 0.5) == math.inf
    with pytest.raises(DataError):
        learn_threshold([], [], 0.9)


def test_tied_confidences_are_evaluated_jointly():
    rows = scored([(0.8, True), (0.8, False), (0.5, True)])
    # the 0.8 candidate admits both tied rows jointly: accuracy 1/2; the 0.5
    # candidate admits everything: accuracy 2/3. Nothing reaches 0.75.
    assert learn_threshold(*rows, 0.75) == math.inf
    # a lower cut can qualify where a higher one fails
    assert learn_threshold(*rows, 0.6) == 0.5
    assert learn_threshold(*rows, 0.5) == 0.5


def test_learned_cut_satisfies_its_own_constraint():
    rnd = random.Random(4)
    for _ in range(200):
        n = rnd.randint(1, 60)
        rows = scored(
            [(round(rnd.uniform(0, 1), 2), rnd.random() < 0.7) for _ in range(n)]
        )
        for target in (0.6, 0.9, 1.0):
            t_c = learn_threshold(*rows, target)
            q = threshold_accuracy(*rows, t_c)
            assert q is None or q >= target


def test_threshold_is_monotone_in_the_target():
    rnd = random.Random(9)
    for _ in range(50):
        rows = scored(
            [(round(rnd.uniform(0, 1), 1), rnd.random() < 0.6) for _ in range(40)]
        )
        cuts = [learn_threshold(*rows, t) for t in (0.2, 0.5, 0.8, 0.95, 1.0)]
        assert cuts == sorted(cuts)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 20).map(lambda k: k / 20), st.booleans()),
        min_size=1,
        max_size=60,
    ),
    targets=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=6),
    strict=st.booleans(),
)
def test_threshold_is_non_decreasing_in_the_target_under_both_rules(
    rows, targets, strict
):
    confidences, correct = scored(rows)
    cuts = [learn_threshold(confidences, correct, t, strict) for t in sorted(targets)]
    assert cuts == sorted(cuts)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def oracle_threshold(confidences, correct, target, strict=False):
    """Evaluate every distinct value by definition; keep the smallest that works."""
    best = math.inf
    for t in np.unique(confidences):
        passes = confidences > t if strict else confidences >= t
        k = int(passes.sum())
        if k == 0:
            continue
        if correct[passes].sum() / k >= target:
            best = min(best, float(t))
    return best


@pytest.mark.parametrize("strict", [False, True])
def test_matches_exhaustive_sweep(strict):
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(1, 501))
        if trial % 2 == 0:
            conf = np.round(rng.uniform(0, 1, size=n), 2)  # heavy ties
        else:
            conf = rng.uniform(0, 1, size=n)
        correct = rng.random(n) < rng.uniform(0.3, 1.0)
        target = float(rng.uniform(0.3, 1.0))
        got = learn_threshold(conf, correct, target, strict=strict)
        want = oracle_threshold(conf, correct.astype(int), target, strict=strict)
        assert got == want, (trial, n, target, got, want)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# select_admissions
# ---------------------------------------------------------------------------

def pool_of(confidences, labels=None):
    """(ids, labels, confidences) arrays for pool samples 0..n-1."""
    n = len(confidences)
    return (
        np.arange(n),
        np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels),
        np.asarray(confidences, dtype=np.float64),
    )


def admitted(ids, labels, confidences, t_c, strict=False):
    """The (id, label, confidence) rows that select_admissions' mask keeps."""
    passes = select_admissions(confidences, t_c, strict)
    return list(zip(*(a[passes].tolist() for a in (ids, labels, confidences))))


def test_infinite_cut_admits_nothing():
    rows = pool_of([0.99, 0.8])
    assert admitted(*rows, math.inf) == []
    assert admitted(*rows, 1.5) == []


def test_admissions_match_a_filter_and_ignore_order():
    rows = pool_of([0.9, 0.4, 0.8, 0.7, 0.2])
    got = admitted(*rows, 0.7)
    assert {(sid, conf) for sid, _, conf in got} == {(0, 0.9), (2, 0.8), (3, 0.7)}
    shuffled = tuple(a[::-1] for a in rows)
    got2 = admitted(*shuffled, 0.7)
    assert sorted(got) == sorted(got2)
    # the boundary sample is dropped under the strict rule
    strict = admitted(*rows, 0.7, strict=True)
    assert {sid for sid, _, _ in strict} == {0, 2}


def test_admissions_carry_label_and_confidence():
    rows = (np.array([5]), np.array([3]), np.array([0.9]))
    got = select_admissions(rows[2], 0.5)
    assert admitted(*rows, 0.5) == [(5, 3, 0.9)]
    assert got.dtype == bool and got.shape == (1,)
