import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ile import ConfigError, DataError
from ile.augment import AugmentationPlan, GaussianJitter, GridHFlip, GridShift, Identity
from ile.classifier import (
    MLP,
    SOFTMAX_REGRESSION,
    ModelState,
    init_model,
    predict_proba_batch,
)
from ile.confidence import (
    MetricWeights,
    MissingPrototypeError,
    PrototypeTable,
    block_metrics,
    build_prototypes,
    combine,
    metrics_for_sample,
    score_block,
    weights_from_scored,
)
from ile.ensemble import ensemble_predict, select_distribution
from ile.seeding import rng as seeded_rng

from conftest import logit_model, make_sample, samples_of
from test_ensemble import oracle_select

# frozen hand-derived values for the worked distance and combination cases
CC_EXAMPLE = 0.282842712474619  # sqrt(0.04 + 0.04)
COMBINE_EXAMPLE = 0.6598395969294858  # (0.7 + 0.5 + 1/(1 + CC_EXAMPLE)) / 3


def proto_table(rows, counts=None):
    table = np.asarray(rows, dtype=np.float64)
    if counts is None:
        counts = np.ones(table.shape[0], dtype=np.int64)
    return PrototypeTable(table=table, counts=np.asarray(counts))


def metrics(rows, table=None):
    """``block_metrics`` of hand-written distributions, one per row.

    Without a table every class gets the uniform prototype.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if table is None:
        C = rows.shape[1]
        table = proto_table(np.full((C, C), 1.0 / C))
    return block_metrics(rows, table)


# ---------------------------------------------------------------------------
# Individual metrics
# ---------------------------------------------------------------------------

def test_top_two_ordering_and_ties():
    s = metrics([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.1, 0.2, 0.7]])
    assert list(zip(s.y1.tolist(), s.y2.tolist())) == [(0, 1), (0, 1), (0, 1), (2, 1)]


def test_metric_ca_values():
    assert metrics([[0.7, 0.2, 0.1]]).c_a[0] == 0.7
    assert metrics([[1.0, 0.0]]).c_a[0] == 1.0
    assert metrics([[0.25, 0.25, 0.25, 0.25]]).c_a[0] == 0.25


def test_metric_cb_values():
    assert metrics([[0.7, 0.2, 0.1]]).c_b[0] == pytest.approx(0.5)
    assert metrics([[0.25, 0.25, 0.25, 0.25]]).c_b[0] == 0.0
    assert metrics([[1.0, 0.0]]).c_b[0] == 1.0


def test_metric_cc_values():
    table = proto_table([[0.6, 0.4], [0.1, 0.9]])
    c_c = metrics([[0.8, 0.2], [0.6, 0.4]], table).c_c
    assert c_c[0] == pytest.approx(CC_EXAMPLE, abs=1e-12)
    assert c_c[1] == 0.0
    one_hot = proto_table([[0.0, 1.0], [0.5, 0.5]])
    assert metrics([[1.0, 0.0]], one_hot).c_c[0] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_metric_cc_requires_a_prototype():
    table = proto_table([[0.6, 0.4], [0.0, 0.0]], counts=[1, 0])
    s = metrics([[0.8, 0.2], [0.2, 0.8]], table)
    np.testing.assert_array_equal(s.scorable, [True, False])
    assert np.isfinite(s.c_c[0])
    assert np.isnan(s.c_c[1])


# ---------------------------------------------------------------------------
# Prototypes
# ---------------------------------------------------------------------------

def test_prototype_of_single_sample_is_its_posterior():
    model = logit_model()
    s = make_sample(0, np.log([0.8, 0.2]), 0)
    t = make_sample(1, np.log([0.3, 0.7]), 1)
    table = build_prototypes(model, samples_of(s, t))
    np.testing.assert_allclose(table.table[0], [0.8, 0.2], atol=1e-12)
    np.testing.assert_allclose(table.table[1], [0.3, 0.7], atol=1e-12)
    np.testing.assert_array_equal(table.counts, [1, 1])


def test_prototype_is_the_mean_posterior():
    model = logit_model()
    labelled = samples_of(
        make_sample(0, np.log([0.8, 0.2]), 0),
        make_sample(1, np.log([0.6, 0.4]), 0),
    )
    table = build_prototypes(model, labelled)
    np.testing.assert_allclose(table.table[0], [0.7, 0.3], atol=1e-12)
    assert table.counts[0] == 2
    assert table.counts[1] == 0
    # a sample predicted as class 1 has no prototype to be compared with
    assert not metrics([[0.3, 0.7]], table).scorable[0]


def test_build_prototypes_rejects_empty():
    with pytest.raises(DataError):
        build_prototypes(logit_model(), make_sample(0, [0.0, 0.0], 0)[:0])


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------

def test_combine_all_best_is_one():
    w = MetricWeights.equal()
    assert combine(1.0, 1.0, 0.0, w, mode="bounded") == pytest.approx(1.0, abs=1e-12)


def test_combine_projects_onto_single_metric():
    w = MetricWeights(1.0, 0.0, 0.0)
    for cb, cc in [(0.0, 0.0), (0.5, 1.0), (0.7, 0.1)]:
        assert combine(0.7, cb, cc, w) == pytest.approx(0.7, abs=1e-12)


def test_combine_worked_example():
    got = combine(0.7, 0.5, CC_EXAMPLE, MetricWeights.equal(), mode="bounded")
    assert got == pytest.approx(COMBINE_EXAMPLE, abs=1e-12)


def test_combine_reciprocal_mode():
    w = MetricWeights(0.0, 0.0, 1.0)
    assert combine(0.9, 0.9, 0.5, w, mode="reciprocal") == pytest.approx(2.0)
    # the epsilon floor caps the blow-up at a perfect match
    assert combine(0.9, 0.9, 0.0, w, mode="reciprocal", epsilon=1e-3) == pytest.approx(
        1e3
    )
    with pytest.raises(ConfigError):
        combine(0.5, 0.5, 0.5, w, mode="harmonic")


@settings(max_examples=200, deadline=None)
@given(
    c_a=st.floats(0.2, 1.0),
    c_b=st.floats(0.0, 1.0),
    c_c=st.floats(0.0, math.sqrt(2)),
    bump=st.floats(1e-6, 0.5),
    weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    mode=st.sampled_from(["bounded", "reciprocal"]),
)
def test_combine_monotonicity(c_a, c_b, c_c, bump, weights, mode):
    if sum(weights) <= 0:
        weights = (1.0, 1.0, 1.0)
    w = MetricWeights(*weights)
    base = combine(c_a, c_b, c_c, w, mode=mode)
    assert combine(c_a + bump, c_b, c_c, w, mode=mode) >= base
    assert combine(c_a, c_b + bump, c_c, w, mode=mode) >= base
    assert combine(c_a, c_b, c_c + bump, w, mode=mode) <= base


def test_metric_weights_validation():
    with pytest.raises(ConfigError):
        MetricWeights(-0.1, 0.5, 0.6)
    with pytest.raises(ConfigError):
        MetricWeights(0.0, 0.0, 0.0)
    w = MetricWeights.equal()
    assert w.w_a + w.w_b + w.w_c == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Full per-sample scoring
# ---------------------------------------------------------------------------

def test_perfectly_confident_sample_scores_the_weight_sum():
    model = logit_model(scale=1.0)
    # logits (40, -40) saturate the softmax to a one-hot in float64
    s = make_sample(0, [40.0, -40.0], 0)
    table = build_prototypes(model, s)
    block = score_block(model, table, AugmentationPlan.identity_only(), s, seed=0)
    combined = combine(block.c_a, block.c_b, block.c_c, MetricWeights(0.2, 0.3, 0.5))
    assert block.y1[0] == 0
    assert block.c_a[0] == 1.0
    assert block.c_b[0] == 1.0
    assert block.c_c[0] == 0.0
    assert combined[0] == pytest.approx(1.0, abs=1e-12)


def test_metric_ranges_hold_on_fuzzed_distributions():
    rng = np.random.default_rng(555)
    for _ in range(10_000):
        C = int(rng.integers(2, 7))
        dist = rng.dirichlet(np.full(C, rng.uniform(0.2, 3.0)))
        proto = rng.dirichlet(np.ones(C), size=C)
        table = proto_table(proto)
        s = metrics([dist], table)
        c_a, c_b, c_c = s.c_a[0], s.c_b[0], s.c_c[0]
        assert 1.0 / C - 1e-12 <= c_a <= 1.0 + 1e-12
        assert -1e-12 <= c_b <= c_a + 1e-12
        assert -1e-12 <= c_c <= math.sqrt(2) + 1e-12


def oracle_score(model, table, vectors, weights, mode, epsilon):
    """Python-loop re-derivation of the whole scoring pipeline."""
    rows = []
    for v in vectors:
        logits = [
            sum(v[i] * model.params["W"][i][c] for i in range(model.d))
            + model.params["b"][c]
            for c in range(model.C)
        ]
        m = max(logits)
        exps = [math.exp(z - m) for z in logits]
        total = sum(exps)
        rows.append([e / total for e in exps])
    a, dist, _, _ = oracle_select(rows)
    order = sorted(range(len(dist)), key=lambda c: (-dist[c], c))
    y1, y2 = order[0], order[1]
    proto = table.table[y1]
    c_a = dist[y1]
    c_b = dist[y1] - dist[y2]
    c_c = math.sqrt(sum((dist[c] - proto[c]) ** 2 for c in range(len(dist))))
    if mode == "bounded":
        inv = 1.0 / (1.0 + c_c)
    else:
        inv = 1.0 / max(c_c, epsilon)
    c = weights.w_a * c_a + weights.w_b * c_b + weights.w_c * inv
    return y1, y2, c_a, c_b, c_c, c


def random_model(rng, d, C):
    return ModelState(
        architecture=SOFTMAX_REGRESSION,
        d=d,
        C=C,
        hidden_units=0,
        params={"W": rng.normal(size=(d, C)), "b": rng.normal(size=C)},
        trained=True,
    )


def test_score_sample_matches_straight_line_oracle():
    rng = np.random.default_rng(31337)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        d = int(rng.integers(2, 5))
        C = int(rng.integers(2, 6))
        model = random_model(rng, d, C)
        extra = [GaussianJitter(float(rng.uniform(0.05, 0.8))) for _ in range(int(rng.integers(0, 4)))]
        plan = AugmentationPlan.from_transforms([Identity(), *extra])
        sample = make_sample(int(rng.integers(0, 1 << 20)), rng.normal(size=d))
        table = proto_table(rng.dirichlet(np.ones(C), size=C))
        weights = MetricWeights(*rng.dirichlet(np.ones(3)))
        mode = "bounded" if trial % 2 == 0 else "reciprocal"
        seed = int(rng.integers(0, 1 << 30))

        got = score_block(model, table, plan, sample, seed)
        combined = combine(got.c_a, got.c_b, got.c_c, weights, mode=mode)
        vectors = [
            sample.X[0] + seeded_rng(seed, int(sample.ids[0]), i).normal(0.0, t.sigma, d)
            if isinstance(t, GaussianJitter)
            else sample.X[0]
            for i, t in enumerate(plan.transforms)
        ]
        y1, y2, c_a, c_b, c_c, c = oracle_score(
            model, table, [v.tolist() for v in vectors], weights, mode, 1e-6
        )
        assert got.y1[0] == y1
        assert got.y2[0] == y2
        for a, b in [
            (got.c_a[0], c_a),
            (got.c_b[0], c_b),
            (got.c_c[0], c_c),
            (combined[0], c),
        ]:
            worst = max(worst, abs(a - b))
    assert worst <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_score_sample_raises_without_prototype():
    model = logit_model(scale=10.0)
    s = make_sample(0, [5.0, -5.0], 0)  # predicted class 0
    table = proto_table([[0.0, 0.0], [0.5, 0.5]], counts=[0, 1])
    plan = AugmentationPlan.identity_only()
    block = score_block(model, table, plan, s, seed=0)
    assert block.y1[0] == 0
    assert not block.scorable[0]
    assert np.isnan(block.c_c[0])
    with pytest.raises(MissingPrototypeError):
        metrics_for_sample(model, table, plan, s, seed=0)


# ---------------------------------------------------------------------------
# Weight calibration
# ---------------------------------------------------------------------------

def columns(rows):
    """(c_a, c_b, c_c, correct) rows to the four per-sample arrays."""
    return tuple(np.array(col) for col in zip(*rows))


def test_equal_metric_accuracies_give_equal_weights():
    rows = [
        (0.9, 0.8, 0.1, True),
        (0.8, 0.7, 0.2, True),
        (0.3, 0.2, 0.8, False),
        (0.2, 0.1, 0.9, False),
    ]
    w = weights_from_scored(*columns(rows))
    assert (w.w_a, w.w_b, w.w_c) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_proportional_weight_normalization():
    # top half by c_a is all correct; by c_b and by low c_c only half correct
    rows = [
        (0.9, 0.10, 0.10, True),
        (0.8, 0.90, 0.20, True),
        (0.2, 0.80, 0.05, False),
        (0.1, 0.05, 0.90, False),
    ]
    w = weights_from_scored(*columns(rows))
    assert (w.w_a, w.w_b, w.w_c) == pytest.approx((0.5, 0.25, 0.25))


def test_all_wrong_falls_back_to_equal_weights():
    rows = [(0.9, 0.5, 0.1, False), (0.8, 0.4, 0.2, False), (0.7, 0.3, 0.3, False)]
    w = weights_from_scored(*columns(rows))
    assert (w.w_a, w.w_b, w.w_c) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(DataError):
        weights_from_scored([], [], [], [])


def calibrated_weights(model, table, labelled):
    """Weights from the scorable rows of one identity-only block, as the loop does."""
    s = score_block(model, table, AugmentationPlan.identity_only(), labelled, seed=0)
    ok = s.scorable
    return weights_from_scored(
        s.c_a[ok], s.c_b[ok], s.c_c[ok], (s.y1 == labelled.label)[ok]
    )


def test_calibrate_weights_end_to_end():
    model = logit_model()
    labelled = samples_of(
        make_sample(0, np.log([0.9, 0.1]), 0),
        make_sample(1, np.log([0.8, 0.2]), 0),
        make_sample(2, np.log([0.2, 0.8]), 1),
        make_sample(3, np.log([0.35, 0.65]), 1),
    )
    w = calibrated_weights(model, build_prototypes(model, labelled), labelled)
    # every sample is classified correctly, so all metrics tie
    assert (w.w_a, w.w_b, w.w_c) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_calibrate_weights_skips_unscorable_samples():
    model = logit_model(scale=10.0)
    table = proto_table([[0.9, 0.1], [0.0, 0.0]], counts=[1, 0])
    ok = make_sample(0, [5.0, -5.0], 0)  # predicted 0, has a prototype
    orphan = make_sample(1, [-5.0, 5.0], 1)  # predicted 1, prototype missing
    w = calibrated_weights(model, table, samples_of(ok, orphan))
    assert (w.w_a, w.w_b, w.w_c) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(DataError):
        calibrated_weights(model, table, orphan)
    with pytest.raises(DataError):
        calibrated_weights(model, table, ok[:0])


# ---------------------------------------------------------------------------
# Block scoring against one-sample scoring
# ---------------------------------------------------------------------------

# float64 with a handful of rounding steps per metric; fixed before running
BLOCK_RTOL, BLOCK_ATOL = 1e-12, 1e-14


def one_sample_vectors(sample, plan, seed):
    """The augmented copies of one sample, built transform by transform.

    Written out per kind for a 2 x 2 grid, without ``augment.apply`` or the
    transforms' block code, as the reference for the block path.
    """
    x = [float(v) for v in sample.X[0]]
    out = []
    for slot, t in enumerate(plan.transforms):
        if isinstance(t, GaussianJitter):
            noise = seeded_rng(seed, int(sample.ids[0]), slot).normal(0.0, t.sigma, len(x))
            out.append([v + e for v, e in zip(x, noise)])
        elif isinstance(t, GridHFlip):
            out.append([x[1], x[0], x[3], x[2]])
        elif isinstance(t, GridShift):
            assert (t.dx, t.dy) == (1, 0)
            out.append([0.0, x[0], 0.0, x[2]])
        else:
            out.append(list(x))
    return out


def oracle_metrics(dist, table):
    """The two top classes and three metrics of one distribution, one by one.

    Ties go to the lower class index; ``c_c`` is None when the predicted
    class has no prototype.
    """
    dist = [float(p) for p in dist]
    y1, y2 = sorted(range(len(dist)), key=lambda c: (-dist[c], c))[:2]
    c_c = None
    if table.counts[y1] > 0:
        c_c = float(np.linalg.norm(np.array(dist) - table.table[y1]))
    return y1, y2, dist[y1], dist[y1] - dist[y2], c_c


def oracle_block_row(model, table, plan, sample, seed):
    """Per-sample reference scores, one augmented copy at a time.

    Each augmented copy goes through the model alone, as a one-row batch;
    selection comes from ``select_distribution`` on that sample's own
    (A, C) matrix and the metrics from ``oracle_metrics``. Returns None when
    two rows of the ensemble tie within rounding, as either may then win.
    """
    z = np.array(
        [
            predict_proba_batch(model, np.array(v)[None])[0]
            for v in one_sample_vectors(sample, plan, seed)
        ]
    )
    chosen = select_distribution(z)
    row_best = np.sort((z - chosen.sigma).max(axis=1))[::-1]
    if len(row_best) > 1 and row_best[0] - row_best[1] <= 1e-9:
        return None
    dist = chosen.distribution
    return (dist, *oracle_metrics(dist, table))


@settings(max_examples=60, deadline=None)
@given(
    A=st.sampled_from([1, 3, 5]),
    architecture=st.sampled_from([SOFTMAX_REGRESSION, MLP]),
    n=st.integers(1, 40),
    C=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    present=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_block_scoring_matches_one_sample_scoring(A, architecture, n, C, seed, present):
    rng = np.random.default_rng(seed)
    d = 4  # a 2 x 2 grid, so every transform kind applies
    model = replace(
        init_model(architecture, d, C, seed=seed, hidden_units=6),
        trained=True,
    )
    model.params.update({k: 3.0 * v for k, v in model.params.items()})
    pool = [
        GaussianJitter(0.3),
        GridHFlip(2, 2),
        GridShift(2, 2, 1, 0),
        GaussianJitter(0.8),
    ]
    plan = AugmentationPlan.from_transforms([Identity(), *pool[: A - 1]])
    # classes without a prototype make some samples unscorable
    counts = np.array(present[:C], dtype=np.int64)
    table = proto_table(rng.dirichlet(np.ones(C), size=C), counts=counts)
    ids = rng.choice(1 << 20, size=n, replace=False)
    rows = [make_sample(int(i), rng.normal(scale=2.0, size=d)) for i in ids]

    block = score_block(model, table, plan, samples_of(*rows), seed)
    # one entry per sample, in the order of the block; each row is checked below
    assert block.y1.shape == block.scorable.shape == (n,)
    for i, s in enumerate(rows):
        oracle = oracle_block_row(model, table, plan, s, seed)
        if oracle is not None:
            dist, y1, y2, c_a, c_b, c_c = oracle
            top = np.sort(dist)[::-1]
            if top[0] - top[1] > 1e-9:
                assert block.y1[i] == y1
                assert block.scorable[i] == (c_c is not None)
                if C == 2 or top[1] - top[2] > 1e-9:
                    assert block.y2[i] == y2
            if block.scorable[i] and c_c is not None:
                np.testing.assert_allclose(
                    [block.c_a[i], block.c_b[i], block.c_c[i]],
                    [c_a, c_b, c_c],
                    rtol=BLOCK_RTOL,
                    atol=BLOCK_ATOL,
                )

        dist = ensemble_predict(model, plan, s, seed).distribution
        top = np.sort(dist)[::-1]
        try:
            y1, y2, c_a, c_b, c_c = metrics_for_sample(model, table, plan, s, seed)
        except MissingPrototypeError:
            if top[0] - top[1] > 1e-9:
                assert not block.scorable[i]
            continue
        if top[0] - top[1] > 1e-9:
            assert block.scorable[i]
            assert block.y1[i] == y1
            if C == 2 or top[1] - top[2] > 1e-9:
                assert block.y2[i] == y2
        if block.scorable[i]:
            np.testing.assert_allclose(
                [block.c_a[i], block.c_b[i], block.c_c[i]],
                [c_a, c_b, c_c],
                rtol=BLOCK_RTOL,
                atol=BLOCK_ATOL,
            )
