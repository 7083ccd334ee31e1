"""End-to-end acceptance gate: one test per advertised guarantee.

Each test states a headline property of the package — oracle equivalence
for the ensemble and threshold rules, the worked confidence values,
gradient correctness, and the behaviour of the full loop on a fixed
synthetic benchmark.  Run with ``pytest tests/test_acceptance.py -v`` for
the pass/fail lines and add ``-s`` to see the measured margins.

The loop benchmark uses a frozen blobs fixture: 4 classes in 2-d,
10 labelled samples per class, a 2000-sample unlabelled pool, 500
validation samples, target addition accuracy 0.99, 10 iterations of
softmax regression, seeds 0-3.  Everything is deterministic, so the
numbers printed here are stable across machines and reruns.
"""

import json
import math
import time

import numpy as np
import pytest

from ile.augment import AugmentationPlan, GaussianJitter, Identity
from ile.classifier import (
    MLP,
    SOFTMAX_REGRESSION,
    TrainConfig,
    init_model,
    loss_and_grad,
)
from ile.cli import main as cli_main
from ile.config import (
    ClassifierSpec,
    ConfidenceSpec,
    DataSource,
    LoopSpec,
    RunConfig,
    SplitSpec,
    SynthSpec,
    ThresholdSpec,
    config_to_dict,
)
from ile.confidence import MetricWeights, PrototypeTable, block_metrics, combine
from ile.datasets import split as split_samples
from ile.ensemble import select_distribution
from ile.loop import run_iteration, run_single
from ile.seeding import derive_seed
from ile.synth import generate
from ile.threshold import learn_threshold

from conftest import assert_partition
from test_ensemble import oracle_select, random_posterior_rows
from test_threshold import oracle_threshold

SEEDS = (0, 1, 2, 3)


def fixture_config(seed):
    """The frozen loop benchmark: 4x635 blobs = 40 + 2000 + 500 samples."""
    return RunConfig(
        data=DataSource(synth=SynthSpec("blobs", classes=4, per_class=635, noise=1.3)),
        split=SplitSpec(labelled_per_class=10, validation_count=500),
        classifier=ClassifierSpec(train=TrainConfig(epochs=60)),
        augment=AugmentationPlan.from_transforms(
            [Identity(), GaussianJitter(0.5), GaussianJitter(0.5)]
        ),
        confidence=ConfidenceSpec(weights=None),
        threshold=ThresholdSpec(target_accuracy=0.99),
        loop=LoopSpec(max_iterations=10),
        seed=seed,
    )


@pytest.fixture(scope="module")
def fixture_reports():
    """Run the blobs benchmark on all four seeds once; shared below."""
    start = time.perf_counter()
    reports = []
    for seed in SEEDS:
        cfg = fixture_config(seed)
        samples = generate(
            cfg.data.synth.kind,
            cfg.data.synth.classes,
            cfg.data.synth.per_class,
            cfg.data.synth.noise,
            seed=derive_seed(cfg.seed, "synth"),
        )
        reports.append(run_single(cfg, samples, base_seed=cfg.seed))
    return reports, time.perf_counter() - start


def test_ensemble_selection_matches_bruteforce_oracle():
    rng = np.random.default_rng(1311)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        A = int(rng.integers(1, 7))
        C = int(rng.integers(2, 6))
        rows = random_posterior_rows(rng, A, C)
        got = select_distribution(np.array(rows))
        want_a, want_dist, want_sigma, want_val = oracle_select(rows)
        assert got.chosen_index == want_a
        worst = max(worst, float(np.max(np.abs(got.distribution - np.array(want_dist)))))
        worst = max(worst, float(np.max(np.abs(got.sigma - np.array(want_sigma)))))
        worst = max(worst, abs(got.scaled_max - want_val))
    elapsed = time.perf_counter() - start
    print(f"\nensemble oracle: 1000 instances, worst deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_threshold_matches_exhaustive_sweep_oracle():
    rng = np.random.default_rng(1312)
    start = time.perf_counter()
    inf_count = 0
    for trial in range(500):
        n = int(rng.integers(1, 501))
        if trial % 2 == 0:
            conf = np.round(rng.uniform(0, 1, size=n), 2)  # heavy ties
        else:
            conf = rng.uniform(0, 1, size=n)
        correct = (rng.random(n) < rng.uniform(0.3, 1.0)).astype(int)
        target = float(rng.uniform(0.3, 1.0))
        got = learn_threshold(conf, correct == 1, target)
        want = oracle_threshold(conf, correct, target)
        assert got == want, (trial, n, target, got, want)
        inf_count += math.isinf(got)
    elapsed = time.perf_counter() - start
    print(f"\nthreshold oracle: 500 lists exact, {inf_count} unattainable, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_confidence_worked_examples_and_ranges():
    # worked values: distance from [0.8, 0.2] to its class prototype [0.6, 0.4]
    # and the equal-weight combination of (0.7, 0.5, that distance)
    table = PrototypeTable(
        table=np.array([[0.6, 0.4], [0.1, 0.9]]), counts=np.array([1, 1])
    )
    cc = float(block_metrics(np.array([[0.8, 0.2]]), table).c_c[0])
    assert cc == pytest.approx(0.2828, abs=1e-4)
    assert cc == pytest.approx(math.sqrt(0.08), abs=1e-6)
    combined = combine(0.7, 0.5, cc, MetricWeights.equal())
    assert combined == pytest.approx(0.65984, abs=1e-5)
    assert combined == pytest.approx((0.7 + 0.5 + 1 / (1 + math.sqrt(0.08))) / 3, abs=1e-6)
    print(f"\nworked values: c_c {cc:.12f}, combined {combined:.12f}")

    rng = np.random.default_rng(1313)
    for _ in range(10_000):
        C = int(rng.integers(2, 7))
        raw = rng.uniform(1e-3, 1.0, size=C)
        dist = raw / raw.sum()
        protos = rng.uniform(1e-3, 1.0, size=(C, C))
        protos /= protos.sum(axis=1, keepdims=True)
        proto_table = PrototypeTable(table=protos, counts=np.ones(C, dtype=np.int64))
        s = block_metrics(dist[None], proto_table)
        c_a, c_b, c_c = s.c_a[0], s.c_b[0], s.c_c[0]
        assert 1.0 / C - 1e-12 <= c_a <= 1.0 + 1e-12
        assert -1e-12 <= c_b <= c_a + 1e-12
        assert -1e-12 <= c_c <= math.sqrt(2) + 1e-12


@pytest.mark.parametrize("architecture", [SOFTMAX_REGRESSION, MLP])
def test_classifier_gradients_match_finite_differences(architecture):
    from test_classifier import central_difference

    rng = np.random.default_rng(1314)
    for _ in range(3):
        d = int(rng.integers(1, 6))
        C = int(rng.integers(2, 5))
        n = int(rng.integers(2, 11))
        model = init_model(
            architecture, d=d, C=C, seed=int(rng.integers(1 << 30)),
            hidden_units=3 if architecture == MLP else None,
        )
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        order = list(model.params)
        _, grads = loss_and_grad(model.params, architecture, X, y, C, l2=1e-3)
        analytic = np.concatenate([grads[k].ravel() for k in order])
        numeric = central_difference(model.params, architecture, X, y, C, 1e-3, order)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_blobs_fixture_addition_accuracy_floor(fixture_reports):
    reports, elapsed = fixture_reports
    print(f"\nblobs fixture, 4 seeds in {elapsed:.1f}s (target accuracy 0.99):")
    worst = 1.0
    for seed, rep in zip(SEEDS, reports):
        acc = rep.iterations[-1].cumulative_addition_accuracy
        assert acc is not None
        worst = min(worst, acc)
        print(
            f"  seed {seed}: cumulative addition accuracy {acc:.4f} "
            f"(gap below target {0.99 - acc:+.4f})"
        )
    assert worst >= 0.95, f"worst cumulative addition accuracy {worst:.4f}"
    assert elapsed < 60.0


def test_blobs_fixture_error_improvement_and_growth(fixture_reports):
    reports, elapsed = fixture_reports
    improved = 0
    print("\nblobs fixture, validation error vs labelled-only benchmark:")
    for seed, rep in zip(SEEDS, reports):
        improved += rep.final_val_error < rep.benchmark_val_error
        first, last = rep.iterations[0], rep.iterations[-1]
        final_dl = last.dl_size + last.added_count
        growth = final_dl / first.dl_size
        delta = rep.final_val_error - rep.benchmark_val_error
        print(
            f"  seed {seed}: benchmark {rep.benchmark_val_error:.4f} -> "
            f"final {rep.final_val_error:.4f} ({delta:+.4f}), "
            f"labelled set x{growth:.1f}"
        )
        assert final_dl >= 1.5 * first.dl_size
    print(f"  improved in {improved}/4 seeds")
    assert improved >= 3
    assert elapsed < 60.0


def test_report_json_byte_identical_across_runs(tmp_path):
    cfg = RunConfig(
        data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=80, noise=1.0)),
        split=SplitSpec(labelled_per_class=5, validation_count=60),
        classifier=ClassifierSpec(train=TrainConfig(epochs=40)),
        augment=AugmentationPlan.from_transforms([Identity(), GaussianJitter(0.3)]),
        threshold=ThresholdSpec(target_accuracy=0.95),
        loop=LoopSpec(max_iterations=3),
        seed=11,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1], "two runs differ"
    print(f"\nreport.json stable across reruns ({len(outputs[0])} bytes)")


def test_conservation_invariants_hold_every_iteration(fixture_reports):
    reports, _ = fixture_reports
    for rep in reports:
        first = rep.iterations[0]
        total = first.dl_size + first.du_size
        prev_dl = None
        for r in rep.iterations:
            assert r.dl_size + r.du_size == total
            if prev_dl is not None:
                assert r.dl_size >= prev_dl.dl_size
                assert r.dl_size == prev_dl.dl_size + prev_dl.added_count
            prev_dl = r

    # re-run one seed step by step to check id-set disjointness directly
    cfg = fixture_config(0)
    samples = generate(
        cfg.data.synth.kind,
        cfg.data.synth.classes,
        cfg.data.synth.per_class,
        cfg.data.synth.noise,
        seed=derive_seed(cfg.seed, "synth"),
    )
    triple = split_samples(
        samples,
        cfg.split.labelled_per_class,
        cfg.split.validation_count,
        seed=derive_seed(cfg.seed, "split"),
    )
    records = []
    for it in range(1, 4):
        triple, record = run_iteration(cfg, triple, records, cfg.seed)
        records.append(record)
        assert_partition(triple, samples.ids)
        labelled = triple.labelled
        clean = labelled.admitted == 0
        assert (labelled.label[clean] == labelled.true_label[clean]).all()
    print("\nconservation held on all fixture runs and a stepped re-run")
