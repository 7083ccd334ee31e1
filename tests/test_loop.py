import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ile import ConfigError, DataError, RunConfig, Samples, TrainConfig, generate
from ile.augment import AugmentationPlan, GaussianJitter, Identity
from ile.config import (
    ClassifierSpec,
    ConfidenceSpec,
    DataSource,
    LoopSpec,
    SplitSpec,
    SynthSpec,
    ThresholdSpec,
)
from ile import loop
from ile.loop import (
    IterationRecord,
    _report_to_dict,
    run,
    run_iteration,
    run_single,
    should_stop,
)
from ile.confidence import build_prototypes
from ile.seeding import derive_seed

from conftest import assert_partition


def small_cfg(**over):
    base = dict(
        data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=60, noise=0.8)),
        split=SplitSpec(labelled_per_class=5, validation_count=30),
        classifier=ClassifierSpec(train=TrainConfig(epochs=40)),
        augment=AugmentationPlan.from_transforms([Identity(), GaussianJitter(0.2)]),
        confidence=ConfidenceSpec(weights=None),
        threshold=ThresholdSpec(target_accuracy=0.95),
        loop=LoopSpec(max_iterations=3),
        seed=17,
    )
    base.update(over)
    return RunConfig(**base)


def run_report(cfg, base_seed=7):
    samples = loop._load_samples(cfg)
    return run_single(cfg, samples, base_seed=base_seed)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def test_benchmark_equals_first_iteration_training():
    rep = run_report(small_cfg())
    assert rep.iterations, "expected at least one iteration"
    assert rep.iterations[0].val_error == rep.benchmark_val_error


def test_record_bookkeeping_and_conservation():
    rep = run_report(small_cfg(loop=LoopSpec(max_iterations=4)))
    records = rep.iterations
    total = records[0].dl_size + records[0].du_size
    for i, r in enumerate(records):
        assert r.iteration == i + 1
        assert r.dl_size + r.du_size == total
        assert r.added_count >= 0
        assert r.wall_time >= 0
    for prev, nxt in zip(records, records[1:]):
        assert nxt.dl_size == prev.dl_size + prev.added_count
        assert nxt.dl_size >= prev.dl_size
    assert rep.final_val_error == records[-1].val_error
    assert rep.improvement == pytest.approx(
        rep.benchmark_val_error - rep.final_val_error
    )


def test_run_single_is_deterministic():
    a = run_report(small_cfg())
    b = run_report(small_cfg())
    assert _report_to_dict(a) == _report_to_dict(b)
    c = run_report(small_cfg(), base_seed=8)
    assert _report_to_dict(a) != _report_to_dict(c)


def test_perfect_target_on_separable_blobs_admits_only_truth():
    cfg = small_cfg(
        data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=40, noise=0.3)),
        threshold=ThresholdSpec(target_accuracy=1.0),
    )
    rep = run_report(cfg)
    admitted = sum(r.added_count for r in rep.iterations)
    assert admitted > 0
    for r in rep.iterations:
        if r.added_count:
            assert r.addition_accuracy == 1.0
        assert r.cumulative_addition_accuracy in (None, 1.0)


def test_zero_iterations_reports_benchmark_only():
    rep = run_report(small_cfg(loop=LoopSpec(max_iterations=0)))
    assert rep.iterations == []
    assert rep.final_val_error == rep.benchmark_val_error
    assert rep.improvement == 0.0


def test_infinite_manual_threshold_admits_nothing_and_stops_on_patience():
    cfg = small_cfg(
        threshold=ThresholdSpec(manual=math.inf),
        loop=LoopSpec(max_iterations=10, patience=2),
    )
    rep = run_report(cfg)
    assert len(rep.iterations) == 2  # patience kicks in
    for r in rep.iterations:
        assert r.added_count == 0
        assert r.threshold == math.inf
        assert r.dl_size == rep.iterations[0].dl_size


def test_manual_threshold_is_used_verbatim():
    rep = run_report(small_cfg(threshold=ThresholdSpec(manual=0.75)))
    assert all(r.threshold == 0.75 for r in rep.iterations)


def test_frozen_threshold_stops_refreshing():
    cfg = small_cfg(
        threshold=ThresholdSpec(target_accuracy=0.9, refresh="freeze_after_first"),
        loop=LoopSpec(max_iterations=3),
    )
    rep = run_report(cfg)
    first = rep.iterations[0].threshold
    assert all(r.threshold == first for r in rep.iterations)


def test_empty_pool_yields_single_quiet_iteration():
    cfg = small_cfg(
        data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=12, noise=0.5)),
        split=SplitSpec(labelled_per_class=10, validation_count=6),
        loop=LoopSpec(max_iterations=5),
    )
    rep = run_report(cfg)
    assert len(rep.iterations) == 1
    r = rep.iterations[0]
    assert r.du_size == 0
    assert r.added_count == 0
    assert r.val_error is not None


def test_rescore_mode_still_conserves():
    cfg = small_cfg(loop=LoopSpec(max_iterations=3, rescore_admitted=True))
    rep = run_report(cfg)
    total = rep.iterations[0].dl_size + rep.iterations[0].du_size
    for r in rep.iterations:
        assert r.dl_size + r.du_size == total
        assert r.added_count <= r.du_size


def test_rescore_mode_on_the_fixture_runs_past_the_second_iteration():
    from test_acceptance import fixture_config

    cfg = replace(
        fixture_config(0), loop=LoopSpec(max_iterations=4, rescore_admitted=True)
    )
    rep = run_report(cfg, base_seed=cfg.seed)
    assert len(rep.iterations) > 2
    for r in rep.iterations:
        # admissions are released every iteration: D_l is the clean set again
        assert (r.dl_size, r.du_size) == (40, 2000)
        assert r.added_count <= r.du_size
        # the pseudo-labels in D_l are exactly this iteration's admissions
        assert r.cumulative_addition_accuracy == r.addition_accuracy


# ---------------------------------------------------------------------------
# Manual stepping
# ---------------------------------------------------------------------------

def test_step_by_step_invariants_hold():
    cfg = small_cfg()
    samples = loop._load_samples(cfg)
    from ile.datasets import split as split_samples

    base_seed = 3
    triple = split_samples(samples, 5, 30, seed=derive_seed(base_seed, "split"))
    last_dl = len(triple.labelled)
    records = []
    for it in range(1, 4):
        triple, record = run_iteration(cfg, triple, records, base_seed)
        records.append(record)
        assert_partition(triple, samples.ids)  # after every iteration
        assert len(triple.labelled) >= last_dl
        last_dl = len(triple.labelled)
        assert record.added_count == (triple.labelled.admitted == it).sum()


def test_addition_accuracy_counts_only_rows_with_ground_truth():
    cfg = small_cfg()
    base_seed = 3
    samples = loop._load_samples(cfg)
    unknown = np.where(samples.ids % 3 == 0, -1, samples.true_label)
    samples = replace(samples, true_label=unknown, label=unknown)
    from ile.datasets import split as split_samples

    triple = split_samples(samples, 5, 30, seed=derive_seed(base_seed, "split"))
    triple, record = run_iteration(cfg, triple, [], base_seed)
    admitted = triple.labelled[triple.labelled.admitted == 1]
    judged = admitted[admitted.true_label != -1]
    assert len(judged) < len(admitted) == record.added_count
    assert len(judged), "expected admitted rows with ground truth"
    expected = int((judged.label == judged.true_label).sum()) / len(judged)
    assert record.addition_accuracy == expected
    assert record.cumulative_addition_accuracy == expected


def label_gap_samples(seed):
    """Blobs, 4 classes x 200 rows, with class 2 relabelled 3: no row is class 2."""
    s = generate("blobs", 4, 200, 1.3, seed=seed)
    return Samples.clean(s.ids, s.X, np.where(s.true_label == 2, 3, s.true_label))


# iteration 1 finds 281, 137, 131 and 256 of the 700 working rows unscorable
@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_pool_rows_without_a_prototype_are_never_admitted(seed):
    # the model has an output for class 2 but no prototype, so after 5
    # epochs some rows are predicted as 2 and cannot be scored
    cfg = RunConfig(
        data=DataSource(path="label_gap.csv"),  # not read: the rows are passed in
        split=SplitSpec(labelled_per_class=10, validation_count=100),
        classifier=ClassifierSpec(train=TrainConfig(epochs=5)),
        augment=AugmentationPlan.from_transforms([Identity(), GaussianJitter(0.5)]),
        confidence=ConfidenceSpec(weights=None),
        threshold=ThresholdSpec(target_accuracy=0.95, manual=-math.inf),
    )
    from ile.datasets import split as split_samples

    triple = split_samples(
        label_gap_samples(seed), 10, 100, seed=derive_seed(seed, "split")
    )
    # iteration 1's scores, with the seeds run_iteration uses
    model, _ = loop._train(cfg, triple.labelled, triple.validation, seed, 1)
    prototypes = build_prototypes(model, triple.labelled)
    assert prototypes.counts.tolist() == [10, 10, 0, 10]
    scores = loop._score(
        triple.work, model, prototypes, cfg, derive_seed(seed, 1, "score")
    )
    pool = triple.work.label == -1
    scorable = scores.y1 != 2
    np.testing.assert_array_equal(scores.scorable, scorable)
    assert (pool & ~scorable).any(), "expected unscorable pool rows"

    triple, record = run_iteration(cfg, triple, [], seed)
    admitted = triple.work.admitted == 1
    # a cut of -inf admits every scorable pool row, and only those
    np.testing.assert_array_equal(admitted, pool & scorable)
    assert record.added_count == int((pool & scorable).sum())
    np.testing.assert_array_equal(triple.work.label[admitted], scores.y1[admitted])


def check_row_bookkeeping(triple, iteration, rescore):
    """Labels and provenance of every row of ``triple`` after ``iteration``."""
    v = triple.validation
    assert (v.admitted == 0).all()  # clean
    assert (v.label != -1).all() and (v.label == v.true_label).all()
    u = triple.unlabelled
    assert (u.admitted == 0).all() and (u.label == -1).all()
    labelled = triple.labelled
    clean = labelled[labelled.admitted == 0]
    pseudo = labelled[labelled.admitted != 0]
    assert (clean.label == clean.true_label).all()
    assert (pseudo.label != -1).all()
    if rescore:
        assert (pseudo.admitted == iteration).all()
    else:
        assert ((1 <= pseudo.admitted) & (pseudo.admitted <= iteration)).all()
    # D_l order: clean rows by id, then each iteration's admissions by id
    key = list(zip(labelled.admitted.tolist(), labelled.ids.tolist()))
    assert key == sorted(key)
    assert u.ids.tolist() == sorted(u.ids.tolist())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rescore=st.booleans(),
    refresh=st.sampled_from(["every_iteration", "freeze_after_first"]),
    admit_rule=st.sampled_from(["closed", "open"]),
    manual=st.one_of(st.none(), st.floats(0.3, 1.0)),
    target=st.floats(0.6, 1.0),
    base_seed=st.integers(0, 2**16),
)
def test_bookkeeping_holds_after_every_iteration_in_every_mode(
    rescore, refresh, admit_rule, manual, target, base_seed
):
    cfg = small_cfg(
        data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=20, noise=1.0)),
        split=SplitSpec(labelled_per_class=3, validation_count=9),
        classifier=ClassifierSpec(train=TrainConfig(epochs=8)),
        threshold=ThresholdSpec(
            target_accuracy=target, manual=manual, refresh=refresh, admit_rule=admit_rule
        ),
        loop=LoopSpec(max_iterations=3, rescore_admitted=rescore),
    )
    from ile.datasets import split as split_samples

    samples = loop._load_samples(cfg)
    triple = split_samples(samples, 3, 9, seed=derive_seed(base_seed, "split"))
    validation_ids = triple.validation.ids.tolist()
    total = len(triple.labelled) + len(triple.unlabelled)
    clean_count = len(triple.labelled)
    records = []
    thresholds = []
    for it in range(1, 4):
        triple, record = run_iteration(cfg, triple, records, base_seed)
        records.append(record)
        thresholds.append(record.threshold)
        t = triple
        assert_partition(t, samples.ids)
        assert t.validation.ids.tolist() == validation_ids
        assert record.dl_size + record.du_size == total
        assert len(t.labelled) + len(t.unlabelled) == total
        assert len(t.labelled) == record.dl_size + record.added_count
        if rescore:
            assert record.dl_size == clean_count
        if manual is not None:
            assert record.threshold == manual
        elif refresh == "freeze_after_first":
            assert record.threshold == thresholds[0]
        check_row_bookkeeping(t, it, rescore)
        assert (t.labelled.admitted == it).sum() == record.added_count
        if record.du_size - record.added_count <= 0:
            break


@pytest.mark.parametrize(
    "over",
    [
        {},
        {"loop": LoopSpec(max_iterations=3, rescore_admitted=True)},
        {"threshold": ThresholdSpec(target_accuracy=0.95, refresh="freeze_after_first")},
    ],
    ids=["default", "rescore", "frozen"],
)
def test_each_iteration_scores_every_working_row_once(monkeypatch, over):
    cfg = small_cfg(**over)
    base_seed = 7
    from ile.datasets import split as split_samples

    samples = loop._load_samples(cfg)
    triple = split_samples(samples, 5, 30, seed=derive_seed(base_seed, "split"))
    work_ids = triple.work.ids.tolist()
    scored = []
    score_block = loop.score_block

    def recording(model, prototypes, plan, block, seed, **kwargs):
        scored.append(block.ids)
        return score_block(model, prototypes, plan, block, seed, **kwargs)

    monkeypatch.setattr(loop, "score_block", recording)
    records = []
    pseudo_scored = 0
    for it in range(1, 4):
        scored.clear()
        pseudo_scored += int((triple.work.admitted != 0).sum())
        triple, record = run_iteration(cfg, triple, records, base_seed)
        records.append(record)
        assert sorted(np.concatenate(scored).tolist()) == work_ids
    assert pseudo_scored, "expected pseudo-labelled rows to score"


def test_should_stop_rules():
    cfg = small_cfg(loop=LoopSpec(max_iterations=5, patience=2))

    def rec(i, added, du=100):
        return IterationRecord(
            iteration=i,
            dl_size=10,
            du_size=du,
            added_count=added,
            addition_accuracy=None,
            cumulative_addition_accuracy=None,
            val_error=None,
            threshold=0.5,
            wall_time=0.0,
        )

    assert not should_stop([], cfg)
    assert not should_stop([rec(1, 5)], cfg)
    assert should_stop([rec(i, 5) for i in range(1, 6)], cfg)  # budget
    assert should_stop([rec(1, 5), rec(2, 0), rec(3, 0)], cfg)  # stagnation
    assert not should_stop([rec(1, 0), rec(2, 5)], cfg)
    assert should_stop([rec(1, 100, du=100)], cfg)  # pool exhausted


# ---------------------------------------------------------------------------
# Whole runs with artifacts
# ---------------------------------------------------------------------------

def test_run_writes_artifacts_and_payload_matches(tmp_path):
    out = tmp_path / "run"
    payload = run(small_cfg(), output_dir=str(out))
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == payload
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0].startswith("repeat,iteration,dl_size")
    assert len(lines) == 1 + len(payload["repeats"][0]["iterations"])
    assert payload["config"]["seed"] == 17
    assert payload["config"]["output_dir"] is None  # the override stays out


def test_metrics_csv_times_each_stage(tmp_path):
    out = tmp_path / "run"
    payload = run(small_cfg(), output_dir=str(out))
    stages = ["fit_s", "prototypes_s", "score_s", "weights_threshold_s", "admit_s"]
    with open(out / "metrics.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    assert header[header.index("wall_time") + 1 :] == stages
    records = payload["repeats"][0]["iterations"]
    assert len(rows) == len(records) >= 2
    for row in rows:
        seconds = [float(row[c]) for c in stages]
        assert all(s >= 0 for s in seconds)
        assert sum(seconds) <= float(row["wall_time"])
    # wall-clock facts stay out of the deterministic report
    assert not {"wall_time", *stages} & set(records[0])


def test_unwritable_artifacts_are_a_data_error(tmp_path):
    out = tmp_path / "run"
    (out / "report.json").mkdir(parents=True)  # a directory where the file goes
    with pytest.raises(DataError, match="cannot write .*report.json"):
        run(small_cfg(loop=LoopSpec(max_iterations=1)), output_dir=str(out))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: LoopSpec(rescore_admitted="false"),
            "LoopSpec.rescore_admitted must be true or false",
        ),
        (lambda: ThresholdSpec(manual=float("nan")), "ThresholdSpec.manual must be a number"),
        (lambda: TrainConfig(epochs=2.5), "TrainConfig.epochs must be an integer"),
        (lambda: SplitSpec(2.5, 10), "SplitSpec.labelled_per_class must be an integer"),
    ],
    ids=["string_flag", "nan_cut", "fractional_epochs", "fractional_split"],
)
def test_python_built_configs_are_type_checked_when_a_run_starts(build, message):
    # a section of the wrong type cannot be built, so neither run, run_single
    # nor run_iteration stepped by hand ever sees one
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}, got "):
        build()


def test_run_requires_an_output_directory():
    with pytest.raises(ConfigError, match="output"):
        run(small_cfg())


def test_repeats_produce_summary_statistics(tmp_path):
    cfg = small_cfg(loop=LoopSpec(max_iterations=2, repeat_count=3))
    payload = run(cfg, output_dir=str(tmp_path / "rep"))
    assert len(payload["repeats"]) == 3
    s = payload["summary"]
    assert s["repeat_count"] == 3
    finals = [r["final_val_error"] for r in payload["repeats"]]
    assert s["final_val_error_mean"] == pytest.approx(sum(finals) / 3)
    benches = [r["benchmark_val_error"] for r in payload["repeats"]]
    assert s["improvement_mean"] == pytest.approx(
        sum(b - f for b, f in zip(benches, finals)) / 3
    )
    lines = (tmp_path / "rep" / "metrics.csv").read_text().strip().split("\n")
    rows = sum(len(r["iterations"]) for r in payload["repeats"])
    assert len(lines) == 1 + rows
    # distinct repeats use distinct seeds, so they should not all coincide
    assert len({json.dumps(r, sort_keys=True) for r in payload["repeats"]}) > 1


@pytest.mark.parametrize("repeat_count", [1, 3])
def test_every_report_holds_repeats_and_summary(tmp_path, repeat_count):
    cfg = small_cfg(loop=LoopSpec(max_iterations=2, repeat_count=repeat_count))
    payload = run(cfg, output_dir=str(tmp_path / "o"))
    assert set(payload) == {"config", "repeats", "summary"}
    assert len(payload["repeats"]) == payload["summary"]["repeat_count"] == repeat_count
    if repeat_count > 1:
        return
    rep, s = payload["repeats"][0], payload["summary"]
    for name in ("benchmark_val_error", "final_val_error"):
        assert s[f"{name}_mean"] == rep[name]
        assert s[f"{name}_std"] == 0.0
    assert s["improvement_mean"] == rep["improvement"]
    added = sum(r["added_count"] for r in rep["iterations"])
    assert added > 0
    assert s["added_count_mean"] == float(added)
    assert isinstance(s["added_count_mean"], float)
    accuracy = rep["iterations"][-1]["cumulative_addition_accuracy"]
    assert s["cumulative_addition_accuracy_mean"] == accuracy


def test_run_seed_override_changes_the_snapshot(tmp_path):
    payload = run(small_cfg(), base_seed=99, output_dir=str(tmp_path / "o"))
    assert payload["config"]["seed"] == 99
