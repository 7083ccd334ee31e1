"""The iterative self-training cycle.

Each iteration re-initializes the model from a derived seed, trains it on the
current labelled set, rebuilds the class prototypes, and scores the whole
working table once with the augmentation ensemble plus confidence metrics.
The labelled set and the pool are views of that table (see ``datasets``), so
their scores are masks of the one pass: the training rows' confidences learn
the admission threshold, and every pool sample that clears it is admitted.
Scoring runs block-wise: SCORE_BLOCK samples at a time go through one
forward pass as arrays. The labelled-only benchmark that improvement is
measured against is the first iteration's model: with the same seeds and
data, a separate benchmark fit would be the identical computation.
"""

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import datasets
from .classifier import evaluate, fit, init_model
from .confidence import (
    BlockScores,
    build_prototypes,
    combine,
    score_block,
    weights_from_scored,
)
from .config import config_to_dict
from .datasets import UNKNOWN, admit, label_accuracy, load_table, release_pseudo
from .errors import ConfigError, DataError, writing
from .seeding import derive_seed
from .synth import generate
from .threshold import learn_threshold, select_admissions

log = logging.getLogger("ile")


@dataclass
class IterationRecord:
    """One row of the run log.

    Sizes are those of D_l and D_u when admissions are chosen, that is
    after re-scoring mode has returned earlier pseudo-labels to the pool.
    ``stage_s`` maps each of STAGES to its wall-clock seconds. The fields
    marked as timing go to metrics.csv only; every other field goes to
    both metrics.csv and report.json.
    """

    iteration: int
    dl_size: int
    du_size: int
    added_count: int
    addition_accuracy: float | None
    cumulative_addition_accuracy: float | None
    val_error: float | None
    threshold: float
    wall_time: float = field(metadata={"timing": True})
    stage_s: dict = field(default_factory=dict, metadata={"timing": True})


# the deterministic fields of the run log, in order
RECORD_FIELDS = tuple(
    f.name for f in fields(IterationRecord) if not f.metadata.get("timing")
)


@dataclass
class RunReport:
    iterations: list
    benchmark_val_error: float | None
    final_val_error: float | None
    improvement: float | None


# the timed stages of one iteration, in order; metrics.csv has a
# "<stage>_s" column for each
STAGES = (
    "fit",  # init, fit and validation error
    "prototypes",
    "score",  # the whole working table, once
    "weights_threshold",
    "admit",  # with re-scoring mode's release of earlier admissions
)


class _StageClock:
    """Seconds between successive ``lap`` calls, keyed by stage name."""

    def __init__(self):
        self.seconds = {}
        self.started = self._last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


# samples scored per forward pass; whole-pool arrays cost about a fifth more
# peak memory on a 10k pool for no speed gain
SCORE_BLOCK = 256


def _train(cfg, labelled, validation, base_seed, iteration_index):
    """Fresh model trained on D_l with the iteration's seeds; (model, val_error).

    D_l holds clean rows of every class with ground truth, so its largest
    label fixes the number of classes.
    """
    model = init_model(
        cfg.classifier.architecture,
        labelled.X.shape[1],
        int(labelled.label.max()) + 1,
        seed=derive_seed(base_seed, iteration_index, "init"),
        hidden_units=cfg.classifier.hidden_units,
    )
    early_stop = cfg.classifier.train.early_stop_patience is not None
    model = fit(
        model,
        labelled,
        cfg.classifier.train,
        seed=derive_seed(base_seed, iteration_index, "fit"),
        validation=validation if (early_stop and validation) else None,
    )
    val_error = evaluate(model, validation) if validation else None
    return model, val_error


def _score(work, model, prototypes, cfg, seed):
    """BlockScores of the working table ``work``, in its (id) order.

    SCORE_BLOCK samples go through each forward pass. ``work`` is never
    empty: it holds a labelled row of every class.
    """
    return BlockScores.concatenate(
        [
            score_block(
                model,
                prototypes,
                cfg.augment,
                work[start : start + SCORE_BLOCK],
                seed,
                population_std=cfg.ensemble.std == "population",
            )
            for start in range(0, len(work), SCORE_BLOCK)
        ]
    )


# ---------------------------------------------------------------------------
# One iteration
# ---------------------------------------------------------------------------

def run_iteration(cfg, triple, records, base_seed):
    """One iteration of the loop on ``triple``; returns (new triple, record).

    ``records`` are the run's earlier IterationRecords, in order, and are not
    changed: this is iteration ``len(records) + 1``. The admission cut is the
    manual threshold if one is set, else iteration 1's cut once the refresh
    policy has frozen it, else learned on this iteration's training scores.
    """
    iteration_index = len(records) + 1
    clock = _StageClock()
    labelled = triple.labelled

    model, val_error = _train(
        cfg, labelled, triple.validation, base_seed, iteration_index
    )
    clock.lap("fit")
    prototypes = build_prototypes(model, labelled)
    clock.lap("prototypes")
    work = triple.work
    seed = derive_seed(base_seed, iteration_index, "score")
    scores = _score(work, model, prototypes, cfg, seed)
    clock.lap("score")

    # the training scores: every row of D_l as it was trained on
    in_train = (work.label != UNKNOWN) & scores.scorable
    if not in_train.any():
        raise DataError("no training sample could be scored")
    correct = scores.y1[in_train] == work.label[in_train]

    if cfg.confidence.weights is not None:
        weights = cfg.confidence.weights
    else:
        c_a, c_b, c_c = scores.c_a[in_train], scores.c_b[in_train], scores.c_c[in_train]
        weights = weights_from_scored(c_a, c_b, c_c, correct)
    # one confidence per row of the working table, NaN where it is unscorable
    mode, epsilon = cfg.confidence.combine_mode, cfg.confidence.epsilon
    confidences = combine(scores.c_a, scores.c_b, scores.c_c, weights, mode, epsilon)
    strict = cfg.threshold.admit_rule == "open"
    if cfg.threshold.manual is not None:
        t_c = cfg.threshold.manual
    elif records and cfg.threshold.refresh == "freeze_after_first":
        t_c = records[0].threshold
    else:
        target = cfg.threshold.target_accuracy
        t_c = learn_threshold(confidences[in_train], correct, target, strict)
    clock.lap("weights_threshold")

    if cfg.loop.rescore_admitted:
        triple = release_pseudo(triple)
    # the pool scores: every row of D_u, after any release
    in_pool = triple.work.label == UNKNOWN
    du_size = int(in_pool.sum())
    dl_size = len(work) - du_size
    chosen = in_pool & scores.scorable
    chosen[chosen] = select_admissions(confidences[chosen], t_c, strict)
    triple, admission_record = admit(triple, chosen, scores.y1[chosen], iteration_index)
    work = triple.work
    pseudo = work.admitted != 0  # the pseudo-labels now in D_l
    cumulative = label_accuracy(work.label[pseudo], work.true_label[pseudo])
    clock.lap("admit")

    record = IterationRecord(
        iteration=iteration_index,
        dl_size=dl_size,
        du_size=du_size,
        added_count=int(chosen.sum()),
        addition_accuracy=admission_record.addition_accuracy,
        cumulative_addition_accuracy=cumulative,
        val_error=val_error,
        threshold=t_c,
        # read after the last lap, so the stage seconds sum to at most this
        wall_time=time.perf_counter() - clock.started,
        stage_s=clock.seconds,
    )
    log.info(
        "iteration %d: |D_l|=%d |D_u|=%d added=%d acc=%s val_error=%s T_c=%s",
        iteration_index,
        dl_size,
        du_size,
        record.added_count,
        f"{record.addition_accuracy:.3f}" if record.addition_accuracy is not None else "n/a",
        f"{val_error:.4f}" if val_error is not None else "n/a",
        f"{t_c:.4f}" if math.isfinite(t_c) else "inf",
    )
    return triple, record


def should_stop(history, config) -> bool:
    """Stop on iteration budget, admission stagnation, or an empty pool."""
    if len(history) >= config.loop.max_iterations:
        return True
    if not history:
        return False
    patience = config.loop.patience
    if len(history) >= patience and all(
        r.added_count == 0 for r in history[-patience:]
    ):
        return True
    last = history[-1]
    return last.du_size - last.added_count <= 0


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

def _load_samples(cfg):
    if cfg.data.synth is not None:
        s = cfg.data.synth
        return generate(
            s.kind,
            s.classes,
            s.per_class,
            s.noise,
            seed=derive_seed(cfg.seed, "synth"),
        )
    return load_table(cfg.data.path, cfg.data.format)


def run_single(cfg, samples, base_seed) -> RunReport:
    """One full run on pre-loaded samples: the loop and its benchmark."""
    triple = datasets.split(
        samples,
        cfg.split.labelled_per_class,
        cfg.split.validation_count,
        seed=derive_seed(base_seed, "split"),
    )
    records = []
    while not should_stop(records, cfg):
        triple, record = run_iteration(cfg, triple, records, base_seed)
        records.append(record)

    # the labelled-only baseline is iteration 1's model: same seeds, same data
    if records:
        benchmark, final = records[0].val_error, records[-1].val_error
    else:
        _, benchmark = _train(cfg, triple.labelled, triple.validation, base_seed, 1)
        final = benchmark
    improvement = (
        benchmark - final if (benchmark is not None and final is not None) else None
    )
    return RunReport(
        iterations=records,
        benchmark_val_error=benchmark,
        final_val_error=final,
        improvement=improvement,
    )


def run(cfg, base_seed=None, output_dir=None) -> dict:
    """Benchmark plus iterative loop, repeated per config; writes artifacts.

    Returns the ``{config, repeats, summary}`` payload that is also written
    to ``report.json``. ``base_seed`` overrides ``cfg.seed``; ``output_dir``
    overrides the config's output directory without entering the report
    snapshot, so two runs of the same config into different directories are
    byte-identical. Repeats run one after another in this process.
    """
    if base_seed is not None:
        cfg = replace(cfg, seed=base_seed)
    out_dir = output_dir if output_dir is not None else cfg.output_dir
    if out_dir is None:
        raise ConfigError("no output directory: set output_dir or pass --out")
    # before any work, so an unusable directory costs no training
    with writing(out_dir):
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    samples = _load_samples(cfg)
    seeds = [derive_seed(cfg.seed, "repeat", k) for k in range(cfg.loop.repeat_count)]
    reports = [run_single(cfg, samples, seed) for seed in seeds]

    payload = build_payload(cfg, reports)
    write_artifacts(out_dir, payload, reports)
    return payload


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _json_float(x):
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _record_to_dict(r):
    # timing fields stay out: report.json must be bit-reproducible
    return {name: _json_float(getattr(r, name)) for name in RECORD_FIELDS}


def _report_to_dict(rep):
    return {
        "benchmark_val_error": rep.benchmark_val_error,
        "final_val_error": rep.final_val_error,
        "improvement": rep.improvement,
        "iterations": [_record_to_dict(r) for r in rep.iterations],
    }


def _mean_std(values):
    if any(v is None for v in values):
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())  # population std, like the run sigma


def build_payload(cfg, reports) -> dict:
    """``{config, repeats, summary}`` for report.json, whatever the count.

    With one repeat, each summary mean is its value and each std is 0.0.
    """
    bench_mean, bench_std = _mean_std([r.benchmark_val_error for r in reports])
    final_mean, final_std = _mean_std([r.final_val_error for r in reports])
    improvement_mean, _ = _mean_std([r.improvement for r in reports])
    added = [sum(rec.added_count for rec in r.iterations) for r in reports]
    cum_accs = [
        r.iterations[-1].cumulative_addition_accuracy if r.iterations else None
        for r in reports
    ]
    known_accs = [a for a in cum_accs if a is not None]
    return {
        "config": config_to_dict(cfg),
        "repeats": [_report_to_dict(r) for r in reports],
        "summary": {
            "repeat_count": len(reports),
            "benchmark_val_error_mean": bench_mean,
            "benchmark_val_error_std": bench_std,
            "final_val_error_mean": final_mean,
            "final_val_error_std": final_std,
            "improvement_mean": improvement_mean,
            "added_count_mean": float(np.mean(added)),
            "cumulative_addition_accuracy_mean": (
                float(np.mean(known_accs)) if known_accs else None
            ),
        },
    }


_CSV_COLUMNS = [
    "repeat",
    *RECORD_FIELDS,
    "wall_time",
    *(f"{stage}_s" for stage in STAGES),
]


def _csv_row(repeat, r):
    values = (getattr(r, name) for name in RECORD_FIELDS)
    return [
        repeat,
        *("" if v is None else repr(v) for v in values),
        repr(r.wall_time),
        *(repr(r.stage_s[stage]) if stage in r.stage_s else "" for stage in STAGES),
    ]


def write_artifacts(out_dir, payload, reports):
    """Write report.json and metrics.csv into the existing ``out_dir``."""
    out = Path(out_dir)
    with writing(out / "report.json"), open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with writing(out / "metrics.csv"), open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for k, rep in enumerate(reports):
            writer.writerows(_csv_row(k, r) for r in rep.iterations)
    log.info("wrote %s and %s", out / "report.json", out / "metrics.csv")
