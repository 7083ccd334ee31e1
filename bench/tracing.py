"""Span tracing of the ile package, installed from outside the program.

`Tracer.install` replaces selected public functions of the `ile` modules
with wrappers that record one span per call: name, start, end, parent span
and run id (the index of the enclosing `run_single` call, -1 outside one).
Spans are kept in flat arrays in memory and written as one `.npz` file when
the traced process ends. `layer_metrics` turns a span file into the
benchmark's per-layer metrics; self time is a span's duration minus the
durations of its direct child spans.
"""

import inspect
import math
import sys
import time
from array import array

import numpy as np

# module -> public functions wrapped; everything on the `ile run` path that
# a per-layer metric needs, and nothing that runs once per mini-batch
TRACED = {
    "seeding": ("rng",),
    "augment": ("apply",),
    "ensemble": ("ensemble_predict",),
    "confidence": ("metrics_for_sample", "build_prototypes", "weights_from_scored"),
    "classifier": ("init_model", "fit", "evaluate", "predict_proba_batch"),
    "threshold": ("learn_threshold", "select_admissions"),
    "datasets": ("load_table", "split", "admit", "release_pseudo"),
    "loop": ("run", "run_single", "run_iteration", "write_artifacts"),
}

# direct children of run_iteration that are not scoring; loop.score_s is
# whatever else run_iteration spends, however scoring is implemented
STAGES = frozenset(
    {
        "classifier.init_model",
        "classifier.fit",
        "classifier.evaluate",
        "confidence.build_prototypes",
        "confidence.weights_from_scored",
        "threshold.learn_threshold",
        "threshold.select_admissions",
        "datasets.admit",
        "datasets.release_pseudo",
    }
)

# counters read off a traced function's return value
_RESULT_COUNTS = {
    "augment.vectors": ("augment.apply", len),
    "classifier.forward_rows": ("classifier.predict_proba_batch", len),
    "datasets.rows_loaded": ("datasets.load_table", len),
    "datasets.admitted": ("datasets.admit", lambda result: len(result[1].admitted_ids)),
}


def replace_everywhere(original, replacement):
    """Rebind every name in a loaded `ile` module that refers to ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "ile" or name.startswith("ile."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


RAISED = 1  # span flag: the call raised
READ = 2  # span flag: the returned random stream was drawn from


class _Stream:
    """Proxy for a numpy Generator that flags its span on first use."""

    __slots__ = ("_gen", "_flags", "_index")

    def __init__(self, gen, flags, index):
        self._gen = gen
        self._flags = flags
        self._index = index

    def __getattr__(self, name):
        self._flags[self._index] |= READ
        return getattr(self._gen, name)


class Tracer:
    """Records a span per call of every function in TRACED once installed."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.runs = array("i")
        self.flags = array("b")
        self.counts = dict.fromkeys(
            ["classifier.fit_rows", "classifier.fit_steps", *_RESULT_COUNTS], 0
        )
        self._stack = []
        self._run = -1
        self._next_run = 0

    def install(self):
        """Wrap every function in TRACED wherever an `ile` module refers to it."""
        for module, functions in TRACED.items():
            mod = sys.modules[f"ile.{module}"]
            for fname in functions:
                original = getattr(mod, fname)
                replace_everywhere(original, self._wrap(f"{module}.{fname}", original))

    def _wrap(self, qualname, fn):
        self.names.append(qualname)
        name_id = len(self.names) - 1
        is_rng = qualname == "seeding.rng"
        is_run = qualname == "loop.run_single"
        is_fit = qualname == "classifier.fit"
        signature = inspect.signature(fn) if is_fit else None
        result_counts = [
            (key, measure)
            for key, (traced, measure) in _RESULT_COUNTS.items()
            if traced == qualname
        ]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            if is_run:
                self._run = self._next_run
                self._next_run += 1
            self.runs.append(self._run)
            self.flags.append(0)
            self.ends.append(math.nan)
            self._stack.append(index)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.flags[index] |= RAISED
                raise
            finally:
                self.ends[index] = clock()
                self._stack.pop()
                if is_run:
                    self._run = -1
            for key, measure in result_counts:
                self.counts[key] += measure(result)
            if is_fit:
                self._count_fit(signature.bind(*args, **kwargs).arguments)
            if is_rng:
                return _Stream(result, self.flags, index)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_fit(self, arguments):
        rows = len(arguments["labelled"])
        config = arguments["config"]
        self.counts["classifier.fit_rows"] += rows
        self.counts["classifier.fit_steps"] += config.epochs * math.ceil(
            rows / config.batch_size
        )

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            run=np.frombuffer(self.runs, dtype=np.int32),
            flags=np.frombuffer(self.flags, dtype=np.int8),
            count_names=np.array(list(self.counts)),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )


class Spans:
    """A loaded span file with durations and self times."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.run = data["run"]
            self.flags = data["flags"]
            self.counts = dict(
                zip((str(n) for n in data["count_names"]), data["count_values"].tolist())
            )
        self.duration = self.end - self.start
        self.child_time = np.zeros(len(self.duration))
        nested = self.parent >= 0
        np.add.at(self.child_time, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - self.child_time

    def __len__(self):
        return len(self.duration)

    def mask(self, qualname):
        if qualname not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(qualname)

    def calls(self, qualname):
        return int(self.mask(qualname).sum())

    def self_s(self, qualname, where=None):
        m = self.mask(qualname) if where is None else where
        return float(self.self_time[m].sum())

    def total_s(self, qualname):
        return float(self.duration[self.mask(qualname)].sum())

    def children_of(self, qualname):
        """Mask of the spans whose parent is a `qualname` span."""
        under = np.zeros(len(self), dtype=bool)
        nested = self.parent >= 0
        under[nested] = self.mask(qualname)[self.parent[nested]]
        return under


# per-layer metric name -> (unit, better); README.md documents each one
PER_LAYER = {
    "seeding.rng_calls": ("count", "lower"),
    "seeding.rng_s": ("s", "lower"),
    "seeding.rng_unused": ("count", "lower"),
    "augment.apply_calls": ("count", "lower"),
    "augment.vectors": ("count", "lower"),
    "augment.apply_s": ("s", "lower"),
    "ensemble.predict_calls": ("count", "lower"),
    "ensemble.predict_s": ("s", "lower"),
    "confidence.score_calls": ("count", "lower"),
    "confidence.score_s": ("s", "lower"),
    "confidence.unscorable": ("count", "lower"),
    "confidence.prototypes_s": ("s", "lower"),
    "confidence.weights_s": ("s", "lower"),
    "classifier.fit_calls": ("count", "lower"),
    "classifier.fit_steps": ("count", "lower"),
    "classifier.fit_rows": ("count", "lower"),
    "classifier.fit_s": ("s", "lower"),
    "classifier.forward_rows": ("count", "lower"),
    "classifier.forward_s": ("s", "lower"),
    "classifier.evaluate_s": ("s", "lower"),
    "threshold.learn_s": ("s", "lower"),
    "threshold.select_s": ("s", "lower"),
    "threshold.admit_ratio": ("ratio", "higher"),
    "datasets.load_s": ("s", "lower"),
    "datasets.rows_loaded": ("count", "lower"),
    "datasets.split_s": ("s", "lower"),
    "datasets.admit_s": ("s", "lower"),
    "datasets.admitted": ("count", "higher"),
    "loop.iterations": ("count", "lower"),
    "loop.iteration_s": ("s", "lower"),
    "loop.pool_scored": ("count", "lower"),
    "loop.artifacts_s": ("s", "lower"),
    "loop.score_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans, pool_scored):
    """Per-layer values of one traced execution, except trace.overhead_s.

    ``pool_scored`` is the sum of ``du_size`` over every iteration of every
    repeat in the execution's report.
    """
    scoring_rng = spans.mask("seeding.rng") & spans.children_of("augment.apply")
    stage_ids = [i for i, n in enumerate(spans.names) if n in STAGES]
    stages = np.isin(spans.name, stage_ids) & spans.children_of("loop.run_iteration")
    scored = spans.mask("confidence.metrics_for_sample")
    c = spans.counts
    return {
        "seeding.rng_calls": int(scoring_rng.sum()),
        "seeding.rng_s": spans.self_s("seeding.rng", scoring_rng),
        "seeding.rng_unused": int((scoring_rng & ((spans.flags & READ) == 0)).sum()),
        "augment.apply_calls": spans.calls("augment.apply"),
        "augment.vectors": c["augment.vectors"],
        "augment.apply_s": spans.self_s("augment.apply"),
        "ensemble.predict_calls": spans.calls("ensemble.ensemble_predict"),
        "ensemble.predict_s": spans.self_s("ensemble.ensemble_predict"),
        "confidence.score_calls": int(scored.sum()),
        "confidence.score_s": spans.self_s("confidence.metrics_for_sample"),
        "confidence.unscorable": int((scored & ((spans.flags & RAISED) != 0)).sum()),
        "confidence.prototypes_s": spans.self_s("confidence.build_prototypes"),
        "confidence.weights_s": spans.self_s("confidence.weights_from_scored"),
        "classifier.fit_calls": spans.calls("classifier.fit"),
        "classifier.fit_steps": c["classifier.fit_steps"],
        "classifier.fit_rows": c["classifier.fit_rows"],
        "classifier.fit_s": spans.self_s("classifier.fit"),
        "classifier.forward_rows": c["classifier.forward_rows"],
        "classifier.forward_s": spans.self_s("classifier.predict_proba_batch"),
        "classifier.evaluate_s": spans.self_s("classifier.evaluate"),
        "threshold.learn_s": spans.self_s("threshold.learn_threshold"),
        "threshold.select_s": spans.self_s("threshold.select_admissions"),
        "threshold.admit_ratio": c["datasets.admitted"] / pool_scored,
        "datasets.load_s": spans.self_s("datasets.load_table"),
        "datasets.rows_loaded": c["datasets.rows_loaded"],
        "datasets.split_s": spans.self_s("datasets.split"),
        "datasets.admit_s": spans.self_s("datasets.admit"),
        "datasets.admitted": c["datasets.admitted"],
        "loop.iterations": spans.calls("loop.run_iteration"),
        "loop.iteration_s": spans.total_s("loop.run_iteration"),
        "loop.pool_scored": pool_scored,
        "loop.artifacts_s": spans.self_s("loop.write_artifacts"),
        "loop.score_s": spans.total_s("loop.run_iteration")
        - float(spans.duration[stages].sum()),
        "trace.spans": len(spans),
    }
