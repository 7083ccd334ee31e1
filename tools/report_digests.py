"""Print the sha256 of `report.json` for a fixed set of `ile run` configs.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tools/report_digests.py [--configs NAME ...] [--seeds N ...]

For each config and seed (default: every config in CONFIGS, seeds 0-4) the
input table and config are written into a temporary directory, `ile run`
runs in this process with that directory as the working directory, and one
line `config seed sha256(report.json)` is printed. Paths in the configs are
relative, so the digests do not depend on where the directory is. A change
that must leave every report byte-identical prints the same lines before
and after; run the tool on both trees and compare with `diff`.

The runs log at `ILE_LOG=error` unless the caller sets `ILE_LOG`, so that
stderr shows only what went wrong.

The configs are the three benchmark workloads of `bench/workloads.py`
(read, not changed), the acceptance gate's blobs fixture
(`tests/test_acceptance.py::fixture_config`), and variants of those that
reach every threshold and pool branch of the loop: the fixture with
re-scoring mode, with fixed equal metric weights instead of calibrated
ones, with a threshold frozen after the first iteration under the open
admission rule, with a manual threshold, with the sample std and the
reciprocal combination, and with re-scoring mode plus a frozen threshold;
digits_pool read from a binary table; and `label_gap`, blobs with one class
id left without rows, whose runs score rows that have no prototype.
"""

import argparse
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import ile.cli
from ile.datasets import Samples, save_table
from ile.synth import generate

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3, 4)


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _workload(name, fmt="csv"):
    """A bench workload: its table from the seed, then its run config."""

    def write(seed):
        w = _bench_workloads()[name]
        path = f"{name}.{fmt}"
        samples = generate(w.kind, w.classes, w.per_class, w.noise, seed=seed)
        save_table(samples, path, format=fmt)
        return dict(w.config, data={"path": path, "format": fmt}, seed=seed)

    return write


# the acceptance gate's frozen loop benchmark, as a JSON config
_FIXTURE = {
    "data": {"synth": {"kind": "blobs", "classes": 4, "per_class": 635, "noise": 1.3}},
    "split": {"labelled_per_class": 10, "validation_count": 500},
    "classifier": {"architecture": "softmax_regression", "train": {"epochs": 60}},
    "augment": [
        {"kind": "identity"},
        {"kind": "gaussian_jitter", "sigma": 0.5},
        {"kind": "gaussian_jitter", "sigma": 0.5},
    ],
    "confidence": {"weights": "calibrate"},
    "threshold": {"target_accuracy": 0.99},
    "loop": {"max_iterations": 10},
}


def _label_gap(seed):
    """Blobs whose class 2 is relabelled 3, so class id 2 has no rows.

    The model still has an output for class 2 but no prototype for it. After
    5 epochs it predicts 2 for some rows, which are then unscorable: 127 and
    62 of the 700 working rows in iteration 1 of seeds 1 and 4.
    """
    samples = generate("blobs", 4, 200, 1.3, seed=seed)
    labels = np.where(samples.true_label == 2, 3, samples.true_label)
    save_table(Samples.clean(samples.ids, samples.X, labels), "label_gap.csv")
    return {
        "data": {"path": "label_gap.csv"},
        "split": {"labelled_per_class": 10, "validation_count": 100},
        "classifier": {"architecture": "softmax_regression", "train": {"epochs": 5}},
        "augment": [{"kind": "identity"}, {"kind": "gaussian_jitter", "sigma": 0.5}],
        "confidence": {"weights": "calibrate"},
        "threshold": {"target_accuracy": 0.95},
        "seed": seed,
    }


def _fixture(**over):
    """The acceptance fixture, each section in ``over`` updated with its values."""

    def write(seed):
        cfg = copy.deepcopy(_FIXTURE)
        for section, values in over.items():
            cfg.setdefault(section, {}).update(values)
        return dict(cfg, seed=seed)

    return write


CONFIGS = {
    "fixture_blobs": _workload("fixture_blobs"),
    "digits_pool": _workload("digits_pool"),
    "rings_fit": _workload("rings_fit"),
    "acceptance": _fixture(),
    "acceptance_rescore": _fixture(loop={"rescore_admitted": True}),
    "acceptance_equal_weights": _fixture(confidence={"weights": [1.0 / 3.0] * 3}),
    "digits_pool_binary": _workload("digits_pool", fmt="binary"),
    "acceptance_frozen_open": _fixture(
        threshold={"refresh": "freeze_after_first", "admit_rule": "open"}
    ),
    "acceptance_manual": _fixture(threshold={"manual": 0.9}),
    "acceptance_sample_std": _fixture(
        ensemble={"std": "sample"}, confidence={"combine_mode": "reciprocal"}
    ),
    "acceptance_rescore_frozen": _fixture(
        loop={"rescore_admitted": True}, threshold={"refresh": "freeze_after_first"}
    ),
    "label_gap": _label_gap,
}


def digest(name, seed):
    """sha256 of the report.json that `ile run` writes for one config and seed."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ile-digest-") as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(CONFIGS[name](seed)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = ile.cli.main(["run", "--config", "config.json", "--out", "out"])
            if code != 0:
                raise RuntimeError(f"{name} seed {seed}: ile run exited with {code}")
            return hashlib.sha256(Path("out/report.json").read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--configs", nargs="+", choices=CONFIGS, default=list(CONFIGS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    args = parser.parse_args(argv)
    with mock.patch.dict(os.environ, {"ILE_LOG": os.environ.get("ILE_LOG", "error")}):
        for name in args.configs:
            for seed in args.seeds:
                print(name, seed, digest(name, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
