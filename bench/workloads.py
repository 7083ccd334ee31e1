"""The benchmark's workloads: synthetic data recipes and `ile run` configs.

Each workload is a labelled CSV table plus a JSON run config. Both are
written from the workload seed before anything is timed; the program under
test only ever sees those two files, exactly as `ile run --config` would.
See README.md in this directory for why each workload exists.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # synthetic family passed to ile.synth.generate
    classes: int
    per_class: int
    noise: float
    config: dict  # `ile run` config without data path and seed

    def run_config(self, csv_path, seed):
        return dict(self.config, data={"path": csv_path, "format": "csv"}, seed=seed)

    @property
    def rows(self):
        return self.classes * self.per_class


def _config(labelled, validation, classifier, augment, target, iterations, repeats=1):
    return {
        "split": {"labelled_per_class": labelled, "validation_count": validation},
        "classifier": classifier,
        "augment": augment,
        "confidence": {"weights": "calibrate"},
        "threshold": {"target_accuracy": target},
        "loop": {"max_iterations": iterations, "repeat_count": repeats},
    }


def _mlp(epochs, batch_size=32):
    return {
        "architecture": "mlp",
        "hidden_units": 32,
        "train": {"epochs": epochs, "batch_size": batch_size},
    }


def _softmax(epochs):
    return {"architecture": "softmax_regression", "train": {"epochs": epochs}}


_IDENTITY = {"kind": "identity"}


def _jitter(sigma):
    return {"kind": "gaussian_jitter", "sigma": sigma}


_FIXTURE_AUGMENT = [_IDENTITY, _jitter(0.5), _jitter(0.5)]
_DIGITS_AUGMENT = [
    _IDENTITY,
    {"kind": "grid_hflip", "rows": 5, "cols": 5},
    {"kind": "grid_shift", "rows": 5, "cols": 5, "dx": 1, "dy": 0},
    {"kind": "grid_shift", "rows": 5, "cols": 5, "dx": 0, "dy": 1},
    _jitter(0.3),
]

WORKLOADS = {
    # The acceptance-gate config with 4 repeats of 2 iterations. With more
    # iterations a repeat stops when its pool runs dry or admissions stall,
    # after a seed-dependent number of iterations: with the gate's 10, wall
    # time varied by about 30% between seeds.
    "fixture_blobs": Workload(
        "fixture_blobs", "blobs", 4, 635, 1.3,
        _config(10, 500, _softmax(60), _FIXTURE_AUGMENT, 0.99, 2, repeats=4),
    ),
    # Scoring-heavy: a 9.5k pool scored with 5 transforms, one of them noisy.
    # Batches of 128: with 32, iteration 2's fit on the admitted rows took
    # 0.2-5 s depending on the seed and spread wall time by about 25%.
    "digits_pool": Workload(
        "digits_pool", "digits_grid", 10, 1050, 0.6,
        _config(5, 1000, _mlp(60, batch_size=128), _DIGITS_AUGMENT, 0.97, 2),
    ),
    # Training-heavy: 900 labelled rows, 200 epochs, identity-only scoring.
    "rings_fit": Workload(
        "rings_fit", "rings", 3, 1200, 0.3,
        _config(300, 300, _mlp(200), [_IDENTITY], 0.99, 3),
    ),
}

# Tiny variants with the same structure, for the benchmark's own tests.
SMOKE_WORKLOADS = {
    "fixture_blobs": Workload(
        "fixture_blobs", "blobs", 4, 40, 1.3,
        _config(5, 20, _softmax(5), _FIXTURE_AUGMENT, 0.9, 2, repeats=2),
    ),
    "digits_pool": Workload(
        "digits_pool", "digits_grid", 10, 30, 0.6,
        _config(3, 40, _mlp(20), _DIGITS_AUGMENT, 0.8, 2),
    ),
    "rings_fit": Workload(
        "rings_fit", "rings", 3, 60, 0.3,
        _config(20, 20, _mlp(100), [_IDENTITY], 0.7, 2),
    ),
}
