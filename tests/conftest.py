import numpy as np
import pytest

from ile import (
    Samples,
    TrainConfig,
    fit,
    init_model,
    generate,
    split,
)
from ile.classifier import SOFTMAX_REGRESSION, ModelState


def make_sample(sid, features, label=None):
    """A one-row clean sample set; ``label`` None means no label."""
    return Samples.clean([sid], [features], [-1 if label is None else label])


def samples_of(*rows):
    """One sample set from one-row sets, in the order given."""
    return Samples.concatenate(rows)


def logit_model(scale=1.0, C=2):
    """Softmax regression with W = scale * I, b = 0, marked trained.

    Feeding features log(p) for a distribution p (with scale 1) makes the
    posterior come out as p itself, which lets tests pin exact posteriors.
    """
    return ModelState(
        architecture=SOFTMAX_REGRESSION,
        d=C,
        C=C,
        hidden_units=0,
        params={"W": scale * np.eye(C), "b": np.zeros(C)},
        init_seed=0,
        trained=True,
    )


@pytest.fixture(scope="session")
def separable_samples():
    """Two well separated 2-D blobs, 50 points each."""
    return generate("blobs", classes=2, per_class=50, noise=0.4, seed=123)


@pytest.fixture(scope="session")
def separable_model(separable_samples):
    model = init_model(SOFTMAX_REGRESSION, d=2, C=2, seed=3)
    return fit(
        model,
        separable_samples,
        TrainConfig(epochs=200, learning_rate=0.1),
        seed=4,
    )


@pytest.fixture(scope="session")
def small_triple():
    """A ready-made labelled/unlabelled/validation split on 3-class blobs."""
    samples = generate("blobs", classes=3, per_class=60, noise=0.8, seed=21)
    return split(samples, labelled_per_class=5, validation_count=30, seed=22)
