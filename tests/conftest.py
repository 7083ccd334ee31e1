from dataclasses import fields

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
    """One sample set from the rows of the given sets, in the order given."""
    return Samples(
        *(np.concatenate([getattr(r, f.name) for r in rows]) for f in fields(Samples))
    )


def assert_partition(triple, ids):
    """D_l, D_u and the validation set of ``triple`` hold each of ``ids`` once.

    One comparison checks that the three sets are disjoint and that together
    they hold every row of the table.
    """
    parts = (triple.labelled, triple.unlabelled, triple.validation)
    found = np.sort(np.concatenate([part.ids for part in parts]))
    np.testing.assert_array_equal(found, np.sort(ids))


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
