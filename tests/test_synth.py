import numpy as np
import pytest

from ile import ConfigError, generate


def test_zero_noise_blobs_sit_exactly_on_centers():
    samples = generate("blobs", classes=2, per_class=5, noise=0.0, seed=0)
    class0 = samples.X[samples.true_label == 0]
    class1 = samples.X[samples.true_label == 1]
    for f in class0:
        np.testing.assert_array_equal(f, class0[0])
    for f in class1:
        np.testing.assert_array_equal(f, class1[0])
    np.testing.assert_array_equal(class0[0], [4.0, 0.0])
    assert not np.array_equal(class0[0], class1[0])


def test_generation_is_deterministic():
    for kind, classes in [("blobs", 3), ("moons", 2), ("rings", 2), ("digits_grid", 4)]:
        a = generate(kind, classes, per_class=10, noise=0.3, seed=5)
        b = generate(kind, classes, per_class=10, noise=0.3, seed=5)
        c = generate(kind, classes, per_class=10, noise=0.3, seed=6)
        for sa, sb in zip(a.X, b.X):
            np.testing.assert_array_equal(sa, sb)
        assert any(not np.array_equal(sa, sc) for sa, sc in zip(a.X, c.X))


def test_ids_are_sequential_and_class_major():
    samples = generate("blobs", classes=3, per_class=4, noise=0.1, seed=1)
    assert samples.ids.tolist() == list(range(12))
    assert samples.true_label.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    assert (samples.label == samples.true_label).all()
    assert (samples.admitted == 0).all()  # clean


def test_rings_lie_on_their_radii():
    samples = generate("rings", classes=3, per_class=8, noise=0.0, seed=2)
    for x, true_label in zip(samples.X, samples.true_label):
        np.testing.assert_allclose(np.linalg.norm(x), true_label + 1.0, atol=1e-12)


def test_digits_grid_is_binary_at_zero_noise():
    samples = generate("digits_grid", classes=3, per_class=4, noise=0.0, seed=3)
    assert samples.X.shape == (12, 25)
    values = samples.X.ravel()
    assert set(np.unique(values)) <= {0.0, 1.0}


def test_moons_require_two_classes():
    with pytest.raises(ConfigError):
        generate("moons", classes=3, per_class=5, noise=0.1, seed=0)
    samples = generate("moons", classes=2, per_class=5, noise=0.0, seed=0)
    assert len(samples) == 10


def test_argument_validation():
    with pytest.raises(ConfigError):
        generate("spirals", classes=2, per_class=5, noise=0.1, seed=0)
    with pytest.raises(ConfigError):
        generate("blobs", classes=1, per_class=5, noise=0.1, seed=0)
    with pytest.raises(ConfigError):
        generate("blobs", classes=2, per_class=0, noise=0.1, seed=0)
    with pytest.raises(ConfigError):
        generate("blobs", classes=2, per_class=5, noise=-0.5, seed=0)
