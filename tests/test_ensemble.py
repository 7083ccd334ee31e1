import math
import time

import numpy as np

from ile.augment import AugmentationPlan, GaussianJitter, Identity
from ile.classifier import predict_proba_batch
from ile.ensemble import ensemble_posteriors, select_distribution

from conftest import logit_model, make_sample


def oracle_select(rows, population_std=True):
    """Straight-line reference: python loops, no numpy, no shared code."""
    A = len(rows)
    C = len(rows[0])
    sigma = []
    for c in range(C):
        col = [rows[a][c] for a in range(A)]
        mean = sum(col) / A
        denom = A if population_std else A - 1
        if denom <= 0:
            sigma.append(0.0)
        else:
            sigma.append(math.sqrt(sum((v - mean) ** 2 for v in col) / denom))
    best_a = 0
    best_val = -math.inf
    for a in range(A):
        row_val = max(rows[a][c] - sigma[c] for c in range(C))
        if row_val > best_val:
            best_val = row_val
            best_a = a
    return best_a, rows[best_a], sigma, best_val


def random_posterior_rows(rng, A, C):
    raw = rng.uniform(0.1, 1.0, size=(A, C))
    return (raw / raw.sum(axis=1, keepdims=True)).tolist()


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(2024)
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
    assert worst <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_hand_case_disagreeing_rows():
    z = np.array([[0.9, 0.1], [0.5, 0.5]])
    result = select_distribution(z)
    np.testing.assert_allclose(result.sigma, [0.2, 0.2], atol=1e-12)
    assert result.chosen_index == 0
    np.testing.assert_array_equal(result.distribution, [0.9, 0.1])
    assert abs(result.scaled_max - 0.7) < 1e-12
    # the losing row's best penalized score really is 0.3
    assert abs(max(z[1] - result.sigma) - 0.3) < 1e-12


def test_zero_variance_reduces_to_single_prediction():
    z = np.array([[0.6, 0.4], [0.6, 0.4]])
    result = select_distribution(z)
    np.testing.assert_array_equal(result.sigma, [0.0, 0.0])
    assert result.chosen_index == 0
    np.testing.assert_array_equal(result.distribution, [0.6, 0.4])


def test_single_row_is_degenerate():
    z = np.array([[0.3, 0.5, 0.2]])
    for population_std in (True, False):
        result = select_distribution(z, population_std=population_std)
        assert result.chosen_index == 0
        np.testing.assert_array_equal(result.sigma, np.zeros(3))
        np.testing.assert_array_equal(result.distribution, z[0])


def test_sample_std_variant():
    z = np.array([[0.9, 0.1], [0.5, 0.5]])
    result = select_distribution(z, population_std=False)
    np.testing.assert_allclose(result.sigma, [0.2 * math.sqrt(2)] * 2, atol=1e-12)
    want_a, _, want_sigma, _ = oracle_select(z.tolist(), population_std=False)
    assert result.chosen_index == want_a
    np.testing.assert_allclose(result.sigma, want_sigma, atol=1e-12)


def test_ties_go_to_the_lowest_row():
    z = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    assert select_distribution(z).chosen_index == 0


def test_row_permutation_equivariance():
    rng = np.random.default_rng(7)
    z = np.array(random_posterior_rows(rng, 5, 4))
    base = select_distribution(z)
    perm = rng.permutation(5)
    permuted = select_distribution(z[perm])
    np.testing.assert_allclose(permuted.sigma, base.sigma, atol=1e-12)
    np.testing.assert_allclose(permuted.distribution, base.distribution, atol=1e-12)
    assert perm[permuted.chosen_index] == base.chosen_index


def test_chosen_distribution_is_an_unscaled_input_row():
    rng = np.random.default_rng(8)
    for _ in range(50):
        z = np.array(random_posterior_rows(rng, 4, 3))
        result = select_distribution(z)
        np.testing.assert_array_equal(result.distribution, z[result.chosen_index])
        assert abs(result.distribution.sum() - 1.0) < 1e-9
        assert np.all(result.sigma >= 0)


def ensemble_of(model, plan, sample, seed):
    """The selection for a one-row set, from its (A, C) posterior matrix."""
    return select_distribution(ensemble_posteriors(model, plan, sample, seed)[0])


def test_identical_augmentations_reproduce_plain_prediction():
    model = logit_model(scale=2.0, C=2)
    sample = make_sample(3, [0.4, -0.2])
    plan = AugmentationPlan.from_transforms([Identity(), GaussianJitter(0.0)])
    result = ensemble_of(model, plan, sample, seed=0)
    np.testing.assert_array_equal(
        result.distribution, predict_proba_batch(model, sample.X)[0]
    )
    np.testing.assert_array_equal(result.sigma, [0.0, 0.0])


def test_ensemble_predict_uses_per_sample_streams():
    model = logit_model(scale=1.0, C=2)
    plan = AugmentationPlan.from_transforms([Identity(), GaussianJitter(0.5)])
    s = make_sample(11, [0.2, 0.1])
    a = ensemble_of(model, plan, s, seed=1)
    b = ensemble_of(model, plan, s, seed=1)
    np.testing.assert_array_equal(a.distribution, b.distribution)
    c = ensemble_of(model, plan, s, seed=2)
    assert not np.array_equal(a.sigma, c.sigma)
