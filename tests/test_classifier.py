import warnings
from dataclasses import replace

import numpy as np
import pytest

from ile import (
    ConfigError,
    DataError,
    Samples,
    StateError,
    TrainConfig,
    TrainingError,
    generate,
)
from ile.classifier import (
    MLP,
    SOFTMAX_REGRESSION,
    evaluate,
    fit,
    init_model,
    loss_and_grad,
    predict_proba_batch,
    softmax,
)
from ile.seeding import rng

from conftest import logit_model, make_sample, samples_of


def flat_params(model):
    """All parameters of ``model`` as one vector, in insertion order."""
    return np.concatenate([v.ravel() for v in model.params.values()])


def test_parameter_counts():
    m = init_model(SOFTMAX_REGRESSION, d=2, C=3, seed=0)
    assert flat_params(m).size == 2 * 3 + 3
    m = init_model(MLP, d=4, C=2, seed=0, hidden_units=16)
    assert flat_params(m).size == (4 * 16 + 16) + (16 * 2 + 2)


def test_init_is_deterministic_and_seed_sensitive():
    a = init_model(MLP, d=3, C=2, seed=5, hidden_units=4)
    b = init_model(MLP, d=3, C=2, seed=5, hidden_units=4)
    c = init_model(MLP, d=3, C=2, seed=6, hidden_units=4)
    np.testing.assert_array_equal(flat_params(a), flat_params(b))
    assert not np.array_equal(flat_params(a), flat_params(c))
    np.testing.assert_array_equal(a.params["b1"], np.zeros(4))
    np.testing.assert_array_equal(a.params["b2"], np.zeros(2))


def test_init_weight_scale_bound():
    m = init_model(SOFTMAX_REGRESSION, d=30, C=10, seed=1)
    bound = np.sqrt(6.0 / (30 + 10))
    W = m.params["W"]
    assert np.all(np.abs(W) <= bound)
    assert np.abs(W).max() > 0.5 * bound  # actually fills the range


def test_init_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        init_model(SOFTMAX_REGRESSION, d=0, C=2, seed=0)
    with pytest.raises(ConfigError):
        init_model(SOFTMAX_REGRESSION, d=2, C=1, seed=0)
    with pytest.raises(ConfigError):
        init_model(MLP, d=2, C=2, seed=0)
    with pytest.raises(ConfigError):
        init_model("perceptron", d=2, C=2, seed=0)


def test_softmax_is_a_distribution_even_for_huge_logits():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-1000, 1000, size=(200, 6))
    p = softmax(logits)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(50, 4))
    shifted = logits + 123.456
    np.testing.assert_allclose(softmax(logits), softmax(shifted), atol=1e-12)
    assert np.array_equal(
        np.argmax(softmax(logits), axis=1), np.argmax(softmax(shifted), axis=1)
    )


def test_zero_parameters_give_uniform_posterior():
    m = logit_model(scale=0.0, C=4)
    p = predict_proba_batch(m, np.array([[3.0, -1.0, 0.5, 2.0]]))[0]
    np.testing.assert_allclose(p, 0.25, atol=1e-12)


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------

def central_difference(params, architecture, X, y, C, l2, order):
    flat = np.concatenate([params[k].ravel() for k in order])
    grad = np.empty_like(flat)
    h = 1e-6

    def unpack(vec):
        out = {}
        off = 0
        for k in order:
            shape = params[k].shape
            size = int(np.prod(shape))
            out[k] = vec[off : off + size].reshape(shape)
            off += size
        return out

    for i in range(flat.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            bumped = flat.copy()
            bumped[i] += sign * h
            loss, _ = loss_and_grad(unpack(bumped), architecture, X, y, C, l2)
            if slot == 0:
                up = loss
            else:
                down = loss
        grad[i] = (up - down) / (2 * h)
    return grad


@pytest.mark.parametrize("architecture", [SOFTMAX_REGRESSION, MLP])
def test_gradients_match_finite_differences(architecture):
    rng = np.random.default_rng(99)
    for trial in range(5):
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


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_separable_data_trains_to_zero_error(separable_samples):
    model = init_model(SOFTMAX_REGRESSION, d=2, C=2, seed=3)
    fitted = fit(model, separable_samples, TrainConfig(epochs=200), seed=4)
    assert evaluate(fitted, separable_samples) == 0.0


def test_far_inside_sample_predicts_its_class(separable_model, separable_samples):
    center = np.mean(
        separable_samples.X[separable_samples.true_label == 1], axis=0
    )
    p = predict_proba_batch(separable_model, center[None])[0]
    assert int(np.argmax(p)) == 1
    assert p[1] > 0.99


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(l2=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_patience=0)


def test_fit_is_deterministic(separable_samples):
    model = init_model(MLP, d=2, C=2, seed=3, hidden_units=5)
    cfg = TrainConfig(epochs=30)
    a = fit(model, separable_samples, cfg, seed=11)
    b = fit(model, separable_samples, cfg, seed=11)
    c = fit(model, separable_samples, cfg, seed=12)
    np.testing.assert_array_equal(flat_params(a), flat_params(b))
    assert not np.array_equal(flat_params(a), flat_params(c))
    # the input model is untouched
    assert not model.trained
    np.testing.assert_array_equal(
        flat_params(model), flat_params(init_model(MLP, 2, 2, 3, hidden_units=5))
    )


def test_fit_rejects_bad_inputs(separable_samples):
    model = init_model(SOFTMAX_REGRESSION, d=2, C=2, seed=0)
    with pytest.raises(TrainingError):
        fit(model, separable_samples[:0], TrainConfig(), seed=0)
    with pytest.raises(DataError, match="dimension"):
        fit(model, make_sample(0, [1.0, 2.0, 3.0], 0), TrainConfig(), seed=0)
    with pytest.raises(DataError, match="labels"):
        fit(model, make_sample(0, [1.0, 2.0], 5), TrainConfig(), seed=0)


def test_diverging_training_fails_loudly():
    samples = generate("rings", classes=3, per_class=60, noise=0.3, seed=1)
    model = init_model(MLP, d=2, C=3, seed=1, hidden_units=8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="after epoch 23"):
            fit(model, samples, TrainConfig(epochs=200, learning_rate=1e6), seed=2)


def test_diverging_training_emits_no_warning():
    # the finite check is the only signal: no overflow or invalid-value warning
    samples = generate("rings", classes=3, per_class=60, noise=0.3, seed=1)
    model = init_model(MLP, d=2, C=3, seed=1, hidden_units=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="after epoch 23"):
            fit(model, samples, TrainConfig(epochs=200, learning_rate=1e6), seed=2)


def reference_epoch(model, samples, config, seed):
    """Epoch 0 of plain mini-batch descent: ``p - lr * g`` per batch, with
    ``g`` from ``loss_and_grad`` on the batch's rows gathered from ``X``."""
    params = model.params
    order = rng(seed, "epoch", 0).permutation(len(samples))
    for start in range(0, len(samples), config.batch_size):
        idx = order[start : start + config.batch_size]
        _, grads = loss_and_grad(
            params, model.architecture, samples.X[idx], samples.label[idx],
            model.C, config.l2,
        )
        params = {k: p - config.learning_rate * grads[k] for k, p in params.items()}
    return params


@pytest.mark.parametrize("architecture", [SOFTMAX_REGRESSION, MLP])
@pytest.mark.parametrize("batch_size", [11, 8])  # 33 rows: even split, 1-row tail
def test_fit_is_exactly_plain_minibatch_descent(architecture, batch_size):
    samples = generate("blobs", classes=3, per_class=11, noise=1.0, seed=4)
    model = init_model(
        architecture, d=2, C=3, seed=5, hidden_units=6 if architecture == MLP else None
    )
    before = {k: v.copy() for k, v in model.params.items()}
    cfg = TrainConfig(epochs=1, learning_rate=0.3, batch_size=batch_size, l2=1e-2)
    fitted = fit(model, samples, cfg, seed=6)
    expected = reference_epoch(model, samples, cfg, seed=6)
    assert list(fitted.params) == list(expected)
    for k in expected:
        assert np.array_equal(fitted.params[k], expected[k]), k
        # the in-place updates never reach the caller's model
        assert np.array_equal(model.params[k], before[k]), k


def test_early_stopping_returns_the_best_epochs_parameters(small_triple):
    labelled, validation = small_triple.labelled, small_triple.validation
    model = init_model(MLP, d=2, C=3, seed=1, hidden_units=4)
    cfg = TrainConfig(epochs=40, learning_rate=0.5, batch_size=4, early_stop_patience=2)
    stopped = fit(model, labelled, cfg, seed=2, validation=validation)

    def run_for(epochs):
        return fit(model, labelled, replace(cfg, epochs=epochs, early_stop_patience=None), seed=2)

    # replay the stopping rule on the validation error after each epoch
    best_epoch, best_err, stale, epoch = 0, np.inf, 0, 0
    while stale < cfg.early_stop_patience and epoch < cfg.epochs:
        epoch += 1
        err = evaluate(run_for(epoch), validation)
        if err < best_err:
            best_epoch, best_err, stale = epoch, err, 0
        else:
            stale += 1
    assert best_epoch < epoch < cfg.epochs  # it stopped after epochs that did not improve
    # the kept copy is the best epoch's, not the arrays updated after it
    expected = run_for(best_epoch).params
    for k in expected:
        assert np.array_equal(stopped.params[k], expected[k]), k


def test_early_stopping_keeps_the_best_epoch(separable_samples, small_triple):
    labelled, validation = small_triple.labelled, small_triple.validation
    model = init_model(SOFTMAX_REGRESSION, d=2, C=3, seed=1)
    cfg_stop = TrainConfig(epochs=50, early_stop_patience=1)
    stopped = fit(model, labelled, cfg_stop, seed=2, validation=validation)
    one_epoch = fit(model, labelled, TrainConfig(epochs=1), seed=2)
    # the first epoch is one of the candidates the early stopper saw,
    # so the kept parameters can never be worse than it on validation
    assert evaluate(stopped, validation) <= evaluate(one_epoch, validation) + 1e-12


# ---------------------------------------------------------------------------
# Prediction and evaluation
# ---------------------------------------------------------------------------

def test_predict_requires_training_and_right_shape():
    model = init_model(SOFTMAX_REGRESSION, d=2, C=2, seed=0)
    with pytest.raises(StateError):
        predict_proba_batch(model, np.zeros((1, 2)))
    trained = logit_model()
    with pytest.raises(DataError):
        predict_proba_batch(trained, np.zeros(2))  # one vector, not a (1, d) batch
    with pytest.raises(DataError):
        predict_proba_batch(trained, np.zeros((4, 3)))


def test_evaluate_error_fractions():
    m = logit_model(scale=10.0)  # features pick the predicted class
    right = samples_of(
        *(make_sample(i, [1.0, -1.0] if i % 2 == 0 else [-1.0, 1.0], i % 2) for i in range(4))
    )
    assert evaluate(m, right) == 0.0
    wrong = replace(
        Samples.clean(range(4), [[1.0, -1.0]] * 4, [1] * 4), true_label=np.full(4, -1)
    )
    assert evaluate(m, wrong) == 1.0
    mixed = samples_of(right[:3], wrong[3:])
    assert evaluate(m, mixed) == 0.25
    with pytest.raises(DataError):
        evaluate(m, right[:0])
