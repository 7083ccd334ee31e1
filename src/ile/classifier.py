"""Probabilistic classifiers trained from scratch each iteration.

Two desk-scale architectures: plain softmax regression and a one-hidden-layer
tanh MLP. Both minimize cross-entropy (plus an L2 penalty on weight matrices)
by mini-batch gradient descent and are fully deterministic given their seeds.
"""

from dataclasses import dataclass, replace

import numpy as np

from .datasets import to_arrays
from .errors import ConfigError, DataError, StateError, TrainingError
from .seeding import rng

SOFTMAX_REGRESSION = "softmax_regression"
MLP = "mlp"


@dataclass
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.1
    batch_size: int = 32
    l2: float = 1e-4
    early_stop_patience: int | None = None

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1 when set")


@dataclass
class ModelState:
    architecture: str
    d: int
    C: int
    hidden_units: int  # 0 for softmax regression
    params: dict
    init_seed: int
    trained: bool = False


def check_architecture(architecture, hidden_units):
    """Raise ConfigError unless ``init_model`` accepts this architecture."""
    if architecture not in (SOFTMAX_REGRESSION, MLP):
        raise ConfigError(f"unknown architecture {architecture!r}")
    if architecture == MLP and (hidden_units is None or hidden_units < 1):
        raise ConfigError("mlp requires hidden_units >= 1")


def init_model(architecture, d, C, seed, hidden_units=None) -> ModelState:
    """Fresh untrained model; weights scaled-uniform in the seed, biases zero."""
    if d < 1:
        raise ConfigError("feature dimension must be >= 1")
    if C < 2:
        raise ConfigError("need at least 2 classes")
    check_architecture(architecture, hidden_units)

    def glorot(fan_in, fan_out, layer):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng(seed, "init", layer).uniform(-s, s, size=(fan_in, fan_out))

    if architecture == SOFTMAX_REGRESSION:
        params = {"W": glorot(d, C, 0), "b": np.zeros(C)}
        hidden_units = 0
    else:
        params = {
            "W1": glorot(d, hidden_units, 0),
            "b1": np.zeros(hidden_units),
            "W2": glorot(hidden_units, C, 1),
            "b2": np.zeros(C),
        }
    return ModelState(
        architecture=architecture,
        d=d,
        C=C,
        hidden_units=hidden_units,
        params=params,
        init_seed=seed,
        trained=False,
    )


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward(params, architecture, X):
    if architecture == SOFTMAX_REGRESSION:
        return softmax(X @ params["W"] + params["b"]), None
    hidden = np.tanh(X @ params["W1"] + params["b1"])
    return softmax(hidden @ params["W2"] + params["b2"]), hidden


def loss_and_grad(params, architecture, X, y, C, l2):
    """Mean cross-entropy plus l2 * sum(W^2), with analytic gradients.

    The L2 penalty covers weight matrices only, not biases.
    """
    n = X.shape[0]
    probs, hidden = _forward(params, architecture, X)
    eps = 1e-12
    ce = -np.mean(np.log(probs[np.arange(n), y] + eps))
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    if architecture == SOFTMAX_REGRESSION:
        loss = ce + l2 * np.sum(params["W"] ** 2)
        grads = {
            "W": X.T @ dlogits + 2.0 * l2 * params["W"],
            "b": dlogits.sum(axis=0),
        }
    else:
        loss = ce + l2 * (np.sum(params["W1"] ** 2) + np.sum(params["W2"] ** 2))
        dhidden = (dlogits @ params["W2"].T) * (1.0 - hidden**2)
        grads = {
            "W1": X.T @ dhidden + 2.0 * l2 * params["W1"],
            "b1": dhidden.sum(axis=0),
            "W2": hidden.T @ dlogits + 2.0 * l2 * params["W2"],
            "b2": dlogits.sum(axis=0),
        }
    return loss, grads


def fit(model, labelled, config, seed, validation=None) -> ModelState:
    """Train a fresh copy of ``model`` on the labelled samples.

    Deterministic given (model.init_seed, seed). If ``validation`` samples are
    given and early stopping is configured, training stops once validation
    error has not improved for ``early_stop_patience`` epochs and the best
    parameters are kept. Raises TrainingError as soon as an epoch leaves a
    parameter NaN or infinite.
    """
    config.validate()
    if not labelled:
        raise TrainingError("cannot train on an empty labelled set")
    X, y = to_arrays(labelled, labels="assigned")
    if X.shape[1] != model.d:
        raise DataError(f"feature dimension {X.shape[1]} != model dimension {model.d}")
    if y.max() >= model.C or y.min() < 0:
        raise DataError(f"labels outside [0, {model.C})")

    params = {k: v.copy() for k, v in model.params.items()}
    n = X.shape[0]
    best_err = np.inf
    best_params = None
    stale = 0
    for epoch in range(config.epochs):
        order = rng(seed, "epoch", epoch).permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = loss_and_grad(
                params, model.architecture, X[idx], y[idx], model.C, config.l2
            )
            for k in params:
                params[k] -= config.learning_rate * grads[k]
        if not all(np.isfinite(v).all() for v in params.values()):
            raise TrainingError(
                f"training diverged: non-finite parameters after epoch {epoch + 1}"
            )
        if validation is not None and config.early_stop_patience is not None:
            trained = replace(model, params=params, trained=True)
            err = evaluate(trained, validation)
            if err < best_err:
                best_err = err
                best_params = {k: v.copy() for k, v in params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break
    if best_params is not None:
        params = best_params
    return replace(model, params=params, trained=True)


def predict_proba(model, features):
    """Posterior class distribution for one feature vector."""
    if not model.trained:
        raise StateError("model is not trained")
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (model.d,):
        raise DataError(f"expected feature shape ({model.d},), got {features.shape}")
    probs, _ = _forward(model.params, model.architecture, features[None, :])
    return probs[0]


def predict_proba_batch(model, X):
    """Posterior distributions for a (n, d) matrix of feature vectors."""
    if not model.trained:
        raise StateError("model is not trained")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DataError(f"expected shape (n, {model.d}), got {X.shape}")
    probs, _ = _forward(model.params, model.architecture, X)
    return probs


def evaluate(model, samples) -> float:
    """Fraction of samples whose argmax prediction mismatches the assigned label."""
    if not samples:
        raise DataError("cannot evaluate on an empty dataset")
    X, y = to_arrays(samples, labels="assigned")
    preds = np.argmax(predict_proba_batch(model, X), axis=1)
    return float(np.mean(preds != y))
