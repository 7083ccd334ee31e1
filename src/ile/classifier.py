"""Probabilistic classifiers trained from scratch each iteration.

Two desk-scale architectures: plain softmax regression and a one-hidden-layer
tanh MLP. Both minimize cross-entropy (plus an L2 penalty on weight matrices)
by mini-batch gradient descent and are fully deterministic given their seeds.
"""

from dataclasses import dataclass, replace

import numpy as np

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
        trained=False,
    )


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(params, architecture, X):
    if architecture == SOFTMAX_REGRESSION:
        return softmax(X @ params["W"] + params["b"]), None
    hidden = np.tanh(X @ params["W1"] + params["b1"])
    return softmax(hidden @ params["W2"] + params["b2"]), hidden


def _gradients(params, architecture, X, Y, l2):
    """Gradients of the mean cross-entropy plus l2 * sum(W^2) at ``params``.

    ``Y`` holds the one-hot targets of the rows of ``X``. The L2 term enters
    the weight-matrix gradients only, not the biases. Subtracting a one-hot
    row equals subtracting 1 at the true class exactly (``p - 0.0 == p``).
    """
    probs, hidden = _forward(params, architecture, X)
    dlogits = probs  # a fresh array; becomes d(loss)/d(logits) in place
    dlogits -= Y
    dlogits /= X.shape[0]
    decay = 2.0 * l2
    if architecture == SOFTMAX_REGRESSION:
        gW = X.T @ dlogits
        gW += decay * params["W"]
        return {"W": gW, "b": dlogits.sum(axis=0)}
    dhidden = dlogits @ params["W2"].T
    dhidden *= 1.0 - hidden**2
    gW1 = X.T @ dhidden
    gW1 += decay * params["W1"]
    gW2 = hidden.T @ dlogits
    gW2 += decay * params["W2"]
    return {"W1": gW1, "b1": dhidden.sum(axis=0), "W2": gW2, "b2": dlogits.sum(axis=0)}


def loss_and_grad(params, architecture, X, y, C, l2):
    """Mean cross-entropy plus l2 * sum(W^2), with analytic gradients.

    The L2 penalty covers weight matrices only, not biases. ``fit`` takes
    its gradients from the same ``_gradients`` and never computes the loss.
    """
    n = X.shape[0]
    probs, _ = _forward(params, architecture, X)
    eps = 1e-12
    ce = -np.mean(np.log(probs[np.arange(n), y] + eps))
    weights = ("W",) if architecture == SOFTMAX_REGRESSION else ("W1", "W2")
    loss = ce + l2 * sum(np.sum(params[k] ** 2) for k in weights)
    return loss, _gradients(params, architecture, X, np.eye(C)[y], l2)


def fit(model, labelled, config, seed, validation=None) -> ModelState:
    """Train a fresh copy of ``model`` on the labelled samples.

    Deterministic given the starting parameters, the labelled rows in their
    order, and ``seed``. If ``validation`` samples are given and early
    stopping is configured, training stops once validation error has not
    improved for ``early_stop_patience`` epochs and the best parameters are
    kept. Raises TrainingError as soon as an epoch leaves a
    parameter NaN or infinite; overflow on the way there emits no warning.

    Each epoch gathers its permutation of the rows once, so every batch is a
    contiguous slice, and the step ``p -= lr * g`` runs in place.
    """
    config.validate()
    if not labelled:
        raise TrainingError("cannot train on an empty labelled set")
    X, y = labelled.X, _labels(labelled)
    if X.shape[1] != model.d:
        raise DataError(f"feature dimension {X.shape[1]} != model dimension {model.d}")
    if y.max() >= model.C or y.min() < 0:
        raise DataError(f"labels outside [0, {model.C})")

    params = {k: v.copy() for k, v in model.params.items()}
    onehot = np.eye(model.C)[y]
    n, batch, lr = X.shape[0], config.batch_size, config.learning_rate
    best_err = np.inf
    best_params = None
    stale = 0
    # a diverging run is reported by the finite check below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng(seed, "epoch", epoch).permutation(n)
            Xe, Ye = X[order], onehot[order]
            for start in range(0, n, batch):
                grads = _gradients(
                    params,
                    model.architecture,
                    Xe[start : start + batch],
                    Ye[start : start + batch],
                    config.l2,
                )
                for k, g in grads.items():
                    g *= lr
                    params[k] -= g
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
    preds = np.argmax(predict_proba_batch(model, samples.X), axis=1)
    return float(np.mean(preds != _labels(samples)))


def _labels(samples):
    """The assigned labels of ``samples``; raises DataError if one is missing."""
    missing = samples.label < 0
    if missing.any():
        sid = samples.ids[np.argmax(missing)]
        raise DataError(f"sample {sid} has no assigned label")
    return samples.label
