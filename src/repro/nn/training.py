"""Mini-batch Adam training with train/validation splitting.

The paper trains the safety hijacker with Adam on the L2 loss of Eq. (3) and a
60 %/40 % train/validation split of the attack-response dataset (paper §IV-B);
:func:`train_network` implements that loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.nn.network import FeedForwardNetwork

__all__ = [
    "TrainingHistory",
    "TrainingResult",
    "mean_squared_error",
    "train_validation_split",
    "train_network",
]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def mean_squared_error(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Paper Eq. (3): the squared L2 distance of each row, averaged over the batch."""
    predictions = np.atleast_2d(np.asarray(predictions, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} does not match target shape {targets.shape}"
        )
    diff = predictions - targets
    return float(np.mean(np.sum(diff * diff, axis=1)))


@dataclass
class TrainingHistory:
    """Per-epoch loss curves."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        if not self.train_loss:
            raise ValueError("no training epochs recorded")
        return self.train_loss[-1]

    @property
    def final_validation_loss(self) -> float:
        if not self.validation_loss:
            raise ValueError("no validation epochs recorded")
        return self.validation_loss[-1]


@dataclass
class TrainingResult:
    """Outcome of :func:`train_network`."""

    network: FeedForwardNetwork
    history: TrainingHistory
    n_train_samples: int
    n_validation_samples: int


def train_validation_split(
    inputs: np.ndarray,
    targets: np.ndarray,
    train_fraction: float = 0.6,
    rng: np.random.Generator | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split a dataset into train and validation subsets.

    The default 60/40 split matches the paper.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets must have the same number of rows")
    rng = rng if rng is not None else np.random.default_rng()
    n = inputs.shape[0]
    order = rng.permutation(n)
    n_train = max(1, int(round(n * train_fraction)))
    n_train = min(n_train, n - 1) if n > 1 else n
    train_idx, val_idx = order[:n_train], order[n_train:]
    return inputs[train_idx], targets[train_idx], inputs[val_idx], targets[val_idx]


def train_network(
    network: FeedForwardNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int = 50,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    train_fraction: float = 0.6,
    rng: np.random.Generator | None = None,
) -> TrainingResult:
    """Train ``network`` on ``(inputs, targets)`` with mini-batch Adam.

    Returns the trained network along with per-epoch train/validation loss
    curves.  The loss is the mean squared error of paper Eq. (3).  Adam's
    moments and step count live for this call only; ``rng`` draws the split
    and each epoch's shuffle, and the network's own generator its dropout
    masks.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if not 0.0 < learning_rate < np.inf:
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
    rng = rng if rng is not None else np.random.default_rng()

    x_train, y_train, x_val, y_val = train_validation_split(
        inputs, targets, train_fraction=train_fraction, rng=rng
    )
    history = TrainingHistory()
    n_train = x_train.shape[0]
    params = network.weights + network.biases
    moments = [(np.zeros_like(param), np.zeros_like(param)) for param in params]
    step = 0

    for _ in range(epochs):
        order = rng.permutation(n_train)
        # Per-batch losses are averaged weighted by batch size: a ragged final
        # batch (n_train % batch_size != 0) must not bias the epoch loss.
        epoch_loss_sum = 0.0
        for start in range(0, n_train, batch_size):
            batch_idx = order[start : start + batch_size]
            x_batch = x_train[batch_idx]
            y_batch = y_train[batch_idx]
            predictions = network.forward(x_batch)
            batch_loss = mean_squared_error(predictions, y_batch)
            network.backward(2.0 * (predictions - y_batch) / len(batch_idx))
            step += 1
            grads = network.grad_weights + network.grad_biases
            for param, grad, (m, v) in zip(params, grads, moments):
                m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
                v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
                m_hat = m / (1.0 - ADAM_BETA1**step)
                v_hat = v / (1.0 - ADAM_BETA2**step)
                param -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
            epoch_loss_sum += batch_loss * len(batch_idx)
        history.train_loss.append(float(epoch_loss_sum / n_train))
        if x_val.shape[0] > 0:
            history.validation_loss.append(mean_squared_error(network.predict(x_val), y_val))
        else:
            history.validation_loss.append(history.train_loss[-1])

    return TrainingResult(
        network=network,
        history=history,
        n_train_samples=int(x_train.shape[0]),
        n_validation_samples=int(x_val.shape[0]),
    )
