"""Layers for the feed-forward network: dense, ReLU, and dropout.

Each layer implements ``forward`` / ``backward`` with explicit caching of the
quantities needed for back-propagation, and exposes its parameters and
gradients so optimizers can update them in place.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["Layer", "Dense", "ReLU", "Dropout"]


class Layer:
    """Base class for network layers."""

    #: Whether the layer behaves differently at training vs. inference time.
    has_training_mode = False

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch of inputs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. inputs."""
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Trainable parameters, keyed by name."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Gradients for each trainable parameter (same keys as parameters)."""
        return {}


class Dense(Layer):
    """Fully-connected affine layer ``y = x W + b``.

    Weights are initialized with He initialization, which suits the ReLU
    activations used throughout the safety hijacker.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        scale = np.sqrt(2.0 / in_features)
        self.weights = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weights.shape[0]

    @property
    def out_features(self) -> int:
        return self.weights.shape[1]

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {inputs.shape[1]}"
            )
        self._inputs = inputs
        return inputs @ self.weights + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.atleast_2d(grad_output)
        self.grad_weights = self._inputs.T @ grad_output
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weights": self.grad_weights, "bias": self.grad_bias}


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        self._mask = inputs > 0.0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Dropout(Layer):
    """Inverted dropout; active only when ``training=True``.

    The paper uses a dropout rate of 0.1 in the safety hijacker.
    """

    has_training_mode = True

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if not training or self.rate == 0.0:
            self._mask = np.ones_like(inputs)
            return inputs
        keep_prob = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep_prob) / keep_prob
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask
