"""The safety hijacker's network (paper §IV-B).

:class:`FeedForwardNetwork` is a multi-layer perceptron held as plain arrays:
``weights[i]`` of shape ``(n_in, n_out)`` and ``biases[i]`` of shape
``(n_out,)``, a ReLU between consecutive layers, inverted dropout after each
hidden ReLU while training, and a linear output layer.
:meth:`~FeedForwardNetwork.safety_hijacker_architecture` builds the paper's
network: hidden layers of 100, 100 and 50 neurons, dropout 0.1, and a scalar
output (the predicted safety potential).

* :meth:`~FeedForwardNetwork.predict` is the inference pass: no dropout and
  nothing kept, one matrix product per layer.
* :meth:`~FeedForwardNetwork.forward` is the training pass: it draws the
  dropout masks from the network's generator and keeps each layer's input and
  masks for :meth:`~FeedForwardNetwork.backward`, which fills
  ``grad_weights`` and ``grad_biases``.
* :meth:`~FeedForwardNetwork.save` persists the network as a directory::

    <path>/
      architecture.json   # {"format": ..., "version": 1, "layers": [...]}
      weights.npz         # layer00_weights, layer00_bias, layer01_weights, ...

  ``architecture.json`` lists one entry per dense, relu and dropout layer.
  Both files are published atomically (temp file + rename), and the float64
  arrays round-trip exactly, so a network rebuilt by
  :meth:`~FeedForwardNetwork.load` predicts bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.cache import atomic_publish

__all__ = ["FeedForwardNetwork"]

#: Format tag of ``architecture.json``; :meth:`FeedForwardNetwork.load`
#: rejects other formats.
NETWORK_FORMAT = "repro-feed-forward-network"

#: Bump when the architecture schema changes incompatibly.
NETWORK_VERSION = 1


class FeedForwardNetwork:
    """A multi-layer perceptron: affine layers joined by ReLU, with dropout
    after each hidden ReLU while training."""

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if not weights or len(weights) != len(biases):
            raise ValueError("a network needs at least one layer and one bias per layer")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        self.weights = [np.asarray(layer, dtype=float) for layer in weights]
        self.biases = [np.asarray(bias, dtype=float) for bias in biases]
        n_in = self.weights[0].shape[0]
        for layer, bias in zip(self.weights, self.biases):
            if layer.ndim != 2 or layer.shape[0] != n_in or bias.shape != layer.shape[1:]:
                raise ValueError(
                    f"layer shapes do not chain: weights {layer.shape} and bias "
                    f"{bias.shape} after {n_in} features"
                )
            n_in = layer.shape[1]
        self.dropout_rate = dropout_rate
        #: The generator the dropout masks are drawn from.
        self.rng = rng if rng is not None else np.random.default_rng()
        self.grad_weights = [np.zeros_like(layer) for layer in self.weights]
        self.grad_biases = [np.zeros_like(bias) for bias in self.biases]
        # What forward keeps for backward: each layer's input, and each hidden
        # layer's ReLU mask and dropout mask (None without dropout).
        self._inputs: List[np.ndarray] = []
        self._masks: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []

    @classmethod
    def mlp(
        cls,
        input_dim: int,
        hidden_dims: Sequence[int],
        output_dim: int,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> "FeedForwardNetwork":
        """A multi-layer perceptron with He-initialized weights and zero biases.

        ``rng`` draws the weights layer by layer and then the dropout masks.
        """
        rng = rng if rng is not None else np.random.default_rng()
        dims = [input_dim, *hidden_dims, output_dim]
        if min(dims) <= 0:
            raise ValueError("layer dimensions must be positive")
        weights = [
            rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
            for n_in, n_out in zip(dims[:-1], dims[1:])
        ]
        biases = [np.zeros(n_out) for n_out in dims[1:]]
        return cls(weights, biases, dropout_rate=dropout_rate, rng=rng)

    @classmethod
    def safety_hijacker_architecture(
        cls, input_dim: int, rng: np.random.Generator | None = None
    ) -> "FeedForwardNetwork":
        """The 100-100-50 ReLU/dropout-0.1 architecture from paper §IV-B."""
        return cls.mlp(
            input_dim=input_dim,
            hidden_dims=(100, 100, 50),
            output_dim=1,
            dropout_rate=0.1,
            rng=rng,
        )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """The inference pass for a batch of input rows (dropout off)."""
        out = np.atleast_2d(np.asarray(inputs, dtype=float))
        for weights, bias in zip(self.weights[:-1], self.biases[:-1]):
            out = out @ weights + bias
            out = np.where(out > 0.0, out, 0.0)
        return out @ self.weights[-1] + self.biases[-1]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """The training pass: :meth:`predict` with inverted dropout after each
        hidden ReLU, keeping what :meth:`backward` needs."""
        out = np.atleast_2d(np.asarray(inputs, dtype=float))
        keep = 1.0 - self.dropout_rate
        self._inputs, self._masks = [], []
        for weights, bias in zip(self.weights[:-1], self.biases[:-1]):
            self._inputs.append(out)
            out = out @ weights + bias
            relu_mask = out > 0.0
            out = np.where(relu_mask, out, 0.0)
            drop_mask = None
            if self.dropout_rate > 0.0:
                drop_mask = (self.rng.random(out.shape) < keep) / keep
                out = out * drop_mask
            self._masks.append((relu_mask, drop_mask))
        self._inputs.append(out)
        return out @ self.weights[-1] + self.biases[-1]

    def backward(self, grad_output: np.ndarray) -> None:
        """Back-propagate the loss gradient w.r.t. the last :meth:`forward`'s
        output, filling ``grad_weights`` and ``grad_biases``."""
        if not self._inputs:
            raise RuntimeError("backward called before forward")
        grad = np.atleast_2d(grad_output)
        for index in range(len(self.weights) - 1, -1, -1):
            self.grad_weights[index] = self._inputs[index].T @ grad
            self.grad_biases[index] = grad.sum(axis=0)
            if index:
                grad = grad @ self.weights[index].T
                relu_mask, drop_mask = self._masks[index - 1]
                if drop_mask is not None:
                    grad = grad * drop_mask
                grad = grad * relu_mask

    def num_parameters(self) -> int:
        """Total count of trainable scalar parameters."""
        return sum(layer.size + bias.size for layer, bias in zip(self.weights, self.biases))

    def _layers(self) -> List[Dict[str, object]]:
        """``architecture.json``'s layer entries, in network order."""
        layers: List[Dict[str, object]] = []
        for weights in self.weights:
            if layers:
                layers.append({"kind": "relu"})
                if self.dropout_rate > 0.0:
                    layers.append({"kind": "dropout", "rate": self.dropout_rate})
            layers.append(
                {"kind": "dense", "in_features": weights.shape[0], "out_features": weights.shape[1]}
            )
        return layers

    def save(self, path: Union[str, Path]) -> Path:
        """Persist this network (architecture JSON + weights NPZ) under ``path``."""
        directory = Path(path).expanduser()
        directory.mkdir(parents=True, exist_ok=True)
        spec = {"format": NETWORK_FORMAT, "version": NETWORK_VERSION, "layers": self._layers()}
        atomic_publish(
            directory / "architecture.json",
            lambda handle: handle.write(json.dumps(spec, indent=2).encode("utf-8")),
        )
        arrays: Dict[str, np.ndarray] = {}
        for index, (weights, bias) in enumerate(zip(self.weights, self.biases)):
            arrays[f"layer{index:02d}_weights"] = weights
            arrays[f"layer{index:02d}_bias"] = bias
        atomic_publish(
            directory / "weights.npz", lambda handle: np.savez_compressed(handle, **arrays)
        )
        return directory

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FeedForwardNetwork":
        """Rebuild a network persisted with :meth:`save` (bit-exact weights).

        Rejects a foreign format, a newer version, and any layer list other
        than dense layers joined by relu (and one dropout rate) that matches
        the weights.
        """
        directory = Path(path).expanduser()
        with (directory / "architecture.json").open("r", encoding="utf-8") as handle:
            spec = json.load(handle)
        if spec.get("format") != NETWORK_FORMAT:
            raise ValueError(f"not a serialized network: format={spec.get('format')!r}")
        version = int(spec.get("version", 0))
        if version > NETWORK_VERSION:
            raise ValueError(
                f"network saved by a newer serialization version ({version} > {NETWORK_VERSION})"
            )
        layers = spec.get("layers", [])
        n_dense = sum(entry.get("kind") == "dense" for entry in layers)
        rates = [entry.get("rate") for entry in layers if entry.get("kind") == "dropout"]
        with np.load(directory / "weights.npz") as archive:
            network = cls(
                [archive[f"layer{index:02d}_weights"] for index in range(n_dense)],
                [archive[f"layer{index:02d}_bias"] for index in range(n_dense)],
                dropout_rate=rates[0] if rates else 0.0,
            )
        if network._layers() != layers:
            raise ValueError(
                f"unsupported network in {directory}: its layers are not dense layers "
                "joined by relu (and one dropout rate) matching weights.npz"
            )
        return network
