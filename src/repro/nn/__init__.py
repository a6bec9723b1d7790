"""The safety hijacker's network, in pure NumPy.

The paper's oracle is a fully-connected network with three hidden layers
(100, 100, 50 neurons), ReLU activations and dropout 0.1, trained with Adam on
an L2 loss over a 60/40 train/validation split (paper §IV-B).
:class:`FeedForwardNetwork` is that network: weight and bias arrays and one
dropout rate, with a lean inference pass (``predict``), a training pass
(``forward``/``backward``) and ``save``/``load``.  :func:`train_network` is
its mini-batch Adam loop.
"""

from repro.nn.network import FeedForwardNetwork
from repro.nn.training import (
    TrainingHistory,
    TrainingResult,
    mean_squared_error,
    train_network,
    train_validation_split,
)

__all__ = [
    "FeedForwardNetwork",
    "TrainingHistory",
    "TrainingResult",
    "mean_squared_error",
    "train_network",
    "train_validation_split",
]
