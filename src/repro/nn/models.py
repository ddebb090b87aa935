"""Model factory.

The paper trains ResNet18; here every experiment and benchmark trains the
multi-layer perceptron :func:`make_mlp`.  BaFFLe validates a model only
through its *predictions*, so a small MLP on the synthetic tasks exercises
exactly the same defense code path at a tiny fraction of the training cost.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network


def make_mlp(
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden: Sequence[int] = (64, 32),
) -> Network:
    """Multi-layer perceptron with ReLU activations."""
    if input_dim <= 0 or num_classes <= 0:
        raise ValueError("input_dim and num_classes must be positive")
    layers: list = []
    prev = input_dim
    for width in hidden:
        layers.append(Dense(prev, width, rng))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, num_classes, rng))
    return Network(layers)
