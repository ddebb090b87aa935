"""Sequential network container with flat-parameter views.

Federated learning treats a model as one big weight vector: FedAvg averages
vectors, model replacement rescales vector differences, and norm-clipping
baselines bound vector norms.  :class:`Network` therefore exposes its
parameters both as structured per-layer arrays and as a single flat
vector in the active precision-policy dtype (float64 by default).
"""

from __future__ import annotations

import copy
import os
from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Layer, Parameter
from repro.nn.losses import softmax
from repro.nn.precision import active_dtype


def _sanitizer():
    """The :mod:`repro.analysis.sanitize` module when sanitizing is on, else None.

    Imported lazily at call time: ``repro.analysis`` imports back into
    ``repro.fl`` (which imports this module), so a module-level import
    here would be cyclic.  The cheap env-var check keeps the disabled
    path free of any import machinery.
    """
    if not os.environ.get("REPRO_SANITIZE"):
        return None
    from repro.analysis import sanitize

    return sanitize if sanitize.enabled() else None


class Network:
    """A feed-forward stack of :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=active_dtype())
        sanitize = _sanitizer()
        for index, layer in enumerate(self.layers):
            out = layer.forward(out, train=train)
            if sanitize is not None:
                sanitize.assert_dtype(
                    out, f"forward[{index}:{type(layer).__name__}]"
                )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        sanitize = _sanitizer()
        for index, layer in zip(
            range(len(self.layers) - 1, -1, -1), reversed(self.layers)
        ):
            grad = layer.backward(grad)
            if sanitize is not None:
                sanitize.assert_dtype(
                    grad, f"backward[{index}:{type(layer).__name__}]"
                )
        return grad

    def __call__(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.forward(x, train=train)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def get_flat(self) -> np.ndarray:
        """Concatenate all parameter values into one flat vector (a copy)."""
        params = self.parameters()
        if not params:
            return np.zeros(0, dtype=active_dtype())
        return np.concatenate([p.value.ravel() for p in params])

    def set_flat(self, vector: np.ndarray) -> None:
        """Write a flat vector back into the structured parameters."""
        vector = np.asarray(vector, dtype=active_dtype())
        expected = self.num_parameters
        if vector.shape != (expected,):
            raise ValueError(f"expected flat vector of length {expected}, got {vector.shape}")
        offset = 0
        for p in self.parameters():
            p.value[...] = vector[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def get_grad_flat(self) -> np.ndarray:
        """Concatenate all parameter gradients into one flat vector."""
        params = self.parameters()
        if not params:
            return np.zeros(0, dtype=active_dtype())
        return np.concatenate([p.grad.ravel() for p in params])

    # ------------------------------------------------------------------
    # Inference helpers
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Predicted class labels, evaluated in mini-batches."""
        return np.concatenate(
            [self.forward(xb).argmax(axis=1) for xb in _batches(x, batch_size)]
        )

    def predict_proba(self, x: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Predicted class probabilities (softmax of the logits)."""
        return np.concatenate([softmax(self.forward(xb)) for xb in _batches(x, batch_size)])

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def clone(self) -> "Network":
        """A copy of the network's weights, without its training state.

        Each layer is copied shallowly, then its :class:`Parameter`
        attributes get copies of their values (same dtype, zero gradient)
        and its other array attributes — the batch caches ``forward``
        keeps for ``backward`` — are dropped, so the clone must run its
        own ``forward(train=True)`` before a ``backward``.
        """
        clone = copy.copy(self)
        clone.layers = [_clone_layer(layer) for layer in self.layers]
        return clone

    def __repr__(self) -> str:
        names = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Network([{names}], params={self.num_parameters})"


def _clone_layer(layer: Layer) -> Layer:
    clone = copy.copy(layer)
    for name, value in vars(layer).items():
        if isinstance(value, Parameter):
            param = copy.copy(value)
            param.value = value.value.copy()
            param.grad = np.zeros_like(param.value)
            setattr(clone, name, param)
        elif isinstance(value, np.ndarray):
            setattr(clone, name, None)
    return clone


def _batches(x: np.ndarray, batch_size: int):
    x = np.asarray(x, dtype=active_dtype())
    if len(x) == 0:
        raise ValueError("cannot iterate over an empty input array")
    for start in range(0, len(x), batch_size):
        yield x[start : start + batch_size]
