"""Neural-network layers with explicit forward/backward passes.

Conventions
-----------
- Activations are ``(N, features)``.
- ``forward(x, train)`` caches whatever the matching ``backward`` needs on
  the layer instance; a layer therefore processes one batch at a time (which
  is all SGD training needs).
- Trainable state lives in :class:`Parameter` attributes; any other array
  attribute is such a batch cache, which ``Network.clone`` does not copy.
- ``backward(grad_out)`` returns the gradient w.r.t. the layer input and
  *accumulates* parameter gradients into ``Parameter.grad``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.precision import active_dtype

Initializer = Callable[[tuple[int, ...], np.random.Generator], np.ndarray]


class Parameter:
    """A trainable array together with its accumulated gradient.

    Values are stored in the active precision-policy dtype
    (:func:`repro.nn.precision.active_dtype`): float64 by default,
    float32 when the ``float32`` policy is in force.
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=active_dtype())
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Layer:
    """Base class for all layers."""

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (possibly empty)."""
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.forward(x, train=train)


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init: Initializer = he_normal,
        bias: bool = True,
    ) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init((in_features, out_features), rng), "dense.weight")
        self.bias = Parameter(zeros_init((out_features,), rng), "dense.bias") if bias else None
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._x = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward(train=True)")
        self.weight.grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(train=True)")
        return grad_out * self._mask
