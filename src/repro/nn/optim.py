"""The client optimizer.

The paper trains clients with plain SGD (lr 0.1, 2 local epochs).  We provide
SGD with optional momentum, weight decay, and Nesterov lookahead.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Parameter


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr: float | None = None) -> None:
        """Apply one update using accumulated gradients."""
        eta = self.lr if lr is None else lr
        for p, vel in zip(self.params, self._velocity):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = grad + self.momentum * vel if self.nesterov else vel
            else:
                update = grad
            p.value -= eta * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
