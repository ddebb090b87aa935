"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic_cifar import SyntheticCifar
from repro.data.synthetic_femnist import SyntheticFemnist
from repro.nn.layers import Layer
from repro.nn.models import make_mlp


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_dataset(rng: np.random.Generator) -> Dataset:
    """60 linearly separable samples in 3 classes (fast to learn)."""
    centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
    labels = np.repeat(np.arange(3), 20)
    x = centers[labels] + rng.normal(0.0, 0.4, size=(60, 2))
    return Dataset(x, labels, num_classes=3)


@pytest.fixture
def cifar_task() -> SyntheticCifar:
    return SyntheticCifar()


@pytest.fixture
def femnist_task() -> SyntheticFemnist:
    return SyntheticFemnist(num_writers=8)


@pytest.fixture
def tiny_mlp(rng: np.random.Generator):
    """A 2-in, 3-out MLP matching ``tiny_dataset``."""
    return make_mlp(2, 3, rng, hidden=(8,))


def shm_entries(prefix: str) -> list[str]:
    """Utility: /dev/shm entries under a prefix (the shm leak checks)."""
    import os

    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return []


def train_briefly(model, dataset, rng, epochs=30, lr=0.1):
    """Utility: a few epochs of full-batch SGD (used by several tests)."""
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.nn.optim import SGD

    loss = SoftmaxCrossEntropy()
    opt = SGD(model.parameters(), lr=lr, momentum=0.9)
    for _ in range(epochs):
        model.zero_grad()
        loss.forward(model.forward(dataset.x, train=True), dataset.y)
        model.backward(loss.backward())
        opt.step()
    return model


class Square(Layer):
    """Utility: a layer with no stacked twin, so any network holding it
    takes the per-model path (the unstackable-fallback tests)."""

    def forward(self, x, train=False):
        if train:
            self._x = x
        return x * x

    def backward(self, grad_out):
        return 2.0 * self._x * grad_out
