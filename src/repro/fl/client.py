"""Clients and local training.

An FL client receives the global model, trains it on private data for a few
epochs, and returns the *update* ``U = L - G`` as a flat vector.  Malicious
clients (in :mod:`repro.attacks`) subclass :class:`Client` and override
:meth:`Client.produce_update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.nn.optim import SGD


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Local SGD hyper-parameters (subset of :class:`repro.fl.FLConfig`).

    ``max_grad_norm`` enables per-step global gradient clipping, a common
    stabiliser for small-batch local training; ``None`` disables it.
    """

    epochs: int = 2
    batch_size: int = 32
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_grad_norm: float | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive when set")


def clip_gradients(model: Network, max_norm: float) -> float:
    """Scale all parameter gradients so their global L2 norm is <= max_norm.

    Returns the pre-clipping norm.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for p in model.parameters():
        total += float((p.grad**2).sum())
    norm = total**0.5
    if norm > max_norm:
        scale = max_norm / norm
        for p in model.parameters():
            p.grad *= scale
    return norm


def local_train(
    model: Network,
    dataset: Dataset,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
) -> Network:
    """Train ``model`` in place on ``dataset`` and return it.

    Plain mini-batch SGD with momentum; the loss is softmax cross-entropy
    (the paper's image-classification setting).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            batch = order[start : start + config.batch_size]
            model.zero_grad()
            loss.forward(model.forward(dataset.x[batch], train=True), dataset.y[batch])
            model.backward(loss.backward())
            if config.max_grad_norm is not None:
                clip_gradients(model, config.max_grad_norm)
            optimizer.step()
    return model


class Client:
    """Base class: a participant identified by ``client_id`` holding data."""

    #: Whether ``produce_update`` is a pure function of its arguments (plus
    #: the client's own frozen data), so the thread engine may execute it
    #: on a pool thread.  Clients that read live server-side state or
    #: mutate state the server must observe set this to ``False`` and
    #: always run on the calling thread, whatever the executor.
    parallel_safe: bool = True

    #: Whether this client's honest update may be folded into a stacked
    #: cohort (:mod:`repro.fl.cohort`).  Only consulted for clients whose
    #: ``produce_update`` *is* :meth:`HonestClient.produce_update` — any
    #: override already falls back to the per-model path — so this is an
    #: opt-out for honest subclasses with exotic side effects.
    cohort_safe: bool = True

    def __init__(self, client_id: int, dataset: Dataset) -> None:
        self.client_id = client_id
        self.dataset = dataset

    @property
    def is_malicious(self) -> bool:
        """Whether this client is attacker-controlled (honest by default)."""
        return False

    def produce_update(
        self,
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return this client's update ``U = L - G`` as a flat vector."""
        raise NotImplementedError

    def __repr__(self) -> str:
        kind = "malicious" if self.is_malicious else "honest"
        return f"{type(self).__name__}(id={self.client_id}, {kind}, n={len(self.dataset)})"


class HonestClient(Client):
    """A protocol-following client: local SGD on private data."""

    def produce_update(
        self,
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        del round_idx  # honest behaviour is round-independent
        global_flat = global_model.get_flat()
        local = global_model.clone()
        local_train(local, self.dataset, config, rng)
        return local.get_flat() - global_flat
