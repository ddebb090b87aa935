"""Softmax cross-entropy, the training loss.

The loss exposes ``forward(logits, targets) -> float`` and
``backward() -> np.ndarray`` returning the gradient w.r.t. the logits,
averaged over the batch (so learning rates are batch-size independent).
"""

from __future__ import annotations

import numpy as np


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    return np.exp(log_softmax(logits))


class SoftmaxCrossEntropy:
    """Softmax + cross-entropy with integer class targets."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=np.int64)
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, classes), got {logits.shape}")
        if targets.shape != (logits.shape[0],):
            raise ValueError(f"targets shape {targets.shape} != ({logits.shape[0]},)")
        log_probs = log_softmax(logits)
        self._probs = np.exp(log_probs)
        self._targets = targets
        return float(-log_probs[np.arange(len(targets), dtype=np.intp), targets].mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        grad[np.arange(len(self._targets), dtype=np.intp), self._targets] -= 1.0
        return grad / len(self._targets)
