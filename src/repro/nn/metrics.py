"""Classification metrics, including the per-class error views BaFFLe uses.

The paper's validation function (Sec. V) is built on two per-class error
quantities computed over a fixed dataset ``D``:

- the *source-focused* error ``err_D(f)_{y->}``: the fraction of samples in
  ``D`` which belong to class ``y`` and are misclassified by ``f``;
- the *target-focused* error ``err_D(f)_{->y}``: the fraction of samples in
  ``D`` which ``f`` wrongly assigns to class ``y``.

Both are fractions of the *whole* dataset (the paper's literal definition),
which keeps them well-defined on non-IID client shards where some classes may
be absent.  Class-conditional variants (normalising by the class count, as
plotted in the paper's Figure 2) are available via ``normalize="class"``.
"""

from __future__ import annotations

import numpy as np


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Empirical accuracy ``acc_D(f)``."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if len(y_true) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    return float((y_true == y_pred).mean())


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> np.ndarray:
    """Confusion matrix ``M[i, j]`` = count of true class ``i`` predicted as ``j``."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if len(y_true) and (y_true.min() < 0 or y_true.max() >= num_classes):
        raise ValueError("true labels out of range")
    if len(y_pred) and (y_pred.min() < 0 or y_pred.max() >= num_classes):
        raise ValueError("predicted labels out of range")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def source_focused_errors(
    conf: np.ndarray, normalize: str = "dataset"
) -> np.ndarray:
    """Vector of ``err_D(f)_{y->}`` for every class ``y`` from a confusion matrix.

    ``normalize="dataset"`` divides by ``|D|`` (the paper's definition);
    ``normalize="class"`` divides by the per-class sample count (0 for empty
    classes), matching the paper's Figure 2 plot.
    """
    conf = _check_confusion(conf)
    wrong = conf.sum(axis=1) - np.diag(conf)
    return _normalize(wrong, conf, conf.sum(axis=1), normalize)


def target_focused_errors(
    conf: np.ndarray, normalize: str = "dataset"
) -> np.ndarray:
    """Vector of ``err_D(f)_{->y}`` for every class ``y`` from a confusion matrix."""
    conf = _check_confusion(conf)
    wrong = conf.sum(axis=0) - np.diag(conf)
    return _normalize(wrong, conf, conf.sum(axis=1), normalize)


def _check_confusion(conf: np.ndarray) -> np.ndarray:
    conf = np.asarray(conf)
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {conf.shape}")
    return conf


def _normalize(
    wrong: np.ndarray, conf: np.ndarray, class_counts: np.ndarray, normalize: str
) -> np.ndarray:
    if normalize == "dataset":
        total = conf.sum()
        if total == 0:
            raise ValueError("confusion matrix is empty")
        return wrong / total
    if normalize == "class":
        out = np.zeros(len(wrong), dtype=np.float64)
        nonzero = class_counts > 0
        out[nonzero] = wrong[nonzero] / class_counts[nonzero]
        return out
    raise ValueError(f"unknown normalize mode {normalize!r}")
