"""Per-class error profiles and error-variation features (paper eqs. 2-3).

For a model ``f`` and dataset ``D``, the *error profile* collects the
source-focused errors ``err_D(f)_{y->}`` and target-focused errors
``err_D(f)_{->y}`` for every class ``y``.  The *error-variation vector*
between consecutive models ``f`` (older) and ``f'`` (newer) is

    v(f, f', D) = [ v_s | v_t ]  in  R^{2|Y|}

with ``v_s[y] = err_D(f)_{y->} - err_D(f')_{y->}`` (eq. 2) and
``v_t[y] = err_D(f)_{->y} - err_D(f')_{->y}`` (eq. 3).  Under benign
training these vectors stay small and mutually close round over round; a
freshly injected backdoor perturbs the misclassification structure of one
or a few classes and pushes the newest vector away from the cluster —
which the LOF test of Algorithm 2 picks up.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.metrics import (
    confusion_matrix,
    source_focused_errors,
    target_focused_errors,
)
from repro.nn.network import Network

#: Stacked-profile chunk budget: one chunk's weight stack should fit the
#: per-core cache working set (conservative for typical 1-2 MB L2s).
_PROFILE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ErrorProfile:
    """Per-class error summary of one model on one dataset."""

    source_errors: np.ndarray
    target_errors: np.ndarray
    num_samples: int
    num_classes: int

    def __post_init__(self) -> None:
        if self.source_errors.shape != (self.num_classes,):
            raise ValueError("source_errors has wrong shape")
        if self.target_errors.shape != (self.num_classes,):
            raise ValueError("target_errors has wrong shape")


def model_error_profile(
    model: Network, dataset: Dataset, normalize: str = "dataset"
) -> ErrorProfile:
    """Evaluate ``model`` on ``dataset`` and summarise its per-class errors."""
    if len(dataset) == 0:
        raise ValueError("cannot profile a model on an empty dataset")
    predictions = model.predict(dataset.x)
    conf = confusion_matrix(dataset.y, predictions, dataset.num_classes)
    return ErrorProfile(
        source_errors=source_focused_errors(conf, normalize=normalize),
        target_errors=target_focused_errors(conf, normalize=normalize),
        num_samples=len(dataset),
        num_classes=dataset.num_classes,
    )


def stacked_error_profiles(
    models: "list[Network]", dataset: Dataset, normalize: str = "dataset"
) -> list[ErrorProfile]:
    """Error profiles for many same-architecture models in one stacked pass.

    A cold validator needs the candidate's profile plus up to ``l + 1``
    history profiles; computing them one
    :func:`model_error_profile` at a time pays the full per-model
    dispatch cost per model.  This fans all models through one
    :class:`~repro.nn.stacked.StackedNetwork` forward (bit-identical
    predictions — see that module's contract) and builds every confusion
    matrix from a single ``bincount`` over the joint
    ``(model, true, predicted)`` index, then derives the error vectors
    with exactly the per-model functions — so each returned profile is
    bit-for-bit what :func:`model_error_profile` would have produced.

    Callers guard with :func:`repro.nn.stacked.supports_stacking` and fall
    back to the per-model path for unstackable architectures.
    """
    from repro.nn.stacked import stacked_predict

    if not models:
        return []
    if len(dataset) == 0:
        raise ValueError("cannot profile a model on an empty dataset")
    # Chunk the stack so one chunk's weights stay cache-resident: a full
    # 21-model stack of even a small MLP spills the L2 working set that
    # model-at-a-time evaluation enjoys, and per-slice GEMMs are
    # bit-identical under any chunking, so this is a free throughput knob.
    model_bytes = max(1, models[0].num_parameters * 8)
    chunk = max(2, min(len(models), _PROFILE_CHUNK_BYTES // model_bytes))
    predictions = np.concatenate(
        [
            stacked_predict(models[start : start + chunk], dataset.x)
            for start in range(0, len(models), chunk)
        ],
        axis=0,
    )
    num_models = len(models)
    num_classes = dataset.num_classes
    y = np.asarray(dataset.y, dtype=np.int64)
    joint = (
        np.arange(num_models, dtype=np.int64)[:, None] * num_classes + y[None, :]
    ) * num_classes + predictions
    confusions = np.bincount(
        joint.ravel(), minlength=num_models * num_classes * num_classes
    ).reshape(num_models, num_classes, num_classes)
    # Error vectors for the whole stack at once.  The integer marginals are
    # exact regardless of evaluation order, and the normalizing division
    # pairs the same operands per element as the per-model
    # source/target_focused_errors calls — bit-identical results.
    diag = confusions[:, np.arange(num_classes), np.arange(num_classes)]
    source_wrong = confusions.sum(axis=2) - diag
    target_wrong = confusions.sum(axis=1) - diag
    if normalize == "dataset":
        totals = confusions.sum(axis=(1, 2))
        source = source_wrong / totals[:, None]
        target = target_wrong / totals[:, None]
    elif normalize == "class":
        class_counts = confusions.sum(axis=2)
        source = np.zeros(source_wrong.shape)
        target = np.zeros(target_wrong.shape)
        nonzero = class_counts > 0
        source[nonzero] = source_wrong[nonzero] / class_counts[nonzero]
        target[nonzero] = target_wrong[nonzero] / class_counts[nonzero]
    else:
        raise ValueError(f"unknown normalize mode {normalize!r}")
    return [
        ErrorProfile(
            source_errors=source[m],
            target_errors=target[m],
            num_samples=len(dataset),
            num_classes=num_classes,
        )
        for m in range(num_models)
    ]


def error_variations(profiles: Sequence[ErrorProfile]) -> np.ndarray:
    """Eqs. (2)-(3) over a history: row ``i`` is ``v(profiles[i], profiles[i+1])``.

    Stacks every profile's ``[source | target]`` errors and subtracts each
    newer row from the older one, so a history of ``n`` profiles gives the
    ``(n - 1, 2|Y|)`` matrix of consecutive error-variation vectors.
    """
    classes = sorted({p.num_classes for p in profiles})
    if len(classes) > 1:
        raise ValueError(f"profiles disagree on classes: {classes}")
    errors = np.stack(
        [np.concatenate([p.source_errors, p.target_errors]) for p in profiles]
    )
    return errors[:-1] - errors[1:]


def error_variation_vector(older: ErrorProfile, newer: ErrorProfile) -> np.ndarray:
    """``v(f, f', D)`` of eqs. (2)-(3): older-minus-newer per-class errors."""
    return error_variations([older, newer])[0]
