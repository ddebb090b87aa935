"""Weight initializers.

Each initializer takes the parameter shape and a ``numpy.random.Generator``
and returns a freshly allocated array in the active precision-policy dtype
(:func:`repro.nn.precision.active_dtype`).  Random draws always happen in
float64 — the generator's native output — and are cast afterwards, so the
RNG stream consumption is identical under every policy.  Keeping the
generator explicit makes every network construction reproducible from a
single seed.
"""

from __future__ import annotations

import numpy as np

from repro.nn.precision import active_dtype


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialization for ``(in, out)`` dense weights."""
    std = np.sqrt(2.0 / max(shape[0], 1))
    return rng.normal(0.0, std, size=shape).astype(active_dtype())


def zeros_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zeros initialization (biases)."""
    del rng  # deterministic; generator accepted for interface uniformity
    return np.zeros(shape, dtype=active_dtype())
