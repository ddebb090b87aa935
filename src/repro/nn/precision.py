"""Execution precision policy: float64 (default) or float32, process-wide.

The repo's bit-identity contract is scoped *per policy*: under the default
``float64`` policy every run is bit-identical to the seed baseline; under
the opt-in ``float32`` policy runs are bit-identical to each other across
every engine/mode combination, but not to float64 runs (they are a
different numerical trajectory by construction).

The active policy lives in the ``REPRO_DTYPE_POLICY`` environment variable
rather than a module global, mirroring :mod:`repro.analysis.sanitize`: a
process-pool worker forked (or spawned) inside a :func:`dtype_policy` block
inherits the environment and therefore the policy, with no extra plumbing
through initializers.  Reading one environment variable per allocation site
is far below the cost of the allocations themselves.

This module imports nothing from the rest of ``repro`` so every layer of
the stack (nn, fl, data, analysis) can import it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

#: Environment variable holding the active policy name.
ENV_POLICY = "REPRO_DTYPE_POLICY"

#: Recognised policy names, in preference order (first is the default).
DTYPE_POLICIES = ("float64", "float32")

_POLICY_DTYPES = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


def get_dtype_policy() -> str:
    """The active policy name (``"float64"`` unless overridden)."""
    name = os.environ.get(ENV_POLICY, "").strip().lower()
    return name if name in _POLICY_DTYPES else "float64"


def set_dtype_policy(name: str) -> None:
    """Set the process-wide policy (and that of future forked workers)."""
    if name not in _POLICY_DTYPES:
        raise ValueError(
            f"unknown dtype policy {name!r}; expected one of {DTYPE_POLICIES}"
        )
    os.environ[ENV_POLICY] = name


def active_dtype() -> np.dtype:
    """The numpy dtype of the active policy."""
    return _POLICY_DTYPES[get_dtype_policy()]


def itemsize() -> int:
    """Bytes per scalar under the active policy (8 or 4)."""
    return active_dtype().itemsize


@contextmanager
def dtype_policy(name: str):
    """Run a block under the given policy, restoring the previous one.

    Like :func:`repro.analysis.sanitize.scope`, this mutates the
    environment so pool workers created inside the block inherit the
    policy.  Passing the current policy is a cheap no-op.
    """
    if name not in _POLICY_DTYPES:
        raise ValueError(
            f"unknown dtype policy {name!r}; expected one of {DTYPE_POLICIES}"
        )
    previous = os.environ.get(ENV_POLICY)
    os.environ[ENV_POLICY] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_POLICY, None)
        else:
            os.environ[ENV_POLICY] = previous


__all__ = [
    "DTYPE_POLICIES",
    "ENV_POLICY",
    "active_dtype",
    "dtype_policy",
    "get_dtype_policy",
    "itemsize",
    "set_dtype_policy",
]
