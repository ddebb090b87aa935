"""The thread count of numpy's bundled OpenBLAS, and one thread per round.

numpy's bundled OpenBLAS starts one thread per core for any GEMM large
enough to split, and after a split its helper threads spin-wait for the
next one.  On the paper protocol the only GEMMs that large are the server
validator's 300-row profile stacks; the helper woken by them then spins
on a second core through the next several rounds, costing more CPU than
the split saves, and under a parallel engine it contends with the pool's
workers.  So every round runs at one BLAS thread:
:meth:`~repro.fl.simulation.FederatedSimulation.run_round` runs its whole
body under ``limit(1)`` (training on every engine, every vote, the
server's vote and the metric hooks), and each process-pool worker holds
one thread from its initializer (:func:`hold`).  The caller's count
comes back after each round.

:func:`limit` caps the count for a block:

- it only lowers the count, so a user's lower ``OPENBLAS_NUM_THREADS`` is
  kept;
- limits nest and may be entered from several threads: the count in effect
  is the smallest cap entered and not yet left, and the count the first of
  them found comes back when the last one leaves.

The count is process-wide, so a cap entered on one thread holds for the
GEMMs of every thread; the thread engine relies on that.
(``openblas_set_num_threads_local`` is not used: it too changes the count
that other threads read.)

The count is reached through ``ctypes``.  Where no known OpenBLAS setter is
found (numpy built on MKL or Accelerate), :data:`BOUND` is ``None`` and
:func:`limit` is a no-op that yields ``None``.

GEMMs split their output across threads, not their sums, so the weights a
round commits do not depend on the count.  BLAS-1 reductions do depend on
it: OpenBLAS splits ``dot`` across threads above 10 000 elements, and
``np.linalg.norm`` of a 1-D vector runs it.  The attackers take their
update norms with :func:`l2_norm`, which BLAS does not run, so they give
the same bits inside a round and outside one.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager

import numpy as np

#: ``(get, set)`` thread-count symbols of known OpenBLAS builds, in search
#: order: numpy's scipy-openblas wheels (64-bit ints), then plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _bind():
    """``(description, get, set)`` of numpy's bundled OpenBLAS, or Nones."""
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".libs/*openblas*",
                    ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                getter = getattr(library, get_name, None)
                setter = getattr(library, set_name, None)
                if getter is not None and setter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    return f"{os.path.basename(path)}:{set_name}", getter, setter
    return None, None, None


#: ``"<library>:<setter>"`` of the bound thread-count setter; ``None`` when
#: none was found and :func:`limit` is a no-op.
BOUND, _get, _set = _bind()

_lock = threading.Lock()
#: Caps of the limits entered and not yet left, from any thread.
_caps: list[int] = []
#: The count the first of those limits found, restored when the last leaves.
_restore = 0
#: The caps :func:`hold` keeps for the rest of the process's life.
_held = ExitStack()


def _reset_lock() -> None:
    # A child forked while another thread held the lock must not inherit it.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock)


def thread_count() -> int | None:
    """OpenBLAS's current thread count; ``None`` when unbound."""
    return None if _get is None else _get()


@contextmanager
def limit(threads: int) -> Iterator[int | None]:
    """Cap OpenBLAS at ``threads`` threads for the block (see the module
    docstring); yields the count in effect on entry, ``None`` when
    unbound."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if _set is None:
        yield None
        return
    global _restore
    with _lock:
        if not _caps:
            _restore = _get()
        _caps.append(threads)
        count = min([_restore, *_caps])
        _set(count)
    try:
        yield count
    finally:
        with _lock:
            _caps.remove(threads)
            _set(min([_restore, *_caps]))


def hold(threads: int) -> None:
    """Enter :func:`limit` for the rest of this process's life (a pool
    worker's initializer).  Like nested limits, holds combine by the
    smallest cap."""
    _held.enter_context(limit(threads))


def l2_norm(vector: np.ndarray) -> float:
    """The Euclidean norm of ``vector``, the same bits at any BLAS thread
    count: a numpy pairwise sum, where ``np.linalg.norm`` runs BLAS
    ``dot``."""
    return float(np.sqrt(np.square(vector).sum()))
