"""The thread count of numpy's bundled OpenBLAS, and the engines' budget.

numpy's bundled OpenBLAS starts one thread per core for any GEMM large
enough to split.  A parallel engine that runs ``workers`` kernels at once
would then run ``workers x cores`` compute threads, and OpenBLAS's
spin-waiting threads lose that contest.  So every parallel path keeps
``workers x BLAS threads <= cores``: it runs under :func:`limit` at
:func:`budget` threads, and the sequential path keeps the host default.
The budget divides the count in effect, not the machine's cores: OpenBLAS
sizes its default from the affinity mask and ``OPENBLAS_NUM_THREADS``, and
inside a seed process the count in effect is that process's share, so an
engine pool nested in a seed pool splits the share again.

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

GEMMs split their output across threads, not their sums, so the weights
the engines commit do not depend on the count; the engine equivalence
tests compare the pools, under the budget, with the sequential engine at
the host count.  BLAS-1 reductions do depend on it: OpenBLAS splits
``dot`` across threads above 10 000 elements, and ``np.linalg.norm`` of a
1-D vector runs it.  Code that runs inside a fan-out takes norms with
:func:`l2_norm`, which BLAS does not run.
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


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS keeps
    one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def budget(workers: int) -> int:
    """BLAS threads per worker so that ``workers x threads`` stays within
    the count in effect (:func:`usable_cores` when unbound)."""
    return max(1, (thread_count() or usable_cores()) // workers)


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
    smallest cap, so a worker forked from a seed process keeps the seed's
    lower cap."""
    _held.enter_context(limit(threads))


def l2_norm(vector: np.ndarray) -> float:
    """The Euclidean norm of ``vector``, the same bits at any BLAS thread
    count: a numpy pairwise sum, where ``np.linalg.norm`` runs BLAS
    ``dot``."""
    return float(np.sqrt(np.square(vector).sum()))
