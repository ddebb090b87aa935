"""Versioned, refcounted stores for flat model-weight vectors.

BaFFLe's feedback loop moves the same few models around constantly: the
candidate goes to every validating client together with the ``l + 1``-model
history (Sec. VI-D estimates ~10 MB per model), and every selected client
receives the current global model.  Shipping those float64 blobs through
pickle pipes makes per-round transport O(model x (clients + validators +
history)) — the redundant data movement BackFed (Dao et al., 2025)
identifies as the bottleneck of FL-backdoor benchmarking at scale.

A :class:`ModelStore` removes the redundancy.  Weights are *published* once
under a monotonically increasing integer version and every consumer — the
server's :class:`~repro.core.history.ModelHistory`, the
:class:`~repro.fl.parallel.ProcessPoolRoundExecutor`, worker processes —
refers to them by that version key.  Each engine has exactly one store
(:func:`make_model_store` / :func:`~repro.fl.parallel.make_engine` decide),
and both implementations share the exact same publish/release bookkeeping,
so engine runs are bit-identical across them:

- :class:`InProcessModelStore`: a read-only copy of each vector, for the
  sequential and thread engines, which share one address space.
- :class:`SharedMemoryModelStore`: one ``multiprocessing.shared_memory``
  segment per version holding the vector's bytes, for the process engine.
  Worker processes attach to the arena once (via the picklable
  :meth:`~SharedMemoryModelStore.worker_handle`) and resolve version keys
  locally, so per-round transport is O(1 new model): only the bytes
  *newly copied into the arena* move, independent of history length and
  fan-out width.

Every store holds the vector in the precision-policy dtype
(:mod:`repro.nn.precision`) and :meth:`ModelStore.get` returns it as is,
so ``bytes_published`` counts exactly the policy-dtype bytes copied in.

Publishing is content-addressed: :meth:`ModelStore.publish` digests the
weight bytes and returns the existing version when identical content is
already live (the common case: the global model a round starts from *is*
the latest committed history entry, so re-publishing it costs zero bytes).
:meth:`ModelStore.publish_new` bypasses the digest lookup for callers that
need a fresh version tag per call (the history's strictly increasing
version numbering).

Segments are refcounted — :meth:`~ModelStore.acquire` / :meth:`release` —
and a shared-memory segment is unlinked the moment its count reaches zero.
:meth:`~ModelStore.close` (also ``__exit__`` and a best-effort ``__del__``)
unlinks every live segment, so a crashed *worker* never leaks ``/dev/shm``
entries: workers only attach, the owning process is the only creator.

:class:`ValidatorProfileTable` rides along: a table of validator error
profiles keyed by ``(validator_id, version)``.  Profiles are deterministic
functions of (model, dataset), so the parent collects the profiles workers
compute, files them under the committed version, and ships the relevant
entries back as per-task hints — commit-time profile reuse
(``note_committed``) thereby reaches worker processes without a
cross-process mutable dict.  Profiles are a few hundred bytes (two arrays
of ``num_classes`` floats), orders of magnitude below one model, so the
hint traffic is negligible next to the weight transport it eliminates.
"""

from __future__ import annotations

import hashlib
import os
import secrets
from collections.abc import Iterable
from multiprocessing import shared_memory

import numpy as np

from repro.nn.precision import active_dtype

#: Prefix shared by every shared-memory segment this package creates; the
#: CI leak check greps ``/dev/shm`` for it.
SHM_NAME_PREFIX = "bfl"


def _as_flat(flat: np.ndarray) -> np.ndarray:
    """Flatten-check + cast to the active precision-policy dtype.

    The store's content digests and byte counters are taken over the
    policy-dtype bytes, so a float32 run dedups, transports, and accounts
    in float32 end to end (exactly half the float64 bytes).
    """
    flat = np.ascontiguousarray(flat, dtype=active_dtype())
    if flat.ndim != 1:
        raise ValueError(f"model store holds flat vectors, got shape {flat.shape}")
    return flat


class ModelStore:
    """Versioned weight-vector store with refcounted entries.

    Subclasses implement the storage primitives (``_write``, and
    ``_delete``/``_delete_all`` where storage outlives the vector); all
    version allocation, content addressing and refcount bookkeeping lives
    here so every store behaves identically — the spine of the
    cross-store equivalence guarantee.
    """

    #: Whether worker processes can attach to this store's storage
    #: (:meth:`worker_handle` returns a picklable handle).
    shareable = False

    def __init__(self) -> None:
        self._refs: dict[int, int] = {}
        #: ``version -> read-only policy-dtype vector`` that ``get`` returns.
        self._vectors: dict[int, np.ndarray] = {}
        #: ``digest -> live versions holding that content`` (``publish_new``
        #: can legitimately create several); dedup resolves to the newest.
        self._digests: dict[bytes, list[int]] = {}
        self._by_version_digest: dict[int, bytes] = {}
        self._next_version = 0
        self._bytes_published = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Publishing / lookup
    # ------------------------------------------------------------------
    def publish(self, flat: np.ndarray) -> int:
        """Store ``flat`` and return its version (content-deduplicated).

        If a live version already holds identical bytes, that version's
        refcount is incremented and no data is copied — publishing the
        unchanged global model round after round costs zero bytes.
        """
        flat = _as_flat(flat)
        digest = hashlib.sha1(flat.tobytes()).digest()
        live = self._digests.get(digest)
        if live:
            version = live[-1]
            self._refs[version] += 1
            return version
        return self._publish_at(self._alloc_version(), flat, digest)

    def publish_new(self, flat: np.ndarray) -> int:
        """Store ``flat`` under a guaranteed-fresh version (no dedup)."""
        flat = _as_flat(flat)
        digest = hashlib.sha1(flat.tobytes()).digest()
        return self._publish_at(self._alloc_version(), flat, digest)

    def adopt(self, version: int, flat: np.ndarray) -> int:
        """Store ``flat`` under an explicit ``version`` (store migration).

        Used by :meth:`repro.core.history.ModelHistory.bind_store` to carry
        already-assigned version numbers into a new store; the internal
        counter jumps past ``version`` so future allocations stay unique.
        """
        if version in self._refs:
            raise ValueError(f"version {version} is already live in this store")
        flat = _as_flat(flat)
        digest = hashlib.sha1(flat.tobytes()).digest()
        self._next_version = max(self._next_version, version + 1)
        return self._publish_at(version, flat, digest)

    def _alloc_version(self) -> int:
        version = self._next_version
        self._next_version += 1
        return version

    def _publish_at(self, version: int, flat: np.ndarray, digest: bytes) -> int:
        if self._closed:
            raise RuntimeError("model store is closed")
        self._vectors[version] = self._write(version, flat)
        self._bytes_published += flat.nbytes
        self._refs[version] = 1
        self._digests.setdefault(digest, []).append(version)
        self._by_version_digest[version] = digest
        return version

    def get(self, version: int) -> np.ndarray:
        """Read-only flat policy-dtype vector stored under ``version``."""
        if version not in self._refs:
            raise KeyError(f"version {version} is not live in this store")
        return self._vectors[version]

    def __contains__(self, version: int) -> bool:
        return version in self._refs

    def versions(self) -> list[int]:
        """Live versions, ascending."""
        return sorted(self._refs)

    def min_live_version(self) -> int | None:
        """The oldest live version (workers' attachment-eviction floor).

        Straggler safety: every consumer that ships a version key to a
        worker first ``acquire``-s that version and releases it only after
        the worker task completed (see
        :class:`~repro.fl.parallel.PendingVotes`).  The floor is therefore
        always <= any version an in-flight task may still resolve, even
        while the history releases its own reference to an evicted
        version — eviction can never race a straggler.
        """
        return min(self._refs) if self._refs else None

    @property
    def bytes_published(self) -> int:
        """Cumulative policy-dtype bytes copied into the store (dedup
        hits cost 0)."""
        return self._bytes_published

    # ------------------------------------------------------------------
    # Refcounting
    # ------------------------------------------------------------------
    def acquire(self, version: int) -> None:
        """Add a reference to a live version."""
        if version not in self._refs:
            raise KeyError(f"version {version} is not live in this store")
        self._refs[version] += 1

    def release(self, version: int) -> None:
        """Drop a reference; the entry is evicted when none remain."""
        count = self._refs.get(version)
        if count is None:
            raise KeyError(f"version {version} is not live in this store")
        if count > 1:
            self._refs[version] = count - 1
            return
        del self._refs[version]
        digest = self._by_version_digest.pop(version)
        live = self._digests[digest]
        live.remove(version)
        if not live:
            del self._digests[digest]
        # Drop the store's own view first, so a shared segment can close.
        del self._vectors[version]
        self._delete(version)

    def refcount(self, version: int) -> int:
        return self._refs.get(version, 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran (releases become no-ops)."""
        return self._closed

    def worker_handle(self):
        """Picklable handle for worker-process attachment (None here)."""
        return None

    def close(self) -> None:
        """Evict every entry and release backing storage (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._refs.clear()
        self._digests.clear()
        self._by_version_digest.clear()
        self._vectors.clear()
        self._delete_all()

    def __enter__(self) -> "ModelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit safety net
        try:
            self.close()
        except Exception:  # repro: allow[swallowed-exception] -- interpreter teardown: close() may race module unloading and must stay silent
            pass

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def _write(self, version: int, flat: np.ndarray) -> np.ndarray:
        """Copy ``flat`` into storage; return the read-only stored vector."""
        raise NotImplementedError

    def _delete(self, version: int) -> None:
        """Free ``version``'s storage beyond the vector itself."""

    def _delete_all(self) -> None:
        """Free every version's storage beyond the vectors themselves."""


class InProcessModelStore(ModelStore):
    """Plain in-process storage: a read-only copy of each vector (the
    sequential and thread engines' store)."""

    def _write(self, version: int, flat: np.ndarray) -> np.ndarray:
        # Copy: ``flat`` may be the caller's own array.
        stored = flat.copy()
        stored.flags.writeable = False
        return stored


class SharedMemoryModelStore(ModelStore):
    """One ``multiprocessing.shared_memory`` segment per live version (the
    process engine's store).

    The creating process is the sole owner: it creates and unlinks every
    segment.  Worker processes attach read-only through the picklable
    handle from :meth:`worker_handle` and never create or unlink, so a
    worker crash cannot leak ``/dev/shm`` entries — cleanup is entirely
    :meth:`close`'s (or eviction's) responsibility here in the parent.
    """

    shareable = True

    def __init__(self, name_prefix: str | None = None) -> None:
        super().__init__()
        self.name_prefix = name_prefix or (
            f"{SHM_NAME_PREFIX}-{os.getpid():x}-{secrets.token_hex(4)}"
        )
        self._segments: dict[int, shared_memory.SharedMemory] = {}

    def segment_name(self, version: int) -> str:
        return f"{self.name_prefix}-{version}"

    def worker_handle(self) -> "ShmStoreHandle":
        return ShmStoreHandle(self.name_prefix)

    def _write(self, version: int, flat: np.ndarray) -> np.ndarray:
        # The segment holds the vector's bytes and nothing else: workers
        # read them with their template network's dtype and parameter
        # count.  (A segment cannot be empty, hence the 1-byte floor.)
        segment = shared_memory.SharedMemory(
            name=self.segment_name(version), create=True, size=max(flat.nbytes, 1)
        )
        self._segments[version] = segment
        stored = np.ndarray(flat.shape, dtype=flat.dtype, buffer=segment.buf)
        stored[...] = flat
        stored.flags.writeable = False
        return stored

    def _delete(self, version: int) -> None:
        self._destroy(self._segments.pop(version))

    def _delete_all(self) -> None:
        for segment in self._segments.values():
            self._destroy(segment)
        self._segments.clear()

    @staticmethod
    def _destroy(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a caller still holds a view;
            pass  # the mapping dies with its last reference, unlink below works
        segment.unlink()


class ShmStoreHandle:
    """Picklable attachment recipe for a :class:`SharedMemoryModelStore`.

    Travels to worker processes once (in the pool initializer); ``attach``
    builds the worker-side view on the far side.
    """

    def __init__(self, name_prefix: str) -> None:
        self.name_prefix = name_prefix

    def attach(self) -> "ShmWorkerView":
        return ShmWorkerView(self.name_prefix)


class ShmWorkerView:
    """Worker-side, attach-only view of a shared-memory arena.

    Segment attachments are cached per version; :meth:`evict_below` closes
    attachments for versions the owner has already retired (the owner ships
    its current minimum live version with each task as the floor).  Unlike
    the owning store, ``close`` here never unlinks.
    """

    def __init__(self, name_prefix: str) -> None:
        self.name_prefix = name_prefix
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        # Telemetry: attach traffic vs. cache reuse, drained by the
        # worker's trace payload when tracing is enabled.
        self.attach_count = 0
        self.cache_hits = 0

    def get(self, version: int) -> memoryview:
        """Read-only view of ``version``'s segment bytes (attaches on first
        use).

        The segment carries no header: the caller reads the vector out of
        it with the dtype and element count it knows (a pool worker, its
        template network's).
        """
        segment = self._segments.get(version)
        if segment is not None:
            self.cache_hits += 1
        else:
            # Attaching registers the name with the resource tracker even
            # though this process does not own the segment (fixed by
            # ``track=False`` in Python 3.13+).  Pool workers share the
            # owner's tracker process, whose cache is a set: the duplicate
            # registration collapses and is cleared by the owner's
            # ``unlink``, so no unregister dance is needed here — and
            # unregistering would wrongly drop the owner's entry.
            self.attach_count += 1
            segment = shared_memory.SharedMemory(
                name=f"{self.name_prefix}-{version}"
            )
            self._segments[version] = segment
        return segment.buf.toreadonly()

    def evict_below(self, floor: int | None) -> None:
        """Close cached attachments for versions below ``floor``."""
        if floor is None:
            return
        for version in [v for v in self._segments if v < floor]:
            self._close_segment(self._segments.pop(version))

    def close(self) -> None:
        for segment in self._segments.values():
            self._close_segment(segment)
        self._segments.clear()

    @staticmethod
    def _close_segment(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view still alive in a task
            pass


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive but not ours
        return True
    return True


def reap_orphan_segments(keep_prefixes: Iterable[str] = ()) -> list[str]:
    """Unlink ``/dev/shm`` segments whose owning process is dead.

    Every segment this package creates encodes its owner's pid in the
    store's name prefix (``bfl-<pid hex>-<token>-<version>``), and only
    the owning process ever creates or unlinks — workers attach-only.  A
    *worker* crash therefore cannot leak, but a killed owner (a previous
    run's parent, a crashed driver) strands its whole arena.  This reaper
    is the recovery path the executors run after a pool death and on
    close: any ``bfl-`` segment whose embedded owner pid no longer exists
    is unlinked, so crashes cannot pin ``/dev/shm`` refcounts forever.

    ``keep_prefixes`` protects the calling run's own live arenas (their
    owner is alive anyway; the guard makes the call safe even mid-crash).
    Returns the reaped segment names.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux hosts
        return []
    marker = f"{SHM_NAME_PREFIX}-"
    reaped: list[str] = []
    keep = tuple(prefix for prefix in keep_prefixes if prefix)
    try:
        names = sorted(os.listdir(shm_dir))
    except OSError:  # pragma: no cover - /dev/shm unreadable
        return []
    for name in names:
        if not name.startswith(marker):
            continue
        if any(name.startswith(prefix) for prefix in keep):
            continue
        try:
            owner_pid = int(name.split("-")[1], 16)
        except (IndexError, ValueError):
            continue  # not our naming scheme; leave it alone
        if owner_pid == os.getpid() or _pid_alive(owner_pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:  # pragma: no cover - raced another reaper
            continue
        reaped.append(name)
    return reaped


def make_model_store(shared: bool = False) -> ModelStore:
    """The store an engine needs: shared memory for the process engine
    (``shared=True``), the in-process store for the others."""
    return SharedMemoryModelStore() if shared else InProcessModelStore()


class ValidatorProfileTable:
    """Error profiles keyed by ``(validator_id, version)``.

    The parent-process side of cross-worker profile reuse.  Worker tasks
    return the profiles they compute; the executor files committed-version
    profiles directly (:meth:`put`) and *stages* candidate profiles
    (:meth:`stage`) until the server decides the round.  Staged entries are
    keyed by the candidate's staged store version.  On acceptance the
    defense calls :meth:`commit_staged` with that version — commit is a
    refcount-style key transfer, the staged version *is* the committed
    history version — and the next round ships those profiles back to
    whichever worker votes for that validator, saving the forward pass
    ``note_committed`` saves on the sequential path.  On rejection
    :meth:`discard_staged` drops that round's entries, and
    :meth:`evict_version` follows the history's eviction so rejected or
    retired profiles never accumulate.
    """

    def __init__(self) -> None:
        self._profiles: dict[tuple[int, int], object] = {}
        self._staged: dict[tuple[int, int], object] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def get(self, validator_id: int, version: int):
        return self._profiles.get((validator_id, version))

    def put(self, validator_id: int, version: int, profile) -> None:
        self._profiles[(validator_id, version)] = profile

    def hints(self, validator_id: int, versions: Iterable[int]) -> dict[int, object]:
        """Known profiles of ``validator_id`` for the given versions.

        Only committed entries count: every round's staged profiles are
        committed or discarded before a later round asks for hints.
        """
        hints: dict[int, object] = {}
        for version in versions:
            profile = self._profiles.get((validator_id, version))
            if profile is not None:
                hints[version] = profile
        return hints

    def stage(self, validator_id: int, version: int, profile) -> None:
        """Hold a candidate profile (staged under ``version``) until the
        round is decided."""
        self._staged[(validator_id, version)] = profile

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    def commit_staged(self, version: int) -> None:
        """File the profiles staged under ``version`` as committed."""
        for key in [k for k in self._staged if k[1] == version]:
            self._profiles[key] = self._staged.pop(key)

    def discard_staged(self, version: int | None = None) -> None:
        """Drop staged profiles of ``version`` (``None`` = every round)."""
        if version is None:
            self._staged.clear()
            return
        for key in [k for k in self._staged if k[1] == version]:
            del self._staged[key]

    def evict_version(self, version: int) -> None:
        """Drop all profiles of a version no longer retained by the history."""
        for key in [k for k in self._profiles if k[1] == version]:
            del self._profiles[key]
        self.discard_staged(version)

    def clear(self) -> None:
        self._profiles.clear()
        self._staged.clear()


__all__ = [
    "ModelStore",
    "InProcessModelStore",
    "SharedMemoryModelStore",
    "ShmStoreHandle",
    "ShmWorkerView",
    "ValidatorProfileTable",
    "make_model_store",
    "reap_orphan_segments",
    "SHM_NAME_PREFIX",
]
