"""A versioned, refcounted store for flat model-weight vectors.

BaFFLe's feedback loop moves the same few models around constantly: the
candidate goes to every validating client together with the ``l + 1``-model
history (Sec. VI-D estimates ~10 MB per model).  The server's
:class:`~repro.core.history.ModelHistory` keeps those models in a
:class:`ModelStore`: weights are *published* once under a monotonically
increasing integer version, and validators key their cached error profiles
by that version.

The store holds each vector as a read-only copy in the precision-policy
dtype (:mod:`repro.nn.precision`) and :meth:`ModelStore.get` returns it as
is, so ``bytes_published`` counts exactly the policy-dtype bytes copied in.

Publishing is content-addressed: :meth:`ModelStore.publish` compares the
weight bytes with the live vectors and returns the existing version when
identical content is already live.  :meth:`ModelStore.publish_new` skips
that lookup for callers that need a fresh version tag per call (the
history's strictly increasing version numbering).  Entries are refcounted;
:meth:`release` drops a reference and evicts the entry when none remain.
"""

from __future__ import annotations

import numpy as np

from repro.nn.precision import active_dtype


def _as_flat(flat: np.ndarray) -> np.ndarray:
    """Flatten-check + cast to the active precision-policy dtype.

    The store's content comparison and byte counters are taken over the
    policy-dtype bytes, so a float32 run dedups and accounts in float32
    end to end (exactly half the float64 bytes).
    """
    flat = np.ascontiguousarray(flat, dtype=active_dtype())
    if flat.ndim != 1:
        raise ValueError(f"model store holds flat vectors, got shape {flat.shape}")
    return flat


class ModelStore:
    """Versioned weight-vector store with refcounted entries."""

    def __init__(self) -> None:
        self._refs: dict[int, int] = {}
        #: ``version -> read-only policy-dtype vector`` that ``get`` returns,
        #: in publish order (``publish`` dedups to the newest live twin).
        self._vectors: dict[int, np.ndarray] = {}
        self._next_version = 0
        self._bytes_published = 0

    # ------------------------------------------------------------------
    # Publishing / lookup
    # ------------------------------------------------------------------
    def publish(self, flat: np.ndarray) -> int:
        """Store ``flat`` and return its version (content-deduplicated).

        If a live version already holds identical bytes, that version's
        refcount is incremented and no data is copied; of several such
        versions, the most recently published one is returned.
        """
        flat = _as_flat(flat)
        raw = flat.view(np.uint8)
        for version, stored in reversed(self._vectors.items()):
            if np.array_equal(stored.view(np.uint8), raw):
                self._refs[version] += 1
                return version
        return self._publish_at(self._alloc_version(), flat)

    def publish_new(self, flat: np.ndarray) -> int:
        """Store ``flat`` under a guaranteed-fresh version (no dedup)."""
        return self._publish_at(self._alloc_version(), _as_flat(flat))

    def adopt(self, version: int, flat: np.ndarray) -> int:
        """Store ``flat`` under an explicit ``version``.

        The internal counter jumps past ``version`` so future allocations
        stay unique.
        """
        if version in self._refs:
            raise ValueError(f"version {version} is already live in this store")
        flat = _as_flat(flat)
        self._next_version = max(self._next_version, version + 1)
        return self._publish_at(version, flat)

    def _alloc_version(self) -> int:
        version = self._next_version
        self._next_version += 1
        return version

    def _publish_at(self, version: int, flat: np.ndarray) -> int:
        # Copy: ``flat`` may be the caller's own array.
        stored = flat.copy()
        stored.flags.writeable = False
        self._vectors[version] = stored
        self._bytes_published += flat.nbytes
        self._refs[version] = 1
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

    @property
    def bytes_published(self) -> int:
        """Cumulative policy-dtype bytes copied into the store (dedup
        hits cost 0)."""
        return self._bytes_published

    # ------------------------------------------------------------------
    # Refcounting
    # ------------------------------------------------------------------
    def release(self, version: int) -> None:
        """Drop a reference; the entry is evicted when none remain."""
        count = self._refs.get(version)
        if count is None:
            raise KeyError(f"version {version} is not live in this store")
        if count > 1:
            self._refs[version] = count - 1
            return
        del self._refs[version]
        del self._vectors[version]

    def refcount(self, version: int) -> int:
        return self._refs.get(version, 0)


__all__ = ["ModelStore"]
