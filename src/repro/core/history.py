"""Rolling history of accepted global models (Algorithm 1, line 3-4).

The server keeps the latest ``l + 1`` *accepted* models and ships them,
together with the candidate, to every validating client.  Each model gets a
monotonically increasing ``version`` tag so validators can cache their
(expensive) prediction profiles per model.

Storage lives in a :class:`~repro.fl.model_store.ModelStore`: the history
is a *view* over store versions, not an owner of ``Network.clone()``
snapshots.  Appending publishes the model's flat weight vector; eviction
releases the store reference (unlinking the shared-memory segment when the
store is a :class:`~repro.fl.model_store.SharedMemoryModelStore` and no
other consumer holds it).  ``entries()`` materializes ``Network`` views
lazily from the stored vectors — parameter state only, matching what the
transport path has always shipped between processes.

The candidate round-trip uses the staging API: :meth:`stage_candidate`
publishes the candidate once at review time (so a shared-memory executor
ships only its version key to workers), then :meth:`commit_staged` adopts
that exact stored vector into the history — commit is a refcount transfer,
not another copy — or :meth:`discard_staged` releases it on rejection.

An evicted version stays resolvable for a validator task still running
past its deadline: such a task holds its own store reference (see
:class:`~repro.fl.parallel.PendingVotes`) until it finishes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.fl.model_store import InProcessModelStore, ModelStore
from repro.nn.network import Network


class ModelHistory:
    """A bounded FIFO of store-backed ``(version, model)`` pairs, oldest first."""

    def __init__(self, max_models: int, store: ModelStore | None = None) -> None:
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        self.max_models = max_models
        self.store = store or InProcessModelStore()
        self._versions: deque[int] = deque()
        self._materialized: dict[int, Network] = {}
        self._template: Network | None = None
        self._staged: int | None = None
        self._evict_listeners: list[Callable[[int], None]] = []

    def __len__(self) -> int:
        return len(self._versions)

    @property
    def is_full(self) -> bool:
        return len(self._versions) == self.max_models

    # ------------------------------------------------------------------
    # Appending / staging
    # ------------------------------------------------------------------
    def append(self, model: Network) -> int:
        """Record an accepted model (published to the store); returns its version."""
        self._ensure_template(model)
        version = self.store.publish_new(model.get_flat())
        return self._commit(version)

    def stage_candidate(self, model: Network) -> int:
        """Publish a candidate for validation without committing it.

        The returned version is live in the store (executors may ship it to
        workers by key) until :meth:`commit_staged` adopts it into the
        history or :meth:`discard_staged` drops it.  Staging over an
        unresolved earlier stage releases the earlier candidate.
        """
        if self._staged is not None:
            self.store.release(self._staged)
        self._ensure_template(model)
        self._staged = self.store.publish_new(model.get_flat())
        return self._staged

    @property
    def staged_version(self) -> int | None:
        return self._staged

    def commit_staged(self) -> int:
        """Adopt the staged candidate as an accepted model (no data copy)."""
        if self._staged is None:
            raise RuntimeError("no candidate is staged")
        version, self._staged = self._staged, None
        return self._commit(version)

    def discard_staged(self) -> None:
        """Release the staged candidate (rejected round)."""
        if self._staged is None:
            return
        version, self._staged = self._staged, None
        self.store.release(version)

    def _commit(self, version: int) -> int:
        self._versions.append(version)
        while len(self._versions) > self.max_models:
            self._evict(self._versions.popleft())
        return version

    def _evict(self, version: int) -> None:
        self._materialized.pop(version, None)
        self.store.release(version)
        for listener in self._evict_listeners:
            listener(version)

    def _ensure_template(self, model: Network) -> None:
        if self._template is None:
            self._template = model.clone()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def entries(self) -> list[tuple[int, Network]]:
        """The retained ``(version, model)`` pairs, oldest first."""
        return [(version, self._model_for(version)) for version in self._versions]

    def versions(self) -> list[int]:
        """Versions currently retained, oldest first."""
        return list(self._versions)

    def latest(self) -> tuple[int, Network]:
        """The most recently accepted model."""
        if not self._versions:
            raise LookupError("history is empty")
        version = self._versions[-1]
        return version, self._model_for(version)

    def _model_for(self, version: int) -> Network:
        model = self._materialized.get(version)
        if model is None:
            assert self._template is not None  # set by the append that stored it
            model = self._template.clone()
            model.set_flat(self.store.get(version))
            self._materialized[version] = model
        return model

    # ------------------------------------------------------------------
    # Store binding / eviction hooks
    # ------------------------------------------------------------------
    def bind_store(self, store: ModelStore) -> None:
        """Move the history onto a different store, keeping version numbers.

        Called when a simulation hands a defense its (possibly
        shared-memory) store: entries accepted before the hand-off — e.g.
        via :meth:`~repro.core.baffle.BaffleDefense.prime` — migrate so
        workers can resolve every history version from one arena.
        """
        if store is self.store:
            return
        if self._staged is not None:
            raise RuntimeError("cannot rebind the store while a candidate is staged")
        for version in self._versions:
            store.adopt(version, self.store.get(version))
            self.store.release(version)
        self.store = store

    def add_eviction_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(version)`` whenever a version leaves the history."""
        self._evict_listeners.append(listener)
