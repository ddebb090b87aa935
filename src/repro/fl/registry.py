"""Virtual client registry: a million-client population as IDs + metadata.

The eager path materializes every registered client up front — each one
owning a :class:`~repro.data.dataset.Dataset` shard — so memory and setup
cost grow linearly with population size even though a round only ever
touches ``clients_per_round`` of them.  This module inverts that: clients
are pure IDs until selected.  A :class:`ClientFactory` knows how to build
client ``cid`` on demand (its shard computed lazily from a recorded
:class:`PartitionSpec`, bit-identical to the eager split), the
:class:`ClientRegistry` caches materialized clients for the duration of
one round and discards them afterwards, and metadata queries (malicious?
parallel-safe? cohortable? shard length?) are answered without
materializing anything.

Determinism contract
--------------------
A registry-backed run commits **bit-identical** models to the eager run:

- :class:`PartitionSpec` records the partition RNG's state *before* the
  draw and then performs the real draw against the caller's generator —
  advancing the shared stream exactly as the eager path does — so every
  downstream draw (server split, pretraining, attacker setup) is
  unchanged.  ``indices(cid)`` later replays the identical draw from the
  recorded state on a detached generator.
- Client *training* randomness never lived on the client object: it is
  derived per ``(round, client_id)`` from :class:`~repro.fl.rng.RngStreams`
  spawn keys, so a client materialized fresh each round trains exactly
  like one held resident for the whole run.
- Optimizer state is constructed inside ``local_train`` per update and
  dies with it, so discarding a client after the round discards nothing
  the eager path would have kept.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator, Mapping

import numpy as np

from repro.data import partition as partition_lib
from repro.data.dataset import Dataset
from repro.fl.client import Client, HonestClient


def _generator_from_state(state: dict) -> np.random.Generator:
    """A detached generator restored to a recorded bit-generator state."""
    bit_class = getattr(np.random, state["bit_generator"])
    bit_gen = bit_class()
    bit_gen.state = copy.deepcopy(state)
    return np.random.Generator(bit_gen)


class PartitionSpec:
    """A recorded partition draw, replayable lazily per client.

    The constructor classmethods snapshot the caller's generator state,
    then run the *real* partition function against that generator — the
    result is discarded, but the stream advances exactly as the eager
    path's did, so everything drawn afterwards is unchanged.  The first
    :meth:`indices` call replays the identical draw from the snapshot on
    a detached generator and caches the parts (index arrays total at most
    one entry per pool sample, so the cache is bounded by the pool, not
    the population).
    """

    def __init__(
        self,
        kind: str,
        num_clients: int,
        *,
        state: dict | None = None,
        labels: np.ndarray | None = None,
        alpha: float | None = None,
        min_samples: int = 1,
        num_samples: int | None = None,
        writer_ids: np.ndarray | None = None,
    ) -> None:
        self.kind = kind
        self.num_clients = num_clients
        self._state = state
        self._labels = labels
        self._alpha = alpha
        self._min_samples = min_samples
        self._num_samples = num_samples
        self._writer_ids = writer_ids
        self._parts: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Constructors (advance the caller's stream like the eager split)
    # ------------------------------------------------------------------
    @classmethod
    def dirichlet(
        cls,
        labels: np.ndarray,
        num_clients: int,
        alpha: float,
        rng: np.random.Generator,
        min_samples: int = 1,
    ) -> "PartitionSpec":
        labels = np.asarray(labels)
        state = copy.deepcopy(rng.bit_generator.state)
        partition_lib.dirichlet_partition(
            labels, num_clients, alpha, rng, min_samples=min_samples
        )
        return cls(
            "dirichlet",
            num_clients,
            state=state,
            labels=labels,
            alpha=alpha,
            min_samples=min_samples,
        )

    @classmethod
    def iid(
        cls, num_samples: int, num_clients: int, rng: np.random.Generator
    ) -> "PartitionSpec":
        state = copy.deepcopy(rng.bit_generator.state)
        partition_lib.iid_partition(num_samples, num_clients, rng)
        return cls("iid", num_clients, state=state, num_samples=num_samples)

    @classmethod
    def writer(cls, writer_ids: np.ndarray) -> "PartitionSpec":
        writer_ids = np.asarray(writer_ids)
        num_clients = len(np.unique(writer_ids))
        return cls("writer", num_clients, writer_ids=writer_ids)

    @classmethod
    def from_parts(cls, parts: list[np.ndarray]) -> "PartitionSpec":
        """Wrap an already-computed split (no replay; parts held as-is).

        For populations whose shards exist eagerly anyway (e.g. FEMNIST's
        per-writer shards, which are topped up with writer-specific draws
        the spec cannot replay) — the registry lifecycle still applies,
        only the index arrays stay resident.
        """
        spec = cls("explicit", len(parts))
        spec._parts = [np.asarray(p) for p in parts]
        return spec

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(self) -> list[np.ndarray]:
        if self._parts is None:
            if self.kind == "dirichlet":
                rng = _generator_from_state(self._state)
                self._parts = partition_lib.dirichlet_partition(
                    self._labels,
                    self.num_clients,
                    self._alpha,
                    rng,
                    min_samples=self._min_samples,
                )
            elif self.kind == "iid":
                rng = _generator_from_state(self._state)
                self._parts = partition_lib.iid_partition(
                    self._num_samples, self.num_clients, rng
                )
            elif self.kind == "writer":
                self._parts = partition_lib.writer_partition(self._writer_ids)
            else:  # pragma: no cover - constructors fix the kind set
                raise ValueError(f"unknown partition kind {self.kind!r}")
        return self._parts

    def indices(self, cid: int) -> np.ndarray:
        """Client ``cid``'s sample indices, bit-identical to the eager split."""
        if not 0 <= cid < self.num_clients:
            raise IndexError(f"client id {cid} outside [0, {self.num_clients})")
        return self._replay()[cid]

    def shard_len(self, cid: int) -> int:
        return len(self.indices(cid))

    def all_parts(self) -> list[np.ndarray]:
        """Every client's index array (the full eager split)."""
        return self._replay()


class ClientFactory:
    """Materializes clients of a virtual population on demand.

    Subclasses define the population: its size, each client's shard
    length (answerable without materializing), and ``make(cid)``.  The
    ``cohort_safe``/``parallel_safe`` class attributes assert, for every
    factory-made client, the same opt-in contracts the eager objects
    carry — they let the registry answer scheduling queries by metadata.
    """

    #: Factory-made clients are plain :class:`HonestClient`s eligible for
    #: stacked cohort training.
    cohort_safe: bool = True
    #: Factory-made clients may train on pool threads.
    parallel_safe: bool = True

    @property
    def num_clients(self) -> int:
        raise NotImplementedError

    def make(self, cid: int) -> Client:
        raise NotImplementedError

    def shard_len(self, cid: int) -> int:
        raise NotImplementedError


class LazyShardFactory(ClientFactory):
    """Honest clients over lazy shards of one shared sample pool."""

    def __init__(self, pool: Dataset, spec: PartitionSpec) -> None:
        self.pool = pool
        self.spec = spec

    @property
    def num_clients(self) -> int:
        return self.spec.num_clients

    def make(self, cid: int) -> Client:
        return HonestClient(cid, self.pool.subset(self.spec.indices(cid)))

    def shard_len(self, cid: int) -> int:
        return self.spec.shard_len(cid)


class ClientRegistry:
    """The client population as IDs: materialize on selection, discard after.

    ``registry[cid]`` returns the client, materializing it through the
    factory on first access and caching it until :meth:`end_round` — so
    the existing ``clients[cid]`` call sites work unchanged, and a round
    touches memory proportional to its cohort, never the population.

    ``overrides`` maps client ids to *eager* client objects that replace
    the factory's for those ids (attackers, faulty clients): they stay
    resident for the registry's lifetime, exactly like the eager path
    keeps them, and all metadata queries defer to them.
    """

    def __init__(
        self,
        factory: ClientFactory,
        overrides: Mapping[int, Client] | None = None,
    ) -> None:
        self._factory = factory
        self._overrides = dict(overrides or {})
        for cid, client in self._overrides.items():
            if not 0 <= cid < factory.num_clients:
                raise ValueError(
                    f"override id {cid} outside [0, {factory.num_clients})"
                )
            if client.client_id != cid:
                raise ValueError(
                    f"override for id {cid} carries client_id {client.client_id}"
                )
        self._active: dict[int, Client] = {}
        #: Lifetime count of factory materializations (telemetry).
        self.materialized_total = 0
        #: Peak number of concurrently resident factory-made clients.
        self.materialized_peak = 0

    # ------------------------------------------------------------------
    # Sequence-ish protocol (drop-in for eager client lists)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._factory.num_clients

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __getitem__(self, cid: int) -> Client:
        client = self._overrides.get(cid)
        if client is not None:
            return client
        client = self._active.get(cid)
        if client is None:
            if not 0 <= cid < len(self):
                raise IndexError(f"client id {cid} outside [0, {len(self)})")
            client = self._factory.make(cid)
            if client.client_id != cid:
                raise ValueError(
                    f"factory made client_id {client.client_id} for id {cid}"
                )
            self._active[cid] = client
            self.materialized_total += 1
            self.materialized_peak = max(
                self.materialized_peak, len(self._active)
            )
        return client

    def end_round(self) -> int:
        """Discard the round's materialized clients (their shards with them).

        Returns the number of clients that were resident this round —
        factory materializations plus the permanently resident overrides —
        for the per-round telemetry.
        """
        resident = len(self._active) + len(self._overrides)
        self._active.clear()
        return resident

    # ------------------------------------------------------------------
    # Metadata (no materialization)
    # ------------------------------------------------------------------
    def is_malicious(self, cid: int) -> bool:
        client = self._overrides.get(cid)
        return bool(client.is_malicious) if client is not None else False

    def is_parallel_safe(self, cid: int) -> bool:
        client = self._overrides.get(cid)
        if client is not None:
            return bool(getattr(client, "parallel_safe", False))
        return self._factory.parallel_safe

    def is_cohortable(self, cid: int) -> bool:
        client = self._overrides.get(cid)
        if client is not None:
            from repro.fl.cohort import is_cohortable

            return is_cohortable(client)
        return self._factory.cohort_safe and self._factory.shard_len(cid) > 0

    def shard_len(self, cid: int) -> int:
        client = self._overrides.get(cid)
        if client is not None:
            return len(client.dataset)
        return self._factory.shard_len(cid)

    @property
    def num_overrides(self) -> int:
        return len(self._overrides)

    @property
    def active_count(self) -> int:
        """Factory-made clients currently resident (0 between rounds)."""
        return len(self._active)


__all__ = [
    "ClientFactory",
    "ClientRegistry",
    "LazyShardFactory",
    "PartitionSpec",
]
