"""Virtual client registry: a client population as IDs + metadata.

An eager population materializes every registered client up front —
each one owning a :class:`~repro.data.dataset.Dataset` shard — so memory
and setup cost grow linearly with population size even though a round
only ever touches ``clients_per_round`` of them.  This module inverts
that for populations whose clients do nothing between selections: they
are pure IDs until selected.  A :class:`ClientFactory` knows how to build
client ``cid`` on demand, the :class:`ClientRegistry` caches materialized
clients for the duration of one round and discards them afterwards, and
metadata queries (malicious? parallel-safe? cohortable? shard length?)
are answered without materializing anything.

BaFFLe's scenarios do not use it: every honest client also validates
(``scenarios._build_defense`` builds a validator on each non-attacker
shard), so a scenario holds every shard anyway.  The registry is the
library API that ``benchmarks/bench_population_scale.py`` measures.

Determinism contract
--------------------
A registry-backed run commits **bit-identical** models to an eager list
of the same clients:

- Client *training* randomness never lived on the client object: it is
  derived per ``(round, client_id)`` from :class:`~repro.fl.rng.RngStreams`
  spawn keys, so a client materialized fresh each round trains exactly
  like one held resident for the whole run.
- Optimizer state is constructed inside ``local_train`` per update and
  dies with it, so discarding a client after the round discards nothing
  the eager path would have kept.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.fl.client import Client


class ClientFactory:
    """Materializes clients of a virtual population on demand.

    Subclasses define the population: its size, each client's shard
    length (answerable without materializing), and ``make(cid)``.  The
    ``cohort_safe``/``parallel_safe`` class attributes assert, for every
    factory-made client, the same opt-in contracts the eager objects
    carry — they let the registry answer scheduling queries by metadata.
    """

    #: Factory-made clients are plain
    #: :class:`~repro.fl.client.HonestClient`s eligible for
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


__all__ = ["ClientFactory", "ClientRegistry"]
