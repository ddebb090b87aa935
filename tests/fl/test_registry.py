"""Tests for the virtual client registry (repro.fl.registry).

The headline guarantees: the registry materializes clients only on
selection and drops every shard reference at end_round, answers metadata
queries without materializing anyone, and registry-backed simulations
commit bit-identical models to eager-list runs.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.registry import ClientFactory, ClientRegistry
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import make_mlp


def make_pool(seed: int = 5, n: int = 240) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
    labels = np.tile(np.arange(3), n // 3)
    x = centers[labels] + rng.normal(0.0, 0.4, size=(len(labels), 2))
    return Dataset(x, labels, 3)


class PartsFactory(ClientFactory):
    """Honest clients over explicit index parts of one sample pool."""

    def __init__(self, pool: Dataset, parts: list[np.ndarray]) -> None:
        self.pool = pool
        self.parts = parts

    @property
    def num_clients(self) -> int:
        return len(self.parts)

    def make(self, cid: int) -> HonestClient:
        return HonestClient(cid, self.pool.subset(self.parts[cid]))

    def shard_len(self, cid: int) -> int:
        return len(self.parts[cid])


class _Misbehaving(ClientFactory):
    """Factory returning a client with the wrong id (contract check)."""

    @property
    def num_clients(self) -> int:
        return 4

    def make(self, cid: int):
        return HonestClient(0, make_pool(n=12))

    def shard_len(self, cid: int) -> int:
        return 12


class TestClientRegistry:
    def _registry(self, num_clients: int = 6, overrides=None) -> ClientRegistry:
        pool = make_pool()
        parts = iid_partition(len(pool), num_clients, np.random.default_rng(1))
        return ClientRegistry(PartsFactory(pool, parts), overrides)

    def test_len_and_iter_are_ids(self):
        registry = self._registry()
        assert len(registry) == 6
        assert list(registry) == list(range(6))

    def test_materialize_on_access_and_round_cache(self):
        registry = self._registry()
        first = registry[3]
        assert registry[3] is first  # cached within the round
        assert registry.materialized_total == 1
        assert registry.active_count == 1

    def test_end_round_discards_shards(self):
        """The bounded-memory claim: after end_round no reference to a
        factory-made client (or its shard) survives inside the registry."""
        registry = self._registry()
        client = registry[2]
        ref = weakref.ref(client)
        shard_ref = weakref.ref(client.dataset)
        resident = registry.end_round()
        assert resident == 1
        assert registry.active_count == 0
        del client
        gc.collect()
        assert ref() is None
        assert shard_ref() is None

    def test_telemetry_counters(self):
        registry = self._registry()
        for cid in (0, 1, 2):
            registry[cid]
        registry.end_round()
        registry[4]
        assert registry.materialized_total == 4
        assert registry.materialized_peak == 3

    def test_out_of_range_rejected(self):
        registry = self._registry()
        with pytest.raises(IndexError):
            registry[6]

    def test_factory_id_contract_enforced(self):
        registry = ClientRegistry(_Misbehaving())
        with pytest.raises(ValueError, match="client_id"):
            registry[2]

    def test_overrides_replace_factory_clients(self):
        attacker = HonestClient(1, make_pool(n=12))
        attacker.parallel_safe = False
        registry = self._registry(overrides={1: attacker})
        assert registry[1] is attacker
        registry.end_round()
        assert registry[1] is attacker  # overrides stay resident
        assert registry.materialized_total == 0
        assert registry.num_overrides == 1

    def test_override_validation(self):
        with pytest.raises(ValueError, match="outside"):
            self._registry(overrides={9: HonestClient(9, make_pool(n=12))})
        with pytest.raises(ValueError, match="client_id"):
            self._registry(overrides={1: HonestClient(2, make_pool(n=12))})

    def test_metadata_queries_do_not_materialize(self):
        attacker = HonestClient(1, make_pool(n=12))
        attacker.parallel_safe = False
        registry = self._registry(overrides={1: attacker})
        for cid in range(6):
            registry.is_malicious(cid)
            registry.is_parallel_safe(cid)
            registry.is_cohortable(cid)
            registry.shard_len(cid)
        assert registry.materialized_total == 0
        assert registry.active_count == 0
        assert registry.is_parallel_safe(0)
        assert not registry.is_parallel_safe(1)
        assert not registry.is_malicious(0)


class TestRegistrySimulationEquivalence:
    """A registry-backed simulation commits bit-identical models to the
    eager-list one (the parallel-engine matrix extends this across
    executors; this is the sequential spine)."""

    def _world(self):
        pool = make_pool()
        parts = iid_partition(len(pool), 6, np.random.default_rng(2))
        model = make_mlp(2, 3, np.random.default_rng(9), hidden=(8,))
        config = FLConfig(
            num_clients=6, clients_per_round=3, local_epochs=1, batch_size=16
        )
        return PartsFactory(pool, parts), model, config

    def test_bit_identical_to_eager_list(self):
        factory, model, config = self._world()
        eager_clients = [factory.make(cid) for cid in range(6)]
        sim_eager = FederatedSimulation(
            model.clone(), eager_clients, config, np.random.default_rng(4)
        )
        records_eager = sim_eager.run(5)

        registry = ClientRegistry(factory)
        sim_virtual = FederatedSimulation(
            model.clone(), registry, config, np.random.default_rng(4)
        )
        records_virtual = sim_virtual.run(5)

        np.testing.assert_array_equal(
            sim_eager.global_model.get_flat(), sim_virtual.global_model.get_flat()
        )
        assert [r.contributor_ids for r in records_eager] == [
            r.contributor_ids for r in records_virtual
        ]

    def test_round_memory_is_cohort_sized(self):
        factory, model, config = self._world()
        registry = ClientRegistry(factory)
        sim = FederatedSimulation(
            model.clone(), registry, config, np.random.default_rng(4)
        )
        records = sim.run(4)
        assert all(
            r.materialized_clients <= config.clients_per_round for r in records
        )
        assert registry.active_count == 0  # nothing leaks between rounds

    def test_eager_run_reports_population_residency(self):
        factory, model, config = self._world()
        clients = [factory.make(cid) for cid in range(6)]
        sim = FederatedSimulation(
            model.clone(), clients, config, np.random.default_rng(4)
        )
        record = sim.run_round()
        assert record.materialized_clients == 6
        assert record.peak_rss_kb > 0
