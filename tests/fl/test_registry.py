"""Tests for the virtual client registry (repro.fl.registry).

The headline guarantees: lazy per-client partitions are bit-identical to
the eager split (and consume the shared RNG stream identically), the
registry materializes clients only on selection and drops every shard
reference at end_round, and registry-backed simulations commit
bit-identical models to eager-list runs.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.partition import dirichlet_partition, iid_partition, writer_partition
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.registry import (
    ClientFactory,
    ClientRegistry,
    LazyShardFactory,
    PartitionSpec,
)
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import make_mlp


def make_pool(seed: int = 5, n: int = 240) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
    labels = np.tile(np.arange(3), n // 3)
    x = centers[labels] + rng.normal(0.0, 0.4, size=(len(labels), 2))
    return Dataset(x, labels, 3)


class TestPartitionSpecEquivalence:
    """Lazy replay must reproduce the eager split bit-for-bit, for every
    client, and advance the caller's stream exactly as the eager call."""

    def test_dirichlet_lazy_matches_eager(self):
        pool = make_pool()
        eager_rng = np.random.default_rng(3)
        eager_parts = dirichlet_partition(pool.y, 8, 0.9, eager_rng, min_samples=2)

        lazy_rng = np.random.default_rng(3)
        spec = PartitionSpec.dirichlet(pool.y, 8, 0.9, lazy_rng, min_samples=2)
        for cid in range(8):
            np.testing.assert_array_equal(spec.indices(cid), eager_parts[cid])
        # Constructing the spec consumed exactly the eager draw.
        assert eager_rng.random() == lazy_rng.random()

    def test_iid_lazy_matches_eager(self):
        eager_rng = np.random.default_rng(7)
        eager_parts = iid_partition(240, 6, eager_rng)
        lazy_rng = np.random.default_rng(7)
        spec = PartitionSpec.iid(240, 6, lazy_rng)
        for cid in range(6):
            np.testing.assert_array_equal(spec.indices(cid), eager_parts[cid])
        assert eager_rng.random() == lazy_rng.random()

    def test_writer_lazy_matches_eager(self):
        writer_ids = np.random.default_rng(0).integers(0, 5, size=200)
        eager_parts = writer_partition(writer_ids)
        spec = PartitionSpec.writer(writer_ids)
        assert spec.num_clients == len(eager_parts)
        for cid in range(spec.num_clients):
            np.testing.assert_array_equal(spec.indices(cid), eager_parts[cid])

    def test_explicit_parts_held_as_is(self):
        parts = [np.arange(0, 5), np.arange(5, 9)]
        spec = PartitionSpec.from_parts(parts)
        assert spec.num_clients == 2
        np.testing.assert_array_equal(spec.indices(1), parts[1])

    def test_shard_len_and_all_parts(self):
        spec = PartitionSpec.iid(100, 4, np.random.default_rng(0))
        assert [spec.shard_len(c) for c in range(4)] == [
            len(p) for p in spec.all_parts()
        ]

    def test_out_of_range_client_rejected(self):
        spec = PartitionSpec.iid(100, 4, np.random.default_rng(0))
        with pytest.raises(IndexError):
            spec.indices(4)
        with pytest.raises(IndexError):
            spec.indices(-1)

    def test_pickle_roundtrip_replays_identically(self):
        """A pickled spec reads back the identical split."""
        pool = make_pool()
        spec = PartitionSpec.dirichlet(pool.y, 8, 0.9, np.random.default_rng(3))
        original = [spec.indices(c) for c in range(8)]  # populate cache
        clone = pickle.loads(pickle.dumps(spec))
        for cid in range(8):
            np.testing.assert_array_equal(clone.indices(cid), original[cid])

    def test_pickle_keeps_explicit_parts(self):
        spec = PartitionSpec.from_parts([np.arange(3), np.arange(3, 7)])
        clone = pickle.loads(pickle.dumps(spec))
        np.testing.assert_array_equal(clone.indices(1), np.arange(3, 7))


class TestLazyShardFactory:
    def test_make_builds_honest_client_over_lazy_shard(self):
        pool = make_pool()
        spec = PartitionSpec.iid(len(pool), 6, np.random.default_rng(1))
        factory = LazyShardFactory(pool, spec)
        assert factory.num_clients == 6
        client = factory.make(2)
        assert isinstance(client, HonestClient)
        assert client.client_id == 2
        eager_shard = pool.subset(spec.indices(2))
        np.testing.assert_array_equal(client.dataset.x, eager_shard.x)
        np.testing.assert_array_equal(client.dataset.y, eager_shard.y)
        assert factory.shard_len(2) == len(eager_shard)


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
        spec = PartitionSpec.iid(len(pool), num_clients, np.random.default_rng(1))
        return ClientRegistry(LazyShardFactory(pool, spec), overrides)

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
        rng = np.random.default_rng(2)
        spec = PartitionSpec.iid(len(pool), 6, rng)
        model = make_mlp(2, 3, np.random.default_rng(9), hidden=(8,))
        config = FLConfig(
            num_clients=6, clients_per_round=3, local_epochs=1, batch_size=16
        )
        return pool, spec, model, config

    def test_bit_identical_to_eager_list(self):
        pool, spec, model, config = self._world()
        eager_clients = [
            HonestClient(cid, pool.subset(spec.indices(cid))) for cid in range(6)
        ]
        sim_eager = FederatedSimulation(
            model.clone(), eager_clients, config, np.random.default_rng(4)
        )
        records_eager = sim_eager.run(5)

        registry = ClientRegistry(LazyShardFactory(pool, spec))
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
        pool, spec, model, config = self._world()
        registry = ClientRegistry(LazyShardFactory(pool, spec))
        sim = FederatedSimulation(
            model.clone(), registry, config, np.random.default_rng(4)
        )
        records = sim.run(4)
        assert all(
            r.materialized_clients <= config.clients_per_round for r in records
        )
        assert registry.active_count == 0  # nothing leaks between rounds

    def test_eager_run_reports_population_residency(self):
        pool, spec, model, config = self._world()
        clients = [
            HonestClient(cid, pool.subset(spec.indices(cid))) for cid in range(6)
        ]
        sim = FederatedSimulation(
            model.clone(), clients, config, np.random.default_rng(4)
        )
        record = sim.run_round()
        assert record.materialized_clients == 6
        assert record.peak_rss_kb > 0
