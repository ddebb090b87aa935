"""Tests for the parallel round engine and its keyed RNG streams.

The headline guarantee: a :class:`ProcessPoolRoundExecutor` run commits
**bit-identical** global models and round records to a
:class:`SequentialExecutor` run under the same seed.  Everything here
defends that property.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baffle import BaffleConfig, BaffleDefense, ValidatorPool
from repro.core.validation import MisclassificationValidator
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.fl.client import HonestClient, LocalTrainingConfig
from repro.fl.config import FLConfig
from repro.fl.model_store import (
    InProcessModelStore,
    SharedMemoryModelStore,
)
from repro.fl.parallel import (
    ProcessPoolRoundExecutor,
    SequentialExecutor,
    ThreadPoolRoundExecutor,
    make_engine,
    make_executor,
)
from repro.fl.rng import RngStreams
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import make_mlp


class StayAtHomeClient(HonestClient):
    """An honest client that must run in the parent process."""

    parallel_safe = False


def make_world(seed: int = 7, num_clients: int = 6, home_client: int | None = None):
    """A separable 3-class federated world with per-client validators."""
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
    labels = np.tile(np.arange(3), 120)
    x = centers[labels] + rng.normal(0.0, 0.4, size=(len(labels), 2))
    pool = Dataset(x, labels, 3)
    parts = iid_partition(len(pool), num_clients + 1, rng)
    shards = [pool.subset(p) for p in parts]
    clients = [
        (StayAtHomeClient if i == home_client else HonestClient)(i, shards[i])
        for i in range(num_clients)
    ]
    server_data = shards[num_clients]
    model = make_mlp(2, 3, rng, hidden=(8,))
    config = FLConfig(num_clients=num_clients, clients_per_round=3, local_epochs=1,
                      batch_size=16)
    return model, clients, server_data, config


def build_defended_sim(
    executor,
    seed: int = 7,
    home_client: int | None = None,
    prime: bool = True,
    store=None,
    lookback: int = 4,
    num_validators: int = 3,
    tracer=None,
):
    model, clients, server_data, config = make_world(seed, home_client=home_client)
    validator_pool = ValidatorPool.from_datasets(
        {c.client_id: c.dataset for c in clients}, min_history=4
    )
    defense = BaffleDefense(
        BaffleConfig(
            lookback=lookback, quorum=2, num_validators=num_validators, mode="both"
        ),
        validator_pool,
        MisclassificationValidator(server_data, min_history=4),
    )
    if prime:
        defense.prime(model)
    return FederatedSimulation(
        model.clone(), clients, config, np.random.default_rng(seed + 1),
        defense=defense, executor=executor, model_store=store, tracer=tracer,
    )


def run_and_snapshot(sim, rounds: int = 8):
    records = sim.run(rounds)
    return sim.global_model.get_flat(), [
        (
            r.round_idx,
            tuple(r.contributor_ids),
            r.accepted,
            r.decision.reject_votes,
            dict(r.decision.client_votes),
            r.decision.server_vote,
            # Telemetry must agree too: a sync run and a depth-0 pipelined
            # run both resolve every round within itself.
            r.accepted_at_round,
            r.validation_lag,
            r.rollback_count,
        )
        for r in records
    ]


class TestRngStreams:
    def test_keyed_streams_are_reproducible(self):
        a = RngStreams.from_seed(3)
        b = RngStreams.from_seed(3)
        assert a.client_rng(5, 2).random() == b.client_rng(5, 2).random()
        assert a.validator_rng(5, 2).random() == b.validator_rng(5, 2).random()

    def test_domains_rounds_and_entities_are_independent(self):
        streams = RngStreams.from_seed(3)
        draws = {
            streams.client_rng(5, 2).random(),
            streams.validator_rng(5, 2).random(),
            streams.client_rng(6, 2).random(),
            streams.client_rng(5, 3).random(),
            streams.server_rng(5).random(),
        }
        assert len(draws) == 5

    def test_from_rng_consumes_no_draws(self):
        rng = np.random.default_rng(11)
        RngStreams.from_rng(rng)
        assert rng.random() == np.random.default_rng(11).random()

    def test_from_rng_is_deterministic_per_generator(self):
        a = RngStreams.from_rng(np.random.default_rng(11))
        b = RngStreams.from_rng(np.random.default_rng(11))
        assert a.client_rng(0, 0).random() == b.client_rng(0, 0).random()

    def test_negative_keys_rejected(self):
        with pytest.raises(ValueError):
            RngStreams.from_seed(0).client_seq(-1, 0)


class TestSequentialOrderIndependence:
    def test_client_updates_do_not_depend_on_execution_order(self):
        model, clients, _, config = make_world()
        local_cfg = LocalTrainingConfig(epochs=1, batch_size=16, lr=0.1)
        streams = RngStreams.from_seed(0)
        executor = SequentialExecutor()
        forward = executor.run_clients(clients, [0, 1, 2], model, local_cfg, 0, streams)
        backward = executor.run_clients(clients, [2, 1, 0], model, local_cfg, 0, streams)
        for update_f, update_b in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(update_f, update_b)


class TestMakeExecutor:
    def test_zero_and_one_worker_fall_back_to_sequential(self):
        assert isinstance(make_executor(0), SequentialExecutor)
        assert isinstance(make_executor(1), SequentialExecutor)

    def test_multiple_workers_build_a_process_pool(self):
        executor = make_executor(2)
        assert isinstance(executor, ProcessPoolRoundExecutor)
        executor.close()

    def test_thread_engine_builds_a_thread_pool(self):
        executor = make_executor(2, engine="thread")
        assert isinstance(executor, ThreadPoolRoundExecutor)
        executor.close()
        assert isinstance(make_executor(0, engine="thread"), SequentialExecutor)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            make_executor(2, engine="fiber")
        with pytest.raises(ValueError, match="engine"):
            make_engine(2, engine="fiber")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            make_executor(-1)

    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolRoundExecutor(1)
        with pytest.raises(ValueError):
            ThreadPoolRoundExecutor(1)


class TestSequentialParallelEquivalence:
    def test_defended_runs_commit_bit_identical_models_and_records(self):
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor())
        )
        with make_executor(2) as executor:
            par_flat, par_records = run_and_snapshot(build_defended_sim(executor))
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_parent_fallback_clients_preserve_equivalence(self):
        """Clients with ``parallel_safe = False`` run in the parent but
        must not perturb the committed trajectory."""
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor())
        )
        with make_executor(2) as executor:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(executor, home_client=1)
            )
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_empty_history_round_abstains_in_both_engines(self):
        """Regression: an unprimed defense reviews round 0 with an empty
        history; worker-side validation must abstain like the sequential
        path instead of crashing on the empty history."""
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(), prime=False), rounds=3
        )
        with make_executor(2) as executor:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(executor, prime=False), rounds=3
            )
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_undefended_run_equivalence(self):
        model, clients, _, config = make_world()
        sims = []
        for executor in (SequentialExecutor(), make_executor(2)):
            with executor:
                sim = FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(3), executor=executor,
                )
                sim.run(4)
                sims.append(sim.global_model.get_flat())
        np.testing.assert_array_equal(sims[0], sims[1])


class TestParentSideOverlap:
    """Every dispatcher submits its slices before any parent-side
    (``parallel_safe = False``) client trains, so parent work overlaps the
    dispatched slices instead of delaying them."""

    @pytest.mark.parametrize(
        "workers, engine", [(0, "process"), (2, "process"), (2, "thread")]
    )
    def test_slices_submit_before_parent_side_updates(
        self, workers, engine, monkeypatch
    ):
        events: list[str] = []
        model, clients, _, config = make_world(home_client=1)
        local = LocalTrainingConfig(epochs=1, batch_size=config.batch_size)
        streams = RngStreams.from_seed(0)
        ids = [0, 1, 2, 3]
        baseline = SequentialExecutor().run_clients(
            clients, ids, model, local, 0, streams
        )
        real_update = StayAtHomeClient.produce_update

        def parent_update(self, *args):
            events.append("parent")
            return real_update(self, *args)

        monkeypatch.setattr(StayAtHomeClient, "produce_update", parent_update)
        with make_executor(workers, engine=engine) as executor:
            dispatcher = type(executor._dispatcher)
            real_submit = dispatcher.submit

            def submit(self, *args):
                events.append("submit")
                return real_submit(self, *args)

            monkeypatch.setattr(dispatcher, "submit", submit)
            executor.bind(clients=clients, template=model.clone())
            updates = executor.run_clients(clients, ids, model, local, 0, streams)
        assert events[-1] == "parent"
        assert events.count("parent") == 1 and len(events) >= 2
        for a, b in zip(baseline, updates):
            np.testing.assert_array_equal(a, b)


class TestExecutorLifecycle:
    def test_bind_after_pool_start_rejected(self):
        model, clients, _, config = make_world()
        with make_executor(2) as executor:
            sim = FederatedSimulation(
                model.clone(), clients, config,
                np.random.default_rng(3), executor=executor,
            )
            sim.run_round()
            with pytest.raises(RuntimeError):
                executor.bind(clients=clients)

    def test_executor_reuse_across_simulations_rejected(self):
        """One executor per simulation: a second bind of the same
        population must fail loudly, not silently retrain the wrong world."""
        model, clients, _, config = make_world()
        with make_executor(2) as executor:
            FederatedSimulation(
                model.clone(), clients, config,
                np.random.default_rng(3), executor=executor,
            )
            with pytest.raises(RuntimeError, match="one executor per simulation"):
                FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(4), executor=executor,
                )

    def test_pool_without_template_rejected(self):
        executor = ProcessPoolRoundExecutor(2)
        model, clients, _, config = make_world()
        streams = RngStreams.from_seed(0)
        with pytest.raises(RuntimeError):
            executor.run_clients(
                clients, [0], model, LocalTrainingConfig(epochs=1), 0, streams
            )
        executor.close()

    def test_close_is_idempotent(self):
        executor = make_executor(2)
        executor.close()
        executor.close()


class TestEngineFactory:
    """make_executor / make_engine route the store through one factory, so
    a pool can no longer silently fall back to pipe transport."""

    def test_make_executor_prebinds_store(self):
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            assert executor.store is store

    def test_make_executor_prebinds_store_on_sequential_too(self):
        """A store passed for a 0/1-worker engine must not be dropped: the
        simulation adopts it from the executor for the defense history."""
        store = InProcessModelStore()
        executor = make_executor(1, store=store)
        assert executor.store is store
        model, clients, _, config = make_world()
        sim = FederatedSimulation(
            model.clone(), clients, config,
            np.random.default_rng(3), executor=executor,
        )
        assert sim.model_store is store

    def test_make_engine_pairs_executor_and_store(self):
        from repro.fl.parallel import RoundEngine

        with make_engine(2, store="shared") as engine:
            assert isinstance(engine, RoundEngine)
            assert engine.executor.store is engine.store
            assert isinstance(engine.store, SharedMemoryModelStore)
        assert engine.store.closed

    def test_make_engine_auto_matches_worker_count(self):
        with make_engine(0) as engine:
            assert isinstance(engine.store, InProcessModelStore)
            assert isinstance(engine.executor, SequentialExecutor)
        with make_engine(2) as engine:
            assert isinstance(engine.store, SharedMemoryModelStore)
            assert isinstance(engine.executor, ProcessPoolRoundExecutor)

    def test_simulation_adopts_executor_store(self):
        model, clients, _, config = make_world()
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            sim = FederatedSimulation(
                model.clone(), clients, config,
                np.random.default_rng(3), executor=executor,
            )
            assert sim.model_store is store

    def test_simulation_rejects_conflicting_store(self):
        model, clients, _, config = make_world()
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            with pytest.raises(ValueError, match="different model store"):
                FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(3), executor=executor,
                    model_store=InProcessModelStore(),
                )

    def test_pipelined_mode_sets_depth_and_validates(self):
        """Pipelining is an executor attribute the simulation reads: the
        sync default leaves it unset, ``mode="pipelined"`` sets the depth
        on the engine's own executor."""
        assert make_executor(0).pipeline_depth is None
        executor = make_executor(0, mode="pipelined", pipeline_depth=2)
        assert isinstance(executor, SequentialExecutor)
        assert executor.pipeline_depth == 2
        with make_executor(
            2, mode="pipelined", pipeline_depth=3, engine="thread"
        ) as threaded:
            assert isinstance(threaded, ThreadPoolRoundExecutor)
            assert threaded.pipeline_depth == 3
        with pytest.raises(ValueError, match="mode"):
            make_executor(0, mode="warp")
        with pytest.raises(ValueError, match="pipeline_depth"):
            make_executor(0, mode="pipelined", pipeline_depth=-1)


def shm_leftovers(store) -> list[str]:
    from tests.conftest import shm_entries

    return shm_entries(store.name_prefix)


class TestStoreExecutorEquivalenceMatrix:
    """The spine of the refactor: every {executor mode} x {engine} x
    {store} x {workers} combination commits bit-identical models and round
    records — {Sequential, ProcessPool, Thread} x {InProcess,
    SharedMemory}, sync and pipelined.

    ``pipelined`` runs with ``pipeline_depth=0`` here — the degenerate
    setting that must reproduce synchronous semantics exactly (the
    deeper-pipeline equivalence lives in tests/fl/test_pipelined.py).
    """

    @pytest.mark.parametrize("mode", ["sync", "pipelined"])
    @pytest.mark.parametrize(
        "workers, engine",
        [(1, "process"), (2, "process"), (4, "process"), (2, "thread"),
         (4, "thread")],
    )
    @pytest.mark.parametrize(
        "store_cls", [InProcessModelStore, SharedMemoryModelStore]
    )
    def test_bit_identical_commits(self, workers, engine, store_cls, mode):
        baseline_flat, baseline_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(), store=InProcessModelStore())
        )
        store = store_cls()
        with store, make_executor(
            workers, store=store, mode=mode, pipeline_depth=0, engine=engine
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=store)
            )
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records
        if isinstance(store, SharedMemoryModelStore):
            assert shm_leftovers(store) == []


class TestFloat32EquivalenceMatrix:
    """The float32 policy's own contract, mirroring the float64 matrix:
    {Sequential, ProcessPool, Thread} x {InProcess, SharedMemory} x
    {sync, pipelined} commit bit-identical *float32* models.  (float32
    runs are a different trajectory from float64 by construction — the
    policy is part of the contract's scope, not a violation of it.)"""

    @pytest.mark.parametrize("mode", ["sync", "pipelined"])
    @pytest.mark.parametrize(
        "workers, engine", [(2, "process"), (2, "thread")]
    )
    @pytest.mark.parametrize(
        "store_cls", [InProcessModelStore, SharedMemoryModelStore]
    )
    def test_bit_identical_float32_commits(self, workers, engine, store_cls, mode):
        from repro.nn.precision import dtype_policy

        with dtype_policy("float32"):
            baseline_flat, baseline_records = run_and_snapshot(
                build_defended_sim(
                    SequentialExecutor(), store=InProcessModelStore()
                )
            )
            assert baseline_flat.dtype == np.float32
            store = store_cls()
            with store, make_executor(
                workers, store=store, mode=mode, pipeline_depth=0, engine=engine
            ) as executor:
                flat, records = run_and_snapshot(
                    build_defended_sim(executor, store=store)
                )
        assert flat.dtype == np.float32
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records
        if isinstance(store, SharedMemoryModelStore):
            assert shm_leftovers(store) == []

    def test_float32_halves_shared_memory_transport(self):
        """The point of the policy: the shm arena ships 4-byte scalars."""
        from repro.nn.precision import dtype_policy

        per_policy = {}
        for policy in ("float64", "float32"):
            with dtype_policy(policy):
                store = SharedMemoryModelStore()
                with store, make_executor(2, store=store) as executor:
                    sim = build_defended_sim(executor, store=store)
                    records = sim.run(4)
                per_policy[policy] = sum(r.transport_bytes for r in records)
        assert per_policy["float32"] * 2 == per_policy["float64"]


class TestRegistryEngineEquivalence:
    """A virtual ClientRegistry population commits bit-identically under
    every engine — workers materialize their own shard slices."""

    def _registry_world(self, seed: int = 7):
        from repro.fl.registry import ClientRegistry, LazyShardFactory, PartitionSpec

        rng = np.random.default_rng(seed)
        centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
        labels = np.tile(np.arange(3), 120)
        x = centers[labels] + rng.normal(0.0, 0.4, size=(len(labels), 2))
        pool = Dataset(x, labels, 3)
        spec = PartitionSpec.iid(len(pool), 6, rng)
        registry = ClientRegistry(LazyShardFactory(pool, spec))
        model = make_mlp(2, 3, rng, hidden=(8,))
        config = FLConfig(num_clients=6, clients_per_round=3, local_epochs=1,
                          batch_size=16)
        return model, registry, config

    @pytest.mark.parametrize(
        "workers, engine",
        [(0, "process"), (2, "process"), (2, "thread")],
    )
    def test_registry_commits_match_sequential(self, workers, engine):
        sims = []
        for executor in (
            SequentialExecutor(),
            make_executor(workers, engine=engine),
        ):
            model, registry, config = self._registry_world()
            with executor:
                sim = FederatedSimulation(
                    model, registry, config, np.random.default_rng(3),
                    executor=executor,
                )
                sim.run(4)
                sims.append(sim.global_model.get_flat())
        np.testing.assert_array_equal(sims[0], sims[1])


class TestTransportAccounting:
    def test_sequential_moves_no_bytes(self):
        sim = build_defended_sim(SequentialExecutor(), store=InProcessModelStore())
        records = sim.run(4)
        assert all(r.transport_bytes == 0 for r in records)

    def test_shared_memory_ships_one_model_per_round(self):
        """O(1) new-model transport: each round copies exactly the staged
        candidate into the arena — the global model deduplicates against
        the latest committed history entry."""
        store = SharedMemoryModelStore()
        with store, make_executor(2) as executor:
            sim = build_defended_sim(executor, store=store)
            model_bytes = sim.global_model.get_flat().nbytes
            records = sim.run(6)
        assert [r.transport_bytes for r in records] == [model_bytes] * 6

    def test_shared_memory_transport_independent_of_history_and_fanout(self):
        """The acceptance criterion: shm bytes/round do not grow with the
        look-back window or the validator count (pipe bytes do)."""
        per_round = {}
        for label, lookback, validators in (
            ("small", 4, 2),
            ("large", 6, 5),
        ):
            store = SharedMemoryModelStore()
            with store, make_executor(2) as executor:
                sim = build_defended_sim(
                    executor, store=store, lookback=lookback,
                    num_validators=validators,
                )
                records = sim.run(8)
            per_round[label] = [r.transport_bytes for r in records]
        assert per_round["small"] == per_round["large"]

    def test_pipe_transport_grows_with_history(self):
        with make_executor(2) as executor:
            sim = build_defended_sim(executor, store=InProcessModelStore())
            model_bytes = sim.global_model.get_flat().nbytes
            records = sim.run(6)
        pipe_bytes = [r.transport_bytes for r in records]
        # Per round: the global model per remote client plus, once voting
        # starts, (candidate + history) per remote validator.
        assert all(b >= model_bytes for b in pipe_bytes)
        assert pipe_bytes[-1] > pipe_bytes[0]  # history growth shows up

    def test_pipes_ship_more_than_shared_memory(self):
        totals = {}
        for label, store_cls in (
            ("pipes", InProcessModelStore),
            ("shm", SharedMemoryModelStore),
        ):
            store = store_cls()
            with store, make_executor(2) as executor:
                sim = build_defended_sim(executor, store=store)
                records = sim.run(6)
            totals[label] = sum(r.transport_bytes for r in records)
        assert totals["shm"] < totals["pipes"]


class TestSharedProfileTable:
    def test_table_profiles_stay_within_retained_history(self):
        """Satellite regression: profiles of rejected candidates and of
        evicted history versions never accumulate in the shared table."""
        store = SharedMemoryModelStore()
        with store, make_executor(2) as executor:
            sim = build_defended_sim(executor, store=store)
            sim.run(8)
            defense = sim.defense
            retained = set(defense.history.versions())
            table_versions = {key[1] for key in defense.profile_table._profiles}
            assert table_versions <= retained
            assert defense.profile_table.staged_count == 0

    def test_sequential_run_keeps_table_empty(self):
        """The sequential path reuses validators' own caches; the shared
        table only collects worker-computed profiles."""
        sim = build_defended_sim(SequentialExecutor(), store=InProcessModelStore())
        sim.run(8)
        assert len(sim.defense.profile_table) == 0


class TestWorkerTaskProfileFlow:
    """Exercise the worker-side task function in-process: hints suppress
    recomputation, computed profiles flow back, caches evict retired
    versions."""

    def _worker_world(self):
        from repro.fl import parallel as parallel_mod

        model, clients, server_data, _ = make_world()
        validator = MisclassificationValidator(server_data, min_history=4)
        parallel_mod._init_worker({}, {0: validator}, model.clone(), None)
        return parallel_mod, model, validator

    @staticmethod
    def _blob(model):
        """A pipe blob in the wire format: a codec-encoded segment."""
        from repro.fl.compression import IdentityCodec

        return IdentityCodec().encode(model.get_flat()).to_bytes()

    def _refs(self, model, versions, rng):
        refs = []
        for version in versions:
            perturbed = model.clone()
            flat = perturbed.get_flat()
            perturbed.set_flat(flat + rng.normal(0.0, 1e-3, size=flat.shape))
            refs.append((version, self._blob(perturbed)))
        return refs

    @staticmethod
    def _vote(parallel_mod, candidate, history, round_idx, seed, hints):
        """Validator 0's ``(vote, new_profiles, candidate_profile)``, voted
        by the worker's slice task as a one-validator slice."""
        (row,), _ = parallel_mod._validator_slice_task(
            [0], candidate, history, round_idx, [seed], {0: hints}, None
        )
        assert row[0] == 0
        return row[1:]

    def test_hints_suppress_recomputation_and_new_profiles_return(self, rng):
        from repro.core import validation as validation_mod

        parallel_mod, model, validator = self._worker_world()
        history = self._refs(model, range(6), rng)
        candidate = (None, self._blob(model))
        seed = np.random.SeedSequence(0)

        vote, new_profiles, candidate_profile = self._vote(
            parallel_mod, candidate, history, 0, seed, {}
        )
        assert vote in (0, 1)
        assert set(new_profiles) == set(range(6))
        assert candidate_profile is not None

        # Second vote over the same history, hints supplied: nothing new to
        # compute, and no forward passes beyond the fresh candidate's.
        profiled = []
        real = validation_mod.model_error_profile

        def counting(m, dataset, normalize="dataset"):
            profiled.append(m)
            return real(m, dataset, normalize=normalize)

        validator._profile_cache.clear()
        validation_mod.model_error_profile = counting
        try:
            _, second_new, _ = self._vote(
                parallel_mod, candidate, history, 1, seed, new_profiles
            )
        finally:
            validation_mod.model_error_profile = real
        assert second_new == {}
        assert len(profiled) == 1  # the candidate only

    def test_worker_caches_evict_retired_versions(self, rng):
        parallel_mod, model, validator = self._worker_world()
        candidate = (None, self._blob(model))
        seed = np.random.SeedSequence(0)
        self._vote(
            parallel_mod, candidate, self._refs(model, range(6), rng), 0, seed, {}
        )
        # The window slides forward by two versions.
        self._vote(
            parallel_mod, candidate, self._refs(model, range(2, 8), rng), 1,
            seed, {},
        )
        assert set(parallel_mod._W_MODELS) == set(range(2, 8))
        assert set(validator._profile_cache) <= set(range(2, 8))


class TestThreadEngine:
    """Thread-engine specifics beyond the equivalence matrix: zero
    transport, in-process store default, parent fallback, reuse guard."""

    def test_thread_runs_move_zero_bytes(self):
        with make_executor(2, engine="thread") as executor:
            sim = build_defended_sim(executor, store=InProcessModelStore())
            records = sim.run(6)
        assert all(r.transport_bytes == 0 for r in records)
        assert executor.transport_bytes == 0

    def test_make_engine_auto_store_resolves_to_inprocess_for_threads(self):
        with make_engine(2, engine="thread") as engine:
            assert isinstance(engine.executor, ThreadPoolRoundExecutor)
            assert isinstance(engine.store, InProcessModelStore)
        # An explicit store kind is still honored.
        with make_engine(2, engine="thread", store="shared") as engine:
            assert isinstance(engine.store, SharedMemoryModelStore)

    def test_parent_fallback_clients_preserve_equivalence(self):
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor())
        )
        with make_executor(2, engine="thread") as executor:
            thr_flat, thr_records = run_and_snapshot(
                build_defended_sim(executor, home_client=1)
            )
        np.testing.assert_array_equal(seq_flat, thr_flat)
        assert seq_records == thr_records

    def test_executor_reuse_across_simulations_rejected(self):
        model, clients, _, config = make_world()
        with make_executor(2, engine="thread") as executor:
            FederatedSimulation(
                model.clone(), clients, config,
                np.random.default_rng(3), executor=executor,
            )
            with pytest.raises(RuntimeError, match="one executor per simulation"):
                FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(4), executor=executor,
                )


class _OneVoteValidator:
    """Minimal parallel-safe validator for in-process worker-task tests."""

    parallel_safe = True

    def vote(self, context, rng):
        return 1


class TestWarmAttachCaching:
    """Satellite regression: pool workers attach each arena segment exactly
    once per version — warm attachments are cached across tasks and rounds
    and dropped only on the release path (the eviction floor)."""

    def test_one_attach_per_version_across_rounds(self, monkeypatch):
        from repro.fl import model_store as model_store_mod
        from repro.fl import parallel as parallel_mod

        model, _, _, _ = make_world()
        store = SharedMemoryModelStore()
        with store:
            versions = [store.publish_new(model.get_flat()) for _ in range(7)]
            *history_versions, candidate_version = versions
            parallel_mod._init_worker(
                {}, {0: _OneVoteValidator(), 1: _OneVoteValidator()},
                model.clone(), store.worker_handle(),
            )

            attaches: list[str] = []
            real_shm = model_store_mod.shared_memory.SharedMemory

            def counting(*args, **kwargs):
                if not kwargs.get("create", False):
                    attaches.append(kwargs.get("name", args[0] if args else "?"))
                return real_shm(*args, **kwargs)

            monkeypatch.setattr(
                model_store_mod.shared_memory, "SharedMemory", counting
            )

            def round_task(vids, cand, hist, round_idx):
                return parallel_mod._validator_slice_task(
                    vids, (cand, None), [(v, None) for v in hist], round_idx,
                    [np.random.SeedSequence(round_idx * 100 + vid)
                     for vid in vids],
                    {}, min(hist),
                )

            # Round 0: one attach per distinct version, however many
            # validators share the slice.
            round_task([0, 1], candidate_version, history_versions, 0)
            assert len(attaches) == len(history_versions) + 1

            # Same round, second slice task (same worker): fully warm.
            round_task([0, 1], candidate_version, history_versions, 0)
            assert len(attaches) == len(history_versions) + 1

            # Next round: the accepted candidate joined the history and a
            # new candidate appeared — exactly one new attach.
            new_candidate = store.publish_new(model.get_flat())
            slid_history = history_versions[1:] + [candidate_version]
            round_task([0, 1], new_candidate, slid_history, 1)
            assert len(attaches) == len(history_versions) + 2

            # The eviction floor (release path) drops retired attachments;
            # re-reading a retired version would need a fresh attach.
            assert min(history_versions) not in parallel_mod._W_STORE._segments
            assert set(parallel_mod._W_STORE._segments) == set(
                slid_history + [new_candidate]
            )
            parallel_mod._W_STORE.close()


class TestStandaloneContextOnSharedStore:
    def test_unstaged_history_falls_back_to_blob_transport(self):
        """Regression: a context whose candidate/history never touched the
        executor's shared store (defense bound without a store) must still
        validate — unresolvable versions travel as blobs, not as dangling
        arena keys."""
        from repro.core.validation import ValidationContext

        model, clients, server_data, config = make_world()
        validator_pool = ValidatorPool.from_datasets(
            {c.client_id: c.dataset for c in clients}, min_history=4
        )
        history = [(v, model.clone()) for v in range(6)]
        context = ValidationContext(candidate=model.clone(), history=history)
        store = SharedMemoryModelStore()
        with store, make_executor(2) as executor:
            executor.bind(
                clients=clients, template=model.clone(), store=store,
                validator_pool=validator_pool,
            )
            votes = executor.run_validators(
                validator_pool, [0, 1], context, 0, RngStreams.from_seed(0)
            )
            assert set(votes) == {0, 1}
            assert store.versions() == []  # ephemeral candidate released
