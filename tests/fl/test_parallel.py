"""Tests for the parallel round engine and its keyed RNG streams.

The headline guarantee: a :class:`ProcessPoolRoundExecutor` run commits
**bit-identical** global models and round records to a
:class:`SequentialExecutor` run under the same seed.  Everything here
defends that property.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.baffle import (
    BaffleConfig,
    BaffleDefense,
    ForcedRejectDefense,
    ValidatorPool,
)
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
    PendingVotes,
    ProcessPoolRoundExecutor,
    SequentialExecutor,
    ThreadPoolRoundExecutor,
    make_engine,
    make_executor,
)
from repro.fl.rng import RngStreams
from repro.fl.simulation import DefenseDecision, FederatedSimulation
from repro.nn import blas
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


@contextlib.contextmanager
def worker_globals(*init_args):
    """The process-pool worker globals set in this process by
    ``_init_worker(*init_args)``; on exit the worker's store view closes and
    the BLAS thread it holds is released, so later tests see the host
    count."""
    from repro.fl import parallel as parallel_mod

    parallel_mod._init_worker(*init_args)
    try:
        yield parallel_mod
    finally:
        parallel_mod._W_STORE.close()
        blas._held.close()


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
        )
        for r in records
    ]


def build_forced_sim(
    executor,
    store=None,
    reject_rounds=(),
    seed: int = 8,
    lookback: int = 4,
):
    """A defended world whose quorum outcome is scripted per round."""
    model, clients, server_data, config = make_world(seed)
    validator_pool = ValidatorPool.from_datasets(
        {c.client_id: c.dataset for c in clients}, min_history=4
    )
    defense = ForcedRejectDefense(
        BaffleConfig(lookback=lookback, quorum=2, num_validators=3, mode="both"),
        validator_pool,
        MisclassificationValidator(server_data, min_history=4),
        reject_rounds=reject_rounds,
    )
    defense.prime(model)
    return FederatedSimulation(
        model.clone(), clients, config, np.random.default_rng(seed + 1),
        defense=defense, executor=executor, model_store=store,
    )


def snapshot(records):
    """Decision-relevant record fields (telemetry asserted separately)."""
    return [
        (
            r.round_idx,
            tuple(r.contributor_ids),
            r.accepted,
            r.decision.reject_votes,
            dict(r.decision.client_votes),
            r.decision.server_vote,
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
            build_defended_sim(SequentialExecutor(cohort_size=1))
        )
        with make_engine(2) as engine:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(engine.executor)
            )
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_parent_fallback_clients_preserve_equivalence(self):
        """Clients with ``parallel_safe = False`` run in the parent but
        must not perturb the committed trajectory."""
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1))
        )
        with make_engine(2) as engine:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(engine.executor, home_client=1)
            )
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_empty_history_round_abstains_in_both_engines(self):
        """Regression: an unprimed defense reviews round 0 with an empty
        history; worker-side validation must abstain like the sequential
        path instead of crashing on the empty history."""
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1), prime=False), rounds=3
        )
        with make_engine(2) as engine:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(engine.executor, prime=False), rounds=3
            )
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_undefended_run_equivalence(self):
        model, clients, _, config = make_world()
        sims = []
        for workers in (0, 2):
            with make_engine(workers) as engine:
                sim = FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(3), executor=engine.executor,
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
        baseline = SequentialExecutor(cohort_size=1).run_clients(
            clients, ids, model, local, 0, streams
        )
        real_update = StayAtHomeClient.produce_update

        def parent_update(self, *args):
            events.append("parent")
            return real_update(self, *args)

        monkeypatch.setattr(StayAtHomeClient, "produce_update", parent_update)
        with make_engine(workers, engine=engine) as round_engine:
            executor = round_engine.executor
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
        with make_engine(2) as engine:
            sim = FederatedSimulation(
                model.clone(), clients, config,
                np.random.default_rng(3), executor=engine.executor,
            )
            sim.run_round()
            with pytest.raises(RuntimeError):
                engine.executor.bind(clients=clients)

    def test_executor_reuse_across_simulations_rejected(self):
        """One executor per simulation: a second bind of the same
        population must fail loudly, not silently retrain the wrong world."""
        model, clients, _, config = make_world()
        with make_engine(2) as engine:
            FederatedSimulation(
                model.clone(), clients, config,
                np.random.default_rng(3), executor=engine.executor,
            )
            with pytest.raises(RuntimeError, match="one executor per simulation"):
                FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(4), executor=engine.executor,
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
    """make_engine gives each engine its one store; a process pool refuses
    any store but the shared-memory arena."""

    def test_no_factory_or_config_takes_a_codec(self):
        """Every store holds the policy-dtype vector itself: no factory,
        store or config selects a weight codec any more."""
        from repro.experiments.configs import ExperimentConfig
        from repro.fl.model_store import make_model_store

        for build in (
            lambda: make_engine(0, codec="identity"),
            lambda: make_model_store(False, codec="identity"),
            lambda: InProcessModelStore(codec="identity"),
            lambda: ExperimentConfig(codec="identity"),
            lambda: ExperimentConfig(allow_lossy=True),
        ):
            with pytest.raises(TypeError):
                build()

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

        with make_engine(2) as engine:
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

    @pytest.mark.parametrize(
        "workers, engine, executor_cls, store_cls",
        [
            (0, "auto", SequentialExecutor, InProcessModelStore),
            (1, "process", SequentialExecutor, InProcessModelStore),
            (2, "auto", ProcessPoolRoundExecutor, SharedMemoryModelStore),
            (2, "process", ProcessPoolRoundExecutor, SharedMemoryModelStore),
            (2, "thread", ThreadPoolRoundExecutor, InProcessModelStore),
        ],
    )
    def test_make_engine_derives_store_from_engine(
        self, workers, engine, executor_cls, store_cls
    ):
        """One weight path per engine: only the process pool, whose
        workers live in other address spaces, gets the shared arena."""
        with make_engine(workers, engine=engine) as round_engine:
            assert type(round_engine.executor) is executor_cls
            assert type(round_engine.store) is store_cls
            assert round_engine.executor.store is round_engine.store
        assert round_engine.store.closed

    def test_process_executor_refuses_an_in_process_store(self):
        """The process engine's one weight path is the shared arena:
        binding an in-process store raises, directly, through
        ``make_executor`` or through a simulation's default store."""
        with pytest.raises(ValueError, match="make_engine"):
            make_executor(2, store=InProcessModelStore())
        model, clients, _, config = make_world()
        with ProcessPoolRoundExecutor(2) as executor:
            with pytest.raises(ValueError, match="make_engine"):
                executor.bind(store=InProcessModelStore())
            with pytest.raises(ValueError, match="make_engine"):
                FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(3), executor=executor,
                )

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


def shm_leftovers(store) -> list[str]:
    """``/dev/shm`` segments a store left behind (none for in-process)."""
    from tests.conftest import shm_entries

    prefix = getattr(store, "name_prefix", None)
    return shm_entries(prefix) if prefix else []


class TestStoreExecutorEquivalenceMatrix:
    """The spine of the engine: every {engine} x {workers} combination,
    each on the store ``make_engine`` gives it, commits bit-identical
    models and round records — Sequential and Thread on the in-process
    store, ProcessPool on shared memory.
    """

    @pytest.mark.parametrize(
        "workers, engine",
        [(1, "process"), (2, "process"), (4, "process"), (2, "thread"),
         (4, "thread")],
    )
    def test_bit_identical_commits(self, workers, engine):
        baseline_flat, baseline_records = run_and_snapshot(
            build_defended_sim(
                SequentialExecutor(cohort_size=1), store=InProcessModelStore()
            )
        )
        with make_engine(workers, engine=engine) as round_engine:
            flat, records = run_and_snapshot(
                build_defended_sim(round_engine.executor)
            )
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records
        assert shm_leftovers(round_engine.store) == []


class TestPhaseHandleHolds:
    """A vote phase holds every store version it shipped until its last
    task finished — also a straggler written off past the deadline, which
    keeps running after ``run_validators`` returned."""

    def _context(self, store, executor):
        from repro.core.validation import ValidationContext

        model, clients, _, _ = make_world()
        validator_pool = ValidatorPool.from_datasets(
            {c.client_id: c.dataset for c in clients}, min_history=4
        )
        executor.bind(
            clients=clients, template=model.clone(),
            validator_pool=validator_pool,
        )
        versions = [store.publish_new(model.get_flat()) for _ in range(6)]
        candidate_version = store.publish_new(model.get_flat())
        context = ValidationContext(
            candidate=model.clone(),
            history=[(v, model.clone()) for v in versions],
            candidate_version=candidate_version,
        )
        return validator_pool, context, versions + [candidate_version]

    def test_clean_phase_releases_its_holds(self):
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            pool, context, versions = self._context(store, executor)
            votes = executor.run_validators(
                pool, [0, 1], context, 0, RngStreams.from_seed(0)
            )
            assert set(votes) == {0, 1}
            assert all(store.refcount(v) == 1 for v in versions)
        assert shm_leftovers(store) == []

    def test_straggler_holds_outlive_the_phase_until_close(self):
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="delay@0.validate.0=1.0", task_deadline_s=0.2
        ) as executor:
            pool, context, versions = self._context(store, executor)
            votes = executor.run_validators(
                pool, [0, 1], context, 0, RngStreams.from_seed(0)
            )
            assert set(votes) == {0, 1}
            assert executor.resilience.straggler_reassignments == 1
            for version in versions:  # the server drops its own references
                store.release(version)
            assert all(v in store for v in versions)  # the straggler's holds
            executor.close()  # waits the straggler out, then releases
            assert store.versions() == []
            assert executor.resilience.abandoned_task_errors == 0
        assert shm_leftovers(store) == []


class TestPendingVotes:
    """The phase handle's release rules, on hand-driven futures: holds
    drop once, and only when no task of the phase runs any more."""

    @staticmethod
    def _handle(futures, gather=lambda: {0: 1}):
        log = {"cleanups": 0, "deferred": [], "errors": []}

        def cleanup():
            log["cleanups"] += 1

        handle = PendingVotes(
            gather, futures, cleanup, log["deferred"].append, log["errors"].append
        )
        return handle, log

    @staticmethod
    def _finished(result=None, error=None) -> Future:
        future = Future()
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
        return future

    def test_collect_gathers_once(self):
        calls = []

        def gather():
            calls.append(1)
            return {0: 1, 1: 0}

        handle, log = self._handle([self._finished()], gather)
        votes = handle.collect()
        assert votes == {0: 1, 1: 0}
        assert handle.collect() is votes
        assert len(calls) == 1
        assert log["cleanups"] == 1

    def test_finished_phase_releases_at_collect(self):
        handle, log = self._handle([self._finished(), self._finished()])
        handle.collect()
        assert handle.done()
        assert log["cleanups"] == 1
        assert log["deferred"] == []

    def test_running_task_defers_release_to_the_executor(self):
        straggler = Future()
        handle, log = self._handle([self._finished(), straggler])
        handle.collect()
        assert not handle.done()
        assert log["cleanups"] == 0
        assert log["deferred"] == [handle]
        handle.collect()  # still running: not deferred a second time
        assert log["deferred"] == [handle]

    def test_reap_releases_once_the_straggler_finished(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        assert handle.reap() is False
        assert log["cleanups"] == 0
        straggler.set_result(None)
        assert handle.reap() is True
        assert handle.reap() is True
        assert log["cleanups"] == 1

    def test_written_off_task_error_is_counted_at_release(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        error = RuntimeError("worker died after the deadline")
        straggler.set_exception(error)
        handle.reap()
        assert log["errors"] == [error]
        assert log["cleanups"] == 1

    def test_errors_of_a_settled_phase_are_not_counted_again(self):
        """A failed future the phase already settled (retried or replayed
        while gathering) is not an abandoned task's error."""
        handle, log = self._handle([self._finished(error=RuntimeError("lost"))])
        handle.collect()
        assert log["errors"] == []
        assert log["cleanups"] == 1

    def test_cancelled_straggler_counts_no_error(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        assert straggler.cancel()
        assert handle.reap() is True
        assert log["errors"] == []
        assert log["cleanups"] == 1

    def test_failed_gather_still_releases_the_holds(self):
        def gather():
            raise ValueError("quorum stalled")

        handle, log = self._handle([self._finished()], gather)
        for _ in range(2):
            with pytest.raises(ValueError, match="quorum stalled"):
                handle.collect()
        assert log["cleanups"] == 1

    def test_wait_blocks_until_the_tasks_finish(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        timer = threading.Timer(0.05, straggler.set_result, args=(None,))
        timer.start()
        try:
            handle.wait()
        finally:
            timer.join()
        assert handle.done()
        assert log["cleanups"] == 1


class TestSyncRoundLoop:
    """One synchronous loop: each round's decision is final before the
    next round trains, so a run split into bursts or single steps, on any
    engine, commits the trajectory of one ``run`` call."""

    @pytest.mark.parametrize(
        "workers, engine", [(0, "process"), (2, "process"), (2, "thread")]
    )
    def test_bursts_continue_where_the_last_one_stopped(self, workers, engine):
        baseline = build_defended_sim(SequentialExecutor(cohort_size=1))
        base_records = baseline.run(8)
        with make_engine(workers, engine=engine) as round_engine:
            sim = build_defended_sim(round_engine.executor)
            records = sim.run(3) + sim.run(5)
            np.testing.assert_array_equal(
                baseline.global_model.get_flat(), sim.global_model.get_flat()
            )
        assert snapshot(records) == snapshot(base_records)
        assert [r.round_idx for r in records] == list(range(8))
        assert shm_leftovers(round_engine.store) == []

    def test_run_round_steps_match_one_run(self):
        baseline = build_defended_sim(SequentialExecutor(cohort_size=1))
        base_records = baseline.run(4)
        sim = build_defended_sim(SequentialExecutor())
        records = [sim.run_round() for _ in range(4)]
        assert snapshot(records) == snapshot(base_records)
        assert sim.history == records
        assert sim.round_idx == 4


class TestForcedRejections:
    """Scripted rejections on the synchronous loop: a rejected round keeps
    the previous global model, its candidate never enters the history, the
    store or a profile cache, and every engine lands on the sequential
    trajectory."""

    ROUNDS = 8

    def _sequential(self, reject_rounds):
        sim = build_forced_sim(
            SequentialExecutor(cohort_size=1), reject_rounds=reject_rounds
        )
        records = sim.run(self.ROUNDS)
        return sim.global_model.get_flat(), snapshot(records)

    @staticmethod
    def _spy_staged(sim, monkeypatch) -> dict[int, int]:
        """``{round_idx: candidate version}`` for every reviewed round."""
        history = sim.defense.history
        staged: dict[int, int] = {}
        real_stage = history.stage_candidate

        def stage(model):
            staged[sim.round_idx] = real_stage(model)
            return staged[sim.round_idx]

        monkeypatch.setattr(history, "stage_candidate", stage)
        return staged

    @pytest.mark.parametrize("engine", ["thread", "process"])
    @pytest.mark.parametrize("reject_rounds", [(3,), (3, 4), (3, 5)])
    def test_engines_match_sequential(self, reject_rounds, engine):
        seq_flat, seq_records = self._sequential(reject_rounds)
        with make_engine(2, engine=engine) as round_engine:
            sim = build_forced_sim(
                round_engine.executor, reject_rounds=reject_rounds
            )
            records = sim.run(self.ROUNDS)
            np.testing.assert_array_equal(seq_flat, sim.global_model.get_flat())
        assert snapshot(records) == seq_records
        assert [r.round_idx for r in records if not r.accepted] == list(
            reject_rounds
        )
        assert shm_leftovers(round_engine.store) == []

    def test_rejected_round_keeps_the_previous_global_model(self):
        sim = build_forced_sim(SequentialExecutor(), reject_rounds=(2, 3))
        flats, windows = [], []
        for _ in range(5):
            sim.run_round()
            flats.append(sim.global_model.get_flat().copy())
            windows.append(sim.defense.history.versions())
        np.testing.assert_array_equal(flats[1], flats[2])
        np.testing.assert_array_equal(flats[2], flats[3])
        assert not np.array_equal(flats[3], flats[4])
        assert windows[1] == windows[2] == windows[3]
        assert windows[4] != windows[3]

    @pytest.mark.parametrize(
        "workers, engine", [(0, "process"), (2, "process"), (2, "thread")]
    )
    def test_rejected_candidates_leave_no_trace(self, workers, engine, monkeypatch):
        with make_engine(workers, engine=engine) as round_engine:
            sim = build_forced_sim(round_engine.executor, reject_rounds=(3, 5))
            staged = self._spy_staged(sim, monkeypatch)
            sim.run(self.ROUNDS)
            defense = sim.defense
            rejected = {staged[3], staged[5]}
            assert rejected.isdisjoint(defense.history.versions())
            assert all(v not in round_engine.store for v in rejected)
            table = defense.profile_table
            assert rejected.isdisjoint({key[1] for key in table._profiles})
            assert table.staged_count == 0
            validators = [
                *defense.validator_pool.as_dict().values(),
                defense.server_validator,
            ]
            for validator in validators:
                assert rejected.isdisjoint(validator._profile_cache)

    def test_store_holds_exactly_the_history_after_close(self):
        """The refcount audit: after a run with rejections and a closed
        executor, the store holds each retained history version once and
        nothing else."""
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            sim = build_forced_sim(executor, store=store, reject_rounds=(3, 5))
            sim.run(self.ROUNDS)
            executor.close()
            history = sim.defense.history
            assert store.versions() == history.versions()
            assert all(store.refcount(v) == 1 for v in history.versions())
        assert shm_leftovers(store) == []

    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_straggling_vote_in_a_rejected_round(self, engine):
        """A vote written off past the deadline in a round that is then
        rejected: its replay decides the round as the sequential run did,
        the discarded candidate stays readable for the straggler, and the
        closed executor has released every hold."""
        seq_flat, seq_records = self._sequential((3,))
        with make_engine(
            2, engine=engine, faults="delay@3.validate.0=1.0", task_deadline_s=0.2
        ) as round_engine:
            executor = round_engine.executor
            sim = build_forced_sim(executor, reject_rounds=(3,))
            records = sim.run(self.ROUNDS)
            np.testing.assert_array_equal(seq_flat, sim.global_model.get_flat())
            assert executor.resilience.straggler_reassignments >= 1
            executor.close()
            assert executor.resilience.abandoned_task_errors == 0
            assert round_engine.store.versions() == sim.defense.history.versions()
        assert snapshot(records) == seq_records
        assert shm_leftovers(round_engine.store) == []


class _ScriptedDefense:
    """A defense outside BaFFLe: the bare ``review``/``record_outcome``
    protocol, with the rejected rounds fixed in advance."""

    def __init__(self, reject_rounds=()):
        self.reject_rounds = frozenset(reject_rounds)
        self.outcomes: list[bool] = []

    def review(self, candidate, round_idx, rng):
        return DefenseDecision(accepted=round_idx not in self.reject_rounds)

    def record_outcome(self, candidate, accepted):
        self.outcomes.append(accepted)


class TestGenericDefenseOnEngines:
    @pytest.mark.parametrize("engine", ["process", "thread"])
    def test_scripted_defense_matches_sequential(self, engine):
        model, clients, _, config = make_world()
        flats = []
        for round_engine in (
            make_engine(0, cohort_size=1), make_engine(2, engine=engine)
        ):
            defense = _ScriptedDefense(reject_rounds=(1, 2))
            with round_engine:
                sim = FederatedSimulation(
                    model.clone(), clients, config, np.random.default_rng(3),
                    defense=defense, executor=round_engine.executor,
                )
                records = sim.run(5)
                flats.append(sim.global_model.get_flat())
            expected = [True, False, False, True, True]
            assert [r.accepted for r in records] == expected
            assert defense.outcomes == expected
        np.testing.assert_array_equal(flats[0], flats[1])


class TestFloat32EquivalenceMatrix:
    """The float32 policy's own contract, mirroring the float64 matrix:
    {Sequential, ProcessPool, Thread}, each engine on its own store,
    commit bit-identical *float32* models.  (float32 runs
    are a different trajectory from float64 by construction — the policy
    is part of the contract's scope, not a violation of it.)"""

    @pytest.mark.parametrize(
        "workers, engine", [(2, "process"), (2, "thread")]
    )
    def test_bit_identical_float32_commits(self, workers, engine):
        from repro.nn.precision import dtype_policy

        with dtype_policy("float32"):
            baseline_flat, baseline_records = run_and_snapshot(
                build_defended_sim(
                    SequentialExecutor(cohort_size=1), store=InProcessModelStore()
                )
            )
            assert baseline_flat.dtype == np.float32
            with make_engine(workers, engine=engine) as round_engine:
                flat, records = run_and_snapshot(
                    build_defended_sim(round_engine.executor)
                )
        assert flat.dtype == np.float32
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records
        assert shm_leftovers(round_engine.store) == []

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
        for round_engine in (
            make_engine(0, cohort_size=1), make_engine(workers, engine=engine)
        ):
            model, registry, config = self._registry_world()
            with round_engine:
                sim = FederatedSimulation(
                    model, registry, config, np.random.default_rng(3),
                    executor=round_engine.executor,
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

    def test_thread_engine_moves_no_bytes(self):
        """Threads read the parent's in-process store: nothing is copied."""
        with make_engine(2, engine="thread") as engine:
            records = build_defended_sim(engine.executor).run(4)
        assert all(r.transport_bytes == 0 for r in records)

    def test_shared_memory_transport_independent_of_history_and_fanout(self):
        """The acceptance criterion: shm bytes/round do not grow with the
        look-back window or the validator count."""
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


class TestWorkerMaterialization:
    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_worker_reads_segments_in_the_template_dtype(self, policy):
        """Arena segments carry only the vector's bytes: a worker reads a
        version back with its template's dtype and parameter count."""
        from repro.nn.precision import dtype_policy

        with dtype_policy(policy), SharedMemoryModelStore() as store:
            model, _, _, _ = make_world()
            version = store.publish(model.get_flat())
            with worker_globals(
                {}, {}, model.clone(), store.worker_handle()
            ) as parallel_mod:
                assert parallel_mod._W_DTYPE == np.dtype(policy)
                materialized = parallel_mod._materialize(version).get_flat()
        assert materialized.dtype == np.dtype(policy)
        np.testing.assert_array_equal(materialized, model.get_flat())


class TestWorkerTaskProfileFlow:
    """Exercise the worker-side task function in-process, over version keys
    into a real shared-memory arena: hints suppress recomputation,
    computed profiles flow back, caches evict retired versions."""

    @pytest.fixture
    def worker(self):
        """``(parallel module, store, model, validator)`` with the worker
        globals initialized in this process, attached to ``store``."""
        model, _, server_data, _ = make_world()
        validator = MisclassificationValidator(server_data, min_history=4)
        with SharedMemoryModelStore() as store, worker_globals(
            {}, {0: validator}, model.clone(), store.worker_handle()
        ) as parallel_mod:
            yield parallel_mod, store, model, validator

    @staticmethod
    def _publish(store, model, count, rng):
        """Versions of ``count`` perturbed copies of ``model``."""
        flat = model.get_flat()
        return [
            store.publish_new(flat + rng.normal(0.0, 1e-3, size=flat.shape))
            for _ in range(count)
        ]

    @staticmethod
    def _vote(parallel_mod, candidate, history, round_idx, seed, hints):
        """Validator 0's ``(vote, new_profiles, candidate_profile)``, voted
        by the worker's slice task as a one-validator slice."""
        (row,), _ = parallel_mod._validator_slice_task(
            [0], candidate, history, round_idx, [seed], {0: hints}, None
        )
        assert row[0] == 0
        return row[1:]

    def test_hints_suppress_recomputation_and_new_profiles_return(
        self, worker, rng
    ):
        from repro.core import validation as validation_mod

        parallel_mod, store, model, validator = worker
        history = self._publish(store, model, 6, rng)
        candidate = store.publish_new(model.get_flat())
        seed = np.random.SeedSequence(0)

        vote, new_profiles, candidate_profile = self._vote(
            parallel_mod, candidate, history, 0, seed, {}
        )
        assert vote in (0, 1)
        assert set(new_profiles) == set(history)
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

    def test_worker_caches_evict_retired_versions(self, worker, rng):
        parallel_mod, store, model, validator = worker
        versions = self._publish(store, model, 8, rng)
        candidate = store.publish_new(model.get_flat())
        seed = np.random.SeedSequence(0)
        self._vote(parallel_mod, candidate, versions[:6], 0, seed, {})
        # The window slides forward by two versions.
        self._vote(parallel_mod, candidate, versions[2:], 1, seed, {})
        assert set(parallel_mod._W_MODELS) == set(versions[2:]) | {candidate}
        assert set(validator._profile_cache) <= set(versions[2:])


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

    def test_parent_fallback_clients_preserve_equivalence(self):
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1))
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

        model, _, _, _ = make_world()
        store = SharedMemoryModelStore()
        with store, worker_globals(
            {}, {0: _OneVoteValidator(), 1: _OneVoteValidator()},
            model.clone(), store.worker_handle(),
        ) as parallel_mod:
            versions = [store.publish_new(model.get_flat()) for _ in range(7)]
            *history_versions, candidate_version = versions

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
                    vids, cand, hist, round_idx,
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


class TestStandaloneContextOnSharedStore:
    def test_unstaged_history_is_adopted_into_the_arena(self):
        """Regression: a context whose candidate/history never touched the
        executor's shared store (defense bound without a store) must still
        validate — history versions the arena lacks are adopted under their
        own versions, not shipped as dangling arena keys, and released with
        the phase's holds."""
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
            # Six adopted history models and the published candidate...
            assert store.bytes_published == 7 * model.get_flat().nbytes
            # ...all released once the phase's tasks finished.
            assert store.versions() == []


class BlasProbeClient(HonestClient):
    """Submits the BLAS thread count its update ran under, as the update."""

    def produce_update(self, global_model, config, round_idx, rng):
        return np.full(global_model.num_parameters, float(blas.thread_count()))


class ParentBlasProbeClient(BlasProbeClient):
    parallel_safe = False


class BlasProbeValidator(MisclassificationValidator):
    """Records the BLAS thread count each of its votes ran under."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counts: list[int] = []

    def vote(self, context, rng):
        self.counts.append(blas.thread_count())
        return super().vote(context, rng)


def build_probe_sim(executor, metric_hooks):
    """A ``mode="both"`` defended sim whose clients (client 1 parent-side)
    submit their BLAS count as their update, whose server validator records
    its count, and whose ``executor.run_clients`` keeps each round's
    client counts in ``sim.client_counts``."""
    model, clients, server_data, config = make_world()
    probes = [
        (ParentBlasProbeClient if c.client_id == 1 else BlasProbeClient)(
            c.client_id, c.dataset
        )
        for c in clients
    ]
    defense = BaffleDefense(
        BaffleConfig(lookback=4, quorum=2, num_validators=3, mode="both"),
        ValidatorPool.from_datasets(
            {c.client_id: c.dataset for c in clients}, min_history=4
        ),
        BlasProbeValidator(server_data, min_history=4),
    )
    defense.prime(model)
    sim = FederatedSimulation(
        model.clone(), probes, config, np.random.default_rng(8),
        defense=defense, metric_hooks=metric_hooks, executor=executor,
    )
    sim.client_counts = []
    run_clients = executor.run_clients

    def probed(*args):
        updates = run_clients(*args)
        sim.client_counts.append([float(update[0]) for update in updates])
        return updates

    executor.run_clients = probed
    return sim


ENGINES = pytest.mark.parametrize(
    "workers, engine", [(0, "process"), (2, "thread"), (2, "process")]
)


@pytest.mark.skipif(
    blas.BOUND is None, reason="no known OpenBLAS thread-count setter found"
)
class TestOneBlasThreadPerRound:
    """Every GEMM a round runs, on every engine, runs at one BLAS thread;
    the caller's count comes back after each round."""

    @ENGINES
    def test_every_probe_inside_a_round_reads_one(self, workers, engine):
        host = blas.thread_count()
        with make_engine(workers, engine=engine) as round_engine:
            sim = build_probe_sim(
                round_engine.executor, {"blas": lambda model: blas.thread_count()}
            )
            hook_counts = []
            for _ in range(6):
                hook_counts.append(sim.run_round().metrics["blas"])
                assert blas.thread_count() == host
        assert sim.client_counts == [[1.0] * 3] * 6
        server_counts = sim.defense.server_validator.counts
        assert server_counts and set(server_counts) == {1}
        assert hook_counts == [1] * 6
        assert blas.thread_count() == host

    @ENGINES
    def test_a_round_that_raises_restores_the_count(self, workers, engine):
        host = blas.thread_count()

        def failing(model):
            raise RuntimeError("metric hook failed")

        with make_engine(workers, engine=engine) as round_engine:
            sim = build_probe_sim(round_engine.executor, {"fail": failing})
            with pytest.raises(RuntimeError, match="metric hook failed"):
                sim.run_round()
            assert blas.thread_count() == host
        assert blas.thread_count() == host

    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_parent_keeps_its_count_across_defended_rounds(self, engine):
        host = blas.thread_count()
        with make_engine(2, engine=engine) as round_engine:
            sim = build_defended_sim(round_engine.executor)
            for _ in range(6):
                sim.run_round()
                assert blas.thread_count() == host
        assert blas.thread_count() == host

    def test_a_process_worker_holds_one_thread_from_its_initializer(self):
        """``_init_worker`` holds one thread, so it holds in every worker a
        pool (re)build starts, even a spawned one that inherits nothing."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.fl import parallel as parallel_mod

        model, _, _, _ = make_world()
        with SharedMemoryModelStore() as store, ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn"),
            initializer=parallel_mod._init_worker,
            initargs=({}, {}, model.clone(), store.worker_handle()),
        ) as pool:
            assert pool.submit(blas.thread_count).result() == 1


class TestAttackerNormsAcrossEngines:
    """Attackers that take a norm of their update commit the same bits on
    every engine and at any BLAS thread count.  Rounds run at one thread,
    but the same update taken outside a round runs at the host count, and
    ``np.linalg.norm`` of a CIFAR-sized update runs OpenBLAS ``dot``, whose
    sum OpenBLAS splits across threads above 10 000 elements."""

    @staticmethod
    def _world(make_attacker):
        from repro.data.synthetic_cifar import SyntheticCifar

        rng = np.random.default_rng(5)
        task = SyntheticCifar()
        pool = task.sample(6 * 32, rng)
        shards = [pool.subset(p) for p in iid_partition(len(pool), 6, rng)]
        clients = [HonestClient(i, shards[i]) for i in range(5)]
        clients.append(make_attacker(5, shards[5], task))
        model = make_mlp(task.flat_dim, task.num_classes, rng, hidden=(64,))
        assert model.num_parameters == 13_002  # the detect protocol's MLP
        config = FLConfig(num_clients=6, clients_per_round=6, local_epochs=1)
        return model, clients, config

    @staticmethod
    def _replacement(cid, shard, task):
        from repro.attacks.model_replacement import (
            ModelReplacementClient,
            ReplacementConfig,
        )
        from repro.attacks.semantic_backdoor import SemanticBackdoor

        replacement = ReplacementConfig(
            boost=6.0, poison_samples=16, attack_epochs=1, max_update_norm=0.5
        )
        return ModelReplacementClient(
            cid, shard, SemanticBackdoor(task), replacement, range(6)
        )

    @staticmethod
    def _random(cid, shard, task):
        from repro.attacks.untargeted import RandomUpdateClient

        return RandomUpdateClient(cid, shard, norm=0.5, attack_rounds=range(6))

    @pytest.mark.skipif(
        blas.BOUND is None, reason="no known OpenBLAS thread-count setter found"
    )
    @pytest.mark.parametrize("attacker", ["_replacement", "_random"])
    def test_update_has_the_same_bits_at_any_thread_count(self, attacker):
        """Outside a round the attacker runs at the host count; its update
        matches the same call at one thread.  About half of all 13 002-long
        vectors change their BLAS norm's last bit with the count, so eight
        draws catch a norm taken in BLAS."""
        model, clients, config = self._world(getattr(self, attacker))
        local = LocalTrainingConfig(epochs=1, batch_size=config.batch_size)

        def update(seed):
            return clients[5].produce_update(
                model, local, 0, np.random.default_rng(seed)
            )

        for seed in range(8):
            at_host = update(seed)
            with blas.limit(1):
                np.testing.assert_array_equal(at_host, update(seed))

    @pytest.mark.parametrize("attacker", ["_replacement", "_random"])
    def test_commits_match_across_engines(self, attacker):
        model, clients, config = self._world(getattr(self, attacker))

        def commit(workers=0, engine="process"):
            with make_engine(workers, engine=engine) as round_engine:
                sim = FederatedSimulation(
                    model.clone(), clients, config, np.random.default_rng(9),
                    executor=round_engine.executor,
                )
                sim.run(6)
            return sim.global_model.get_flat()

        baseline = commit()
        for engine in ("thread", "process"):
            np.testing.assert_array_equal(baseline, commit(2, engine))
