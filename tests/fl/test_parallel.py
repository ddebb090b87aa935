"""Tests for the parallel round engine and its keyed RNG streams.

The headline guarantee: a :class:`ThreadPoolRoundExecutor` run commits
**bit-identical** global models and round records to a
:class:`SequentialExecutor` run under the same seed, stacked or per-model.
Everything here defends that property.
"""

from __future__ import annotations

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
from repro.fl.model_store import ModelStore
from repro.fl.parallel import (
    PendingVotes,
    SequentialExecutor,
    ThreadPoolRoundExecutor,
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


def build_defended_sim(
    executor,
    seed: int = 7,
    home_client: int | None = None,
    prime: bool = True,
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
        defense=defense, executor=executor, tracer=tracer,
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
        defense=defense, executor=executor,
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

    def test_thread_engine_builds_a_thread_pool(self):
        with make_executor(2) as executor:
            assert isinstance(executor, ThreadPoolRoundExecutor)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            make_executor(-1)

    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            ThreadPoolRoundExecutor(1)


class TestSequentialParallelEquivalence:
    def test_defended_runs_commit_bit_identical_models_and_records(self):
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1))
        )
        with make_executor(2) as executor:
            par_flat, par_records = run_and_snapshot(build_defended_sim(executor))
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    @pytest.mark.parametrize("home_client", [0, 1, 3, 5])
    def test_parent_fallback_clients_preserve_equivalence(self, home_client):
        """Clients with ``parallel_safe = False`` run in the parent but
        must not perturb the committed trajectory."""
        seq_flat, seq_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1))
        )
        with make_executor(2) as executor:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(executor, home_client=home_client)
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
        with make_executor(2) as executor:
            par_flat, par_records = run_and_snapshot(
                build_defended_sim(executor, prime=False), rounds=3
            )
        np.testing.assert_array_equal(seq_flat, par_flat)
        assert seq_records == par_records

    def test_undefended_run_equivalence(self):
        model, clients, _, config = make_world()
        sims = []
        for workers in (0, 2):
            with make_executor(workers) as executor:
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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_slices_submit_before_parent_side_updates(self, workers, monkeypatch):
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
        with make_executor(workers) as executor:
            dispatcher = type(executor._dispatcher)
            real_submit = dispatcher.submit

            def submit(self, *args):
                events.append("submit")
                return real_submit(self, *args)

            monkeypatch.setattr(dispatcher, "submit", submit)
            updates = executor.run_clients(clients, ids, model, local, 0, streams)
        assert events[-1] == "parent"
        assert events.count("parent") == 1 and len(events) >= 2
        for a, b in zip(baseline, updates):
            np.testing.assert_array_equal(a, b)


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        executor = make_executor(2)
        executor.close()
        executor.close()


class TestEngineFactory:
    """``make_executor`` takes a worker count and the resilience knobs
    only: no engine kind, store or weight codec."""

    def test_no_factory_or_config_takes_a_codec(self):
        """Every store holds the policy-dtype vector itself: no factory,
        store or config selects a weight codec any more."""
        from repro.experiments.configs import ExperimentConfig

        for build in (
            lambda: make_executor(0, codec="identity"),
            lambda: ModelStore(codec="identity"),
            lambda: ExperimentConfig(codec="identity"),
            lambda: ExperimentConfig(allow_lossy=True),
        ):
            with pytest.raises(TypeError):
                build()

    def test_no_factory_takes_an_engine_kind_or_a_store(self):
        """Every round runs in the caller's address space: the executor
        needs no store, and the thread engine is the one multi-worker
        engine."""
        from repro.experiments.configs import ExperimentConfig

        model, clients, _, config = make_world()
        for build in (
            lambda: make_executor(2, engine="thread"),
            lambda: make_executor(0, store=ModelStore()),
            lambda: FederatedSimulation(
                model.clone(), clients, config, np.random.default_rng(3),
                model_store=ModelStore(),
            ),
        ):
            with pytest.raises(TypeError):
                build()
        for engine in ("process", "auto"):
            with pytest.raises(ValueError, match="engine"):
                ExperimentConfig(engine=engine)
        assert ExperimentConfig(engine="thread", workers=2).engine == "thread"


class TestEngineEquivalenceMatrix:
    """The spine of the engine: the per-model sequential reference, the
    stacking sequential engine (1 worker) and the thread engine commit
    bit-identical models and round records."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_commits(self, workers):
        baseline_flat, baseline_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1))
        )
        with make_executor(workers) as executor:
            flat, records = run_and_snapshot(build_defended_sim(executor))
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records


class TestStragglerHandles:
    """A vote written off past the deadline keeps running after
    ``run_validators`` returned: its phase handle waits on the executor's
    deferred-release list until the task finishes or the executor closes."""

    def test_straggler_handle_is_deferred_until_close(self):
        from repro.core.validation import ValidationContext

        model, clients, _, _ = make_world()
        validator_pool = ValidatorPool.from_datasets(
            {c.client_id: c.dataset for c in clients}, min_history=4
        )
        context = ValidationContext(
            candidate=model.clone(),
            history=[(v, model.clone()) for v in range(6)],
        )
        with make_executor(
            2, faults="delay@0.validate.0=1.0", task_deadline_s=0.2
        ) as executor:
            votes = executor.run_validators(
                validator_pool, [0, 1], context, 0, RngStreams.from_seed(0)
            )
            assert set(votes) == {0, 1}
            assert executor.resilience.straggler_reassignments == 1
            (pending,) = executor._abandoned
            assert not pending.done()
            executor.close()  # waits the straggler out, then releases
            assert pending.done() and executor._abandoned == []
            assert executor.resilience.abandoned_task_errors == 0


class TestPendingVotes:
    """The phase handle's release rules, on hand-driven futures: a handle
    releases once, and only when no task of the phase runs any more."""

    @staticmethod
    def _handle(futures, gather=lambda: {0: 1}):
        log = {"deferred": [], "errors": []}
        handle = PendingVotes(
            gather, futures, log["deferred"].append, log["errors"].append
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
        assert log["deferred"] == []

    def test_finished_phase_releases_at_collect(self):
        handle, log = self._handle([self._finished(), self._finished()])
        handle.collect()
        assert handle.done()
        assert log["deferred"] == []

    def test_running_task_defers_release_to_the_executor(self):
        straggler = Future()
        handle, log = self._handle([self._finished(), straggler])
        handle.collect()
        assert not handle.done()
        assert log["deferred"] == [handle]
        handle.collect()  # still running: not deferred a second time
        assert log["deferred"] == [handle]

    def test_reap_releases_once_the_straggler_finished(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        assert handle.reap() is False
        straggler.set_result(None)
        assert handle.reap() is True
        assert handle.reap() is True
        assert log["deferred"] == [handle]

    def test_written_off_task_error_is_counted_at_release(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        error = RuntimeError("task died after the deadline")
        straggler.set_exception(error)
        handle.reap()
        handle.reap()  # released once: counted once
        assert log["errors"] == [error]

    def test_errors_of_a_settled_phase_are_not_counted_again(self):
        """A failed future the phase already settled (retried or replayed
        while gathering) is not an abandoned task's error."""
        handle, log = self._handle([self._finished(error=RuntimeError("lost"))])
        handle.collect()
        assert log["errors"] == []
        assert log["deferred"] == []

    def test_cancelled_straggler_counts_no_error(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        assert straggler.cancel()
        assert handle.reap() is True
        assert log["errors"] == []

    def test_failed_gather_still_releases(self):
        def gather():
            raise ValueError("quorum stalled")

        straggler = Future()
        handle, log = self._handle([straggler], gather)
        for _ in range(2):
            with pytest.raises(ValueError, match="quorum stalled"):
                handle.collect()
        assert log["deferred"] == [handle]

    def test_wait_blocks_until_the_tasks_finish(self):
        straggler = Future()
        handle, log = self._handle([straggler])
        handle.collect()
        timer = threading.Timer(0.05, straggler.set_result, args=(None,))
        timer.start()
        try:
            handle.wait()
        finally:
            timer.join()
        assert handle.done()
        assert handle.reap() is True


class TestSyncRoundLoop:
    """One synchronous loop: each round's decision is final before the
    next round trains, so a run split into bursts or single steps, on any
    engine, commits the trajectory of one ``run`` call."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_bursts_continue_where_the_last_one_stopped(self, workers):
        baseline = build_defended_sim(SequentialExecutor(cohort_size=1))
        base_records = baseline.run(8)
        with make_executor(workers) as executor:
            sim = build_defended_sim(executor)
            records = sim.run(3) + sim.run(5)
            np.testing.assert_array_equal(
                baseline.global_model.get_flat(), sim.global_model.get_flat()
            )
        assert snapshot(records) == snapshot(base_records)
        assert [r.round_idx for r in records] == list(range(8))

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
    the previous global model, its candidate never enters the history, its
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

    @pytest.mark.parametrize("reject_rounds", [(3,), (3, 4), (3, 5)])
    def test_engines_match_sequential(self, reject_rounds):
        seq_flat, seq_records = self._sequential(reject_rounds)
        with make_executor(2) as executor:
            sim = build_forced_sim(executor, reject_rounds=reject_rounds)
            records = sim.run(self.ROUNDS)
            np.testing.assert_array_equal(seq_flat, sim.global_model.get_flat())
        assert snapshot(records) == seq_records
        assert [r.round_idx for r in records if not r.accepted] == list(
            reject_rounds
        )

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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_rejected_candidates_leave_no_trace(self, workers, monkeypatch):
        with make_executor(workers) as executor:
            sim = build_forced_sim(executor, reject_rounds=(3, 5))
            staged = self._spy_staged(sim, monkeypatch)
            sim.run(self.ROUNDS)
            defense = sim.defense
            rejected = {staged[3], staged[5]}
            assert rejected.isdisjoint(defense.history.versions())
            assert all(v not in defense.history.store for v in rejected)
            validators = [
                *defense.validator_pool.as_dict().values(),
                defense.server_validator,
            ]
            for validator in validators:
                assert rejected.isdisjoint(validator._profile_cache)

    def test_store_holds_exactly_the_history_after_close(self):
        """The refcount audit: after a run with rejections and a closed
        executor, the history's store holds each retained history version
        once and nothing else."""
        with make_executor(2) as executor:
            sim = build_forced_sim(executor, reject_rounds=(3, 5))
            sim.run(self.ROUNDS)
        history = sim.defense.history
        assert history.store.versions() == history.versions()
        assert all(history.store.refcount(v) == 1 for v in history.versions())

    def test_straggling_vote_in_a_rejected_round(self):
        """A vote written off past the deadline in a round that is then
        rejected: its replay decides the round as the sequential run did,
        and the closed executor waited the straggler out."""
        seq_flat, seq_records = self._sequential((3,))
        with make_executor(
            2, faults="delay@3.validate.0=1.0", task_deadline_s=0.2
        ) as executor:
            sim = build_forced_sim(executor, reject_rounds=(3,))
            records = sim.run(self.ROUNDS)
            np.testing.assert_array_equal(seq_flat, sim.global_model.get_flat())
            assert executor.resilience.straggler_reassignments >= 1
            executor.close()
            assert executor.resilience.abandoned_task_errors == 0
        history = sim.defense.history
        assert history.store.versions() == history.versions()
        assert snapshot(records) == seq_records


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
    def test_scripted_defense_matches_sequential(self):
        model, clients, _, config = make_world()
        flats = []
        for executor in (make_executor(0, cohort_size=1), make_executor(2)):
            defense = _ScriptedDefense(reject_rounds=(1, 2))
            with executor:
                sim = FederatedSimulation(
                    model.clone(), clients, config, np.random.default_rng(3),
                    defense=defense, executor=executor,
                )
                records = sim.run(5)
                flats.append(sim.global_model.get_flat())
            expected = [True, False, False, True, True]
            assert [r.accepted for r in records] == expected
            assert defense.outcomes == expected
        np.testing.assert_array_equal(flats[0], flats[1])


class TestFloat32EquivalenceMatrix:
    """The float32 policy's own contract, mirroring the float64 matrix:
    the per-model reference, the stacking sequential engine and the thread
    engine commit bit-identical *float32* models.  (float32 runs are a
    different trajectory from float64 by construction — the policy is part
    of the contract's scope, not a violation of it.)"""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_float32_commits(self, workers):
        from repro.nn.precision import dtype_policy

        with dtype_policy("float32"):
            baseline_flat, baseline_records = run_and_snapshot(
                build_defended_sim(SequentialExecutor(cohort_size=1))
            )
            assert baseline_flat.dtype == np.float32
            with make_executor(workers) as executor:
                flat, records = run_and_snapshot(build_defended_sim(executor))
        assert flat.dtype == np.float32
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records

class TestRegistryEngineEquivalence:
    """A virtual ClientRegistry population commits bit-identically under
    every engine — the calling thread materializes a round's clients before
    any pool thread runs."""

    def _registry_world(self, seed: int = 7):
        from repro.data.partition import iid_partition
        from repro.fl.registry import ClientRegistry
        from tests.fl.test_registry import PartsFactory

        rng = np.random.default_rng(seed)
        centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
        labels = np.tile(np.arange(3), 120)
        x = centers[labels] + rng.normal(0.0, 0.4, size=(len(labels), 2))
        pool = Dataset(x, labels, 3)
        parts = iid_partition(len(pool), 6, rng)
        registry = ClientRegistry(PartsFactory(pool, parts))
        model = make_mlp(2, 3, rng, hidden=(8,))
        config = FLConfig(num_clients=6, clients_per_round=3, local_epochs=1,
                          batch_size=16)
        return model, registry, config

    @pytest.mark.parametrize("workers", [0, 2])
    def test_registry_commits_match_sequential(self, workers):
        sims = []
        for executor in (make_executor(0, cohort_size=1), make_executor(workers)):
            model, registry, config = self._registry_world()
            with executor:
                sim = FederatedSimulation(
                    model, registry, config, np.random.default_rng(3),
                    executor=executor,
                )
                sim.run(4)
                sims.append(sim.global_model.get_flat())
        np.testing.assert_array_equal(sims[0], sims[1])


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


ENGINES = pytest.mark.parametrize("workers", [0, 2])


@pytest.mark.skipif(
    blas.BOUND is None, reason="no known OpenBLAS thread-count setter found"
)
class TestOneBlasThreadPerRound:
    """Every GEMM a round runs, on every engine, runs at one BLAS thread;
    the caller's count comes back after each round."""

    @ENGINES
    def test_every_probe_inside_a_round_reads_one(self, workers):
        host = blas.thread_count()
        with make_executor(workers) as executor:
            sim = build_probe_sim(
                executor, {"blas": lambda model: blas.thread_count()}
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
    def test_a_round_that_raises_restores_the_count(self, workers):
        host = blas.thread_count()

        def failing(model):
            raise RuntimeError("metric hook failed")

        with make_executor(workers) as executor:
            sim = build_probe_sim(executor, {"fail": failing})
            with pytest.raises(RuntimeError, match="metric hook failed"):
                sim.run_round()
            assert blas.thread_count() == host
        assert blas.thread_count() == host

    def test_parent_keeps_its_count_across_defended_rounds(self):
        host = blas.thread_count()
        with make_executor(2) as executor:
            sim = build_defended_sim(executor)
            for _ in range(6):
                sim.run_round()
                assert blas.thread_count() == host
        assert blas.thread_count() == host

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

        def commit(workers):
            with make_executor(workers) as executor:
                sim = FederatedSimulation(
                    model.clone(), clients, config, np.random.default_rng(9),
                    executor=executor,
                )
                sim.run(6)
            return sim.global_model.get_flat()

        np.testing.assert_array_equal(commit(0), commit(2))
