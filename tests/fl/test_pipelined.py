"""Tests for the pipelined round loop: optimistic commit, rollback, replay.

The headline guarantee extends PR 2's: a pipelined run — any
``pipeline_depth``, any engine, any worker count, even runs containing
rollbacks — commits **bit-identical** global models and defense decisions
to the synchronous sequential engine.  Rollback edge cases get dedicated
coverage: a rejection arriving after later rounds already built on the
optimistic commit, history eviction while in-flight validators still hold
version references, and back-to-back rollbacks exhausting the pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baffle import (
    BaffleConfig,
    BaffleDefense,
    ForcedRejectDefense,
    ValidatorPool,
)
from repro.core.validation import MisclassificationValidator
from repro.fl.model_store import InProcessModelStore, SharedMemoryModelStore
from repro.fl.parallel import SequentialExecutor, make_executor
from repro.fl.simulation import DefenseDecision, FederatedSimulation
from tests.fl.test_parallel import build_defended_sim, make_world, shm_leftovers

ROUNDS = 8


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


class TestPipelinedDepthEquivalence:
    """Any depth — not just the degenerate 0 — commits bit-identically:
    replay after rollback restores exactly the synchronous trajectory."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_depth_matches_sequential(self, depth, workers):
        baseline = build_defended_sim(SequentialExecutor())
        baseline_records = baseline.run(ROUNDS)
        store = SharedMemoryModelStore() if workers else InProcessModelStore()
        with store, make_executor(
            workers, store=store, mode="pipelined", pipeline_depth=depth
        ) as executor:
            sim = build_defended_sim(executor, store=store)
            records = sim.run(ROUNDS)
            np.testing.assert_array_equal(
                baseline.global_model.get_flat(), sim.global_model.get_flat()
            )
        assert snapshot(baseline_records) == snapshot(records)

    def test_two_bursts_continue_where_the_first_drained(self):
        baseline = build_defended_sim(SequentialExecutor())
        base_records = baseline.run(ROUNDS)
        with make_executor(0, mode="pipelined", pipeline_depth=2) as executor:
            sim = build_defended_sim(executor)
            records = sim.run(ROUNDS // 2) + sim.run(ROUNDS - ROUNDS // 2)
            np.testing.assert_array_equal(
                baseline.global_model.get_flat(), sim.global_model.get_flat()
            )
        assert snapshot(base_records) == snapshot(records)

    def test_run_round_steps_the_pipeline(self):
        baseline = build_defended_sim(SequentialExecutor())
        base_records = [baseline.run_round() for _ in range(4)]
        with make_executor(0, mode="pipelined", pipeline_depth=2) as executor:
            sim = build_defended_sim(executor)
            records = [sim.run_round() for _ in range(4)]
        assert snapshot(base_records) == snapshot(records)


class TestForcedRollback:
    """A late rejection rolls the speculative suffix back and replays it."""

    def _sync_snapshot(self, reject_rounds, lookback=4):
        sim = build_forced_sim(
            SequentialExecutor(), reject_rounds=reject_rounds, lookback=lookback
        )
        records = sim.run(ROUNDS)
        return sim.global_model.get_flat(), snapshot(records)

    def test_reject_after_commit_was_built_upon(self):
        """Rounds 4 and 5 speculate on round 3's optimistic commit; its
        forced rejection must unwind and replay them — landing on the
        synchronous trajectory exactly."""
        sync_flat, sync_records = self._sync_snapshot(reject_rounds=(3,))
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, mode="pipelined", pipeline_depth=2
        ) as executor:
            sim = build_forced_sim(executor, store=store, reject_rounds=(3,))
            records = sim.run(ROUNDS)
            np.testing.assert_array_equal(sync_flat, sim.global_model.get_flat())
            assert snapshot(records) == sync_records
            replayed = {r.round_idx: r.rollback_count for r in records}
            assert replayed[3] == 0  # the rejected round itself is final
            assert replayed[4] == 1 and replayed[5] == 1  # its speculation
            assert not sim.defense.history.provisional_versions()
        assert shm_leftovers(store) == []

    def test_reject_after_commit_with_thread_engine(self):
        """The zero-IPC thread engine unwinds speculation identically:
        abandoned vote futures just finish and drop their results, and the
        replayed suffix lands on the synchronous trajectory."""
        sync_flat, sync_records = self._sync_snapshot(reject_rounds=(3,))
        store = InProcessModelStore()
        with make_executor(
            2, store=store, mode="pipelined", pipeline_depth=2, engine="thread"
        ) as executor:
            sim = build_forced_sim(executor, store=store, reject_rounds=(3,))
            records = sim.run(ROUNDS)
            np.testing.assert_array_equal(sync_flat, sim.global_model.get_flat())
            assert snapshot(records) == sync_records
            replayed = {r.round_idx: r.rollback_count for r in records}
            assert replayed[4] == 1 and replayed[5] == 1
            assert not sim.defense.history.provisional_versions()

    def test_back_to_back_rollbacks_with_thread_engine(self):
        sync_flat, sync_records = self._sync_snapshot(reject_rounds=(3, 4))
        with make_executor(
            2, mode="pipelined", pipeline_depth=2, engine="thread"
        ) as executor:
            sim = build_forced_sim(executor, reject_rounds=(3, 4))
            records = sim.run(ROUNDS)
            np.testing.assert_array_equal(sync_flat, sim.global_model.get_flat())
        assert snapshot(records) == sync_records

    def test_back_to_back_rollbacks_exhaust_pipeline(self):
        """Consecutive rejections: round 4's replay is itself rejected,
        so round 5 is rolled back twice and round 6 once more — every
        speculative slot of the depth-2 pipeline unwinds at least once."""
        sync_flat, sync_records = self._sync_snapshot(reject_rounds=(3, 4))
        with make_executor(
            0, mode="pipelined", pipeline_depth=2
        ) as executor:
            sim = build_forced_sim(executor, reject_rounds=(3, 4))
            records = sim.run(ROUNDS)
            np.testing.assert_array_equal(sync_flat, sim.global_model.get_flat())
        assert snapshot(records) == sync_records
        replayed = {r.round_idx: r.rollback_count for r in records}
        assert replayed[4] == 1  # rolled back by round 3's rejection
        assert replayed[5] == 2  # by round 3's and round 4's
        assert replayed[6] == 1  # by round 4's

    def test_no_leaked_store_versions_after_rollback(self):
        """The acceptance-criterion refcount audit: after a run containing
        rollbacks, the store holds exactly the retained history versions —
        every withdrawn version, straggler reference, staged profile and
        parked eviction has been released."""
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, mode="pipelined", pipeline_depth=2
        ) as executor:
            sim = build_forced_sim(executor, store=store, reject_rounds=(3, 5))
            records = sim.run(ROUNDS)
            assert sum(r.rollback_count for r in records) > 0
            executor.close()  # releases the executor's held global reference
            history = sim.defense.history
            assert store.versions() == history.versions()
            assert all(store.refcount(v) == 1 for v in history.versions())
            assert sim.defense.profile_table.staged_count == 0
            table_versions = {
                key[1] for key in sim.defense.profile_table._profiles
            }
            assert table_versions <= set(history.versions())
        assert shm_leftovers(store) == []

    def test_eviction_during_open_pipeline_with_inflight_refs(self):
        """The minimum-size look-back window (5 retained models) with a
        depth-3 pipeline: optimistic commits displace history entries
        while validator futures still reference them.  Deferred eviction
        plus per-task store references must keep every in-flight version
        resolvable — the run completes, matches sync, and leaks nothing."""
        sync_flat, sync_records = self._sync_snapshot(
            reject_rounds=(4,), lookback=4
        )
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, mode="pipelined", pipeline_depth=3
        ) as executor:
            sim = build_forced_sim(
                executor, store=store, reject_rounds=(4,), lookback=4
            )
            records = sim.run(ROUNDS)
            np.testing.assert_array_equal(sync_flat, sim.global_model.get_flat())
            assert snapshot(records) == sync_records
            executor.close()
            assert store.versions() == sim.defense.history.versions()
        assert shm_leftovers(store) == []

    def test_rollback_invalidates_validator_profile_caches(self):
        """rollback_review drops the withdrawn versions from every
        in-parent validator's profile cache (and the shared table)."""
        from repro.fl.rng import RngStreams

        model, clients, server_data, _ = make_world()
        validator_pool = ValidatorPool.from_datasets(
            {c.client_id: c.dataset for c in clients}, min_history=4
        )
        defense = BaffleDefense(
            BaffleConfig(lookback=4, quorum=2, num_validators=3, mode="both"),
            validator_pool,
            MisclassificationValidator(server_data, min_history=4),
        )
        defense.prime(model)
        executor = SequentialExecutor()
        defense.bind_runtime(executor=executor, streams=RngStreams.from_seed(0))
        pending = defense.review_async(
            model.clone(), 0, np.random.default_rng(0)
        )
        version = defense.commit_optimistic(pending)
        # Pretend validators profiled the provisional version meanwhile.
        defense.server_validator._profile_cache[version] = "stale"
        victim = validator_pool.get(0)
        victim._profile_cache[version] = "stale"
        defense.profile_table.put(1, version, "stale")
        assert defense.rollback_review(pending) == [version]
        assert version not in defense.server_validator._profile_cache
        assert version not in victim._profile_cache
        assert defense.profile_table.get(1, version) is None


class TestPipelinedTelemetry:
    def test_sync_records_report_zero_lag(self):
        sim = build_defended_sim(SequentialExecutor())
        for record in sim.run(4):
            assert record.accepted_at_round == record.round_idx
            assert record.validation_lag == 0
            assert record.rollback_count == 0

    def test_steady_state_lag_equals_depth(self):
        with make_executor(0, mode="pipelined", pipeline_depth=2) as executor:
            sim = build_defended_sim(executor)
            records = sim.run(ROUNDS)
        # The defended world reviews from round 0; mid-run rounds resolve
        # exactly pipeline_depth rounds after aggregation, the tail drains.
        lags = [r.validation_lag for r in records]
        assert lags[:-2] == [2] * (ROUNDS - 2)
        assert lags[-2:] == [1, 0]
        for record in records:
            assert record.accepted_at_round == record.round_idx + record.validation_lag

    def test_execution_report_renders_lag_and_replays(self):
        from repro.experiments.reporting import format_execution_report

        with make_executor(0, mode="pipelined", pipeline_depth=2) as executor:
            sim = build_forced_sim(executor, reject_rounds=(3,))
            records = sim.run(ROUNDS)
        report = format_execution_report(records)
        assert "validation lag" in report
        assert "rollback replays" in report
        assert format_execution_report([]) == "execution report: no rounds"


class _ScriptedDefense:
    """A defense without the async protocol (resolves at round boundary)."""

    def __init__(self, reject_rounds=()):
        self.reject_rounds = set(reject_rounds)
        self.outcomes = []

    def review(self, candidate, round_idx, rng):
        return DefenseDecision(accepted=round_idx not in self.reject_rounds)

    def record_outcome(self, candidate, accepted):
        self.outcomes.append(accepted)


class TestPipelinedWithoutAsyncDefense:
    def test_generic_defense_degrades_to_sync_semantics(self):
        model, clients, _, config = make_world()
        flats = []
        for executor in (
            SequentialExecutor(),
            make_executor(0, mode="pipelined", pipeline_depth=2),
        ):
            with executor:
                sim = FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(3),
                    defense=_ScriptedDefense(reject_rounds=(1, 2)),
                    executor=executor,
                )
                records = sim.run(5)
                flats.append(sim.global_model.get_flat())
        np.testing.assert_array_equal(flats[0], flats[1])
        assert [r.accepted for r in records] == [True, False, False, True, True]

    def test_undefended_pipelined_matches_sequential(self):
        model, clients, _, config = make_world()
        flats = []
        for executor in (
            SequentialExecutor(),
            make_executor(0, mode="pipelined", pipeline_depth=3),
        ):
            with executor:
                sim = FederatedSimulation(
                    model.clone(), clients, config,
                    np.random.default_rng(3), executor=executor,
                )
                sim.run(4)
                flats.append(sim.global_model.get_flat())
        np.testing.assert_array_equal(flats[0], flats[1])


class TestPendingVotesLifecycle:
    """Deferred release: abandoned in-flight votes must not unlink segments
    under straggler tasks, and must release their references eventually."""

    def _submitted_pending(self, store, executor):
        from repro.core.validation import ValidationContext
        from repro.fl.rng import RngStreams

        model, clients, server_data, config = make_world()
        validator_pool = ValidatorPool.from_datasets(
            {c.client_id: c.dataset for c in clients}, min_history=4
        )
        executor.bind(
            clients=clients, template=model.clone(),
            validator_pool=validator_pool,
        )
        versions = [store.publish_new(model.get_flat()) for _ in range(6)]
        history = [(v, model.clone()) for v in versions]
        candidate_version = store.publish_new(model.get_flat())
        context = ValidationContext(
            candidate=model.clone(), history=history,
            candidate_version=candidate_version,
        )
        pending = executor.submit_validators(
            validator_pool, [0, 1], context, 0, RngStreams.from_seed(0)
        )
        return pending, versions + [candidate_version]

    def test_collect_releases_task_references(self):
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            pending, versions = self._submitted_pending(store, executor)
            assert all(store.refcount(v) == 2 for v in versions)
            votes = pending.collect()
            assert set(votes) == {0, 1}
            assert votes == pending.collect()  # idempotent
            assert all(store.refcount(v) == 1 for v in versions)

    def test_abandoned_references_release_by_close(self):
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            pending, versions = self._submitted_pending(store, executor)
            pending.abandon()
            with pytest.raises(RuntimeError, match="abandoned"):
                pending.collect()
            executor.close()  # waits out stragglers, drains deferred list
            assert all(store.refcount(v) == 1 for v in versions)
            for version in versions:
                store.release(version)
            assert store.versions() == []
        assert shm_leftovers(store) == []

    def test_rolled_back_candidate_stays_readable_for_stragglers(self):
        """Releasing the server's references to a withdrawn version while
        its votes are in flight must not break the straggler tasks."""
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store) as executor:
            pending, versions = self._submitted_pending(store, executor)
            for version in versions:  # the "history rollback": server drops
                store.release(version)
            assert all(v in store for v in versions)  # tasks hold them
            votes = pending.collect()
            assert set(votes) == {0, 1}
            assert store.versions() == []
        assert shm_leftovers(store) == []
