"""Tests for deterministic fault injection and the resilience layer.

The headline theorem under test: the sequential and thread engines commit
bit-identical models and decisions
*under injected crashes, stragglers, and dropped votes* — recovery is
retry-by-replay over per-``(round, entity)`` RNG streams, so a fault that
was absorbed leaves no trace in the committed trajectory (only in the
resilience ledger).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baffle import BaffleConfig, BaffleDefense, ValidatorPool
from repro.core.validation import MisclassificationValidator
from repro.fl.faults import (
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    ResilienceStats,
)
from repro.fl.parallel import SequentialExecutor, make_executor
from repro.fl.simulation import FederatedSimulation
from repro.obs.trace import Tracer
from tests.fl.test_parallel import (
    build_defended_sim,
    make_world,
    run_and_snapshot,
    snapshot,
)


class TestFaultGrammar:
    def test_parse_roundtrips(self):
        spec = "crash@3.train;delay@4.validate.1=0.3;drop@5.vote.7"
        plan = FaultPlan.parse(spec)
        assert str(plan) == spec
        assert plan.specs == (
            FaultSpec("crash", 3, "train"),
            FaultSpec("delay", 4, "validate", index=1, param=0.3),
            FaultSpec("drop", 5, "vote", index=7),
        )

    def test_comma_and_semicolon_both_separate(self):
        plan = FaultPlan.parse("crash@1.train, crash@2.validate ;delay@3.train=1")
        assert len(plan.specs) == 3

    def test_none_and_empty_parse_to_the_empty_plan(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; ")
        assert not FaultPlan.empty()

    def test_existing_plan_passes_through(self):
        plan = FaultPlan.parse("crash@1.train")
        assert FaultPlan.parse(plan) is plan

    @pytest.mark.parametrize("bad, why", [
        ("explode@1.train", "unknown fault kind"),
        ("crash@1", "expected"),
        ("crash@1.vote", "task phase"),
        ("crash@1.train=2", "only delay"),
        ("drop@1.train.2", "target votes"),
        ("drop@1.vote", "validator id"),
        ("crash@one.train", "expected"),
    ])
    def test_bad_entries_rejected_with_context(self, bad, why):
        with pytest.raises(ValueError, match=why):
            FaultPlan.parse(bad)


class TestFaultPlanSemantics:
    def test_take_is_one_shot(self):
        plan = FaultPlan.parse("crash@2.train.1")
        assert plan.take("crash", 2, "train", 1) is not None
        assert plan.take("crash", 2, "train", 1) is None

    def test_omitted_index_matches_slot_zero_only(self):
        plan = FaultPlan.parse("delay@2.validate=0.5")
        assert plan.take("delay", 2, "validate", 1) is None
        taken = plan.take("delay", 2, "validate", 0)
        assert taken is not None and taken.param == 0.5

    def test_take_filters_on_kind_round_and_phase(self):
        plan = FaultPlan.parse("crash@2.train")
        assert plan.take("delay", 2, "train", 0) is None
        assert plan.take("crash", 3, "train", 0) is None
        assert plan.take("crash", 2, "validate", 0) is None
        assert plan.take("crash", 2, "train", 0) is not None

    def test_dropped_is_pure_and_per_round(self):
        plan = FaultPlan.parse("drop@5.vote.7;drop@5.vote.2;drop@6.vote.1")
        assert plan.dropped(5) == frozenset({2, 7})
        # Pure: asking again for the round sees the identical loss.
        assert plan.dropped(5) == frozenset({2, 7})
        assert plan.dropped(4) == frozenset()


class TestUnfiredEntries:
    """A crash/delay entry whose dispatch slot never exists in a run is
    reported, not silently dropped."""

    def test_unfired_lists_unconsumed_crash_and_delay_entries(self):
        plan = FaultPlan.parse("crash@1.train;delay@2.validate.3=0.1;drop@1.vote.2")
        assert plan.unfired() == plan.specs[:2]
        assert plan.take("crash", 1, "train", 0) is not None
        assert [str(spec) for spec in plan.unfired()] == ["delay@2.validate.3=0.1"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_missing_slot_warns_once_at_close(self, workers):
        with pytest.warns(RuntimeWarning, match=r"crash@1\.train\.99") as caught:
            with make_executor(workers, faults="crash@1.train.99") as executor:
                build_defended_sim(executor).run(3)
            executor.close()  # idempotent: no second warning
        assert sum("never fired" in str(w.message) for w in caught) == 1
        assert [str(s) for s in executor.fault_plan.unfired()] == [
            "crash@1.train.99"
        ]
        assert executor.resilience.total() == 0


class TestResilienceStats:
    def test_counters_accumulate_and_snapshot(self):
        stats = ResilienceStats()
        assert stats.total() == 0
        assert stats.inc("retries") == 1
        assert stats.inc("retries", 2) == 3
        stats.inc("dropped_votes")
        assert stats.as_dict()["retries"] == 3
        assert stats.total() == 4

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError, match="unknown resilience counter"):
            ResilienceStats().inc("typo_counter")


class TestBindFaults:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="task_deadline_s"):
            SequentialExecutor().bind_faults(task_deadline_s=0)

    def test_spec_strings_are_parsed_at_bind(self):
        executor = SequentialExecutor()
        executor.bind_faults(plan="crash@1.train")
        assert isinstance(executor.fault_plan, FaultPlan)
        with pytest.raises(ValueError, match="fault"):
            executor.bind_faults(plan="explode@1.train")

    def test_injected_worker_crash_is_a_runtime_error(self):
        assert issubclass(InjectedWorkerCrash, RuntimeError)


def _baseline():
    return run_and_snapshot(build_defended_sim(SequentialExecutor(cohort_size=1)))


class TestEngineRecovery:
    """Per-engine recovery semantics: the fault fires, the ledger records
    it, and the committed trajectory is bit-identical to fault-free."""

    def test_sequential_consumes_crash_and_delay_inline(self):
        base_flat, base_records = _baseline()
        with SequentialExecutor() as executor:
            executor.bind_faults(plan="crash@1.train;delay@2.validate=0.01")
            flat, records = run_and_snapshot(build_defended_sim(executor))
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] == 1

    def test_thread_crash_retries_and_straggler_recomputes(self):
        base_flat, base_records = _baseline()
        with make_executor(
            2, faults="crash@1.train;crash@2.validate.1;delay@4.validate.0=1.5",
            task_deadline_s=0.5,
        ) as executor:
            flat, records = run_and_snapshot(build_defended_sim(executor))
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] >= 2
        assert stats["straggler_reassignments"] >= 1

    def test_retry_budget_spent_replays_on_the_calling_thread(self):
        """Three crashes of one slot outlast the retry budget: the slice
        replays on the calling thread, fault-free, and no pool is rebuilt
        for an in-task crash."""
        base_flat, base_records = _baseline()
        tracer = Tracer()
        with make_executor(
            2, faults="crash@1.train;crash@1.train;crash@1.train"
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, tracer=tracer)
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] == 3
        assert stats["pool_rebuilds"] == 0
        replays = [
            s for s in tracer.finalized_spans() if s.name == "recover.local_replay"
        ]
        assert len(replays) == 1

    def test_thread_pool_refusing_work_demotes_to_inline(self, monkeypatch):
        """The degradation ladder: a thread pool that refuses every task is
        rebuilt until the budget is spent, then slices run inline for the
        rest of the run — one ledger records all of it, and the trajectory
        still matches fault-free sequential."""
        from concurrent.futures import ThreadPoolExecutor

        base_flat, base_records = _baseline()

        def refuse(self, *args, **kwargs):
            raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
        tracer = Tracer()
        with make_executor(2) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, tracer=tracer)
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["pool_rebuilds"] == 3
        assert stats["engine_demotions"] == 1
        demotions = [
            s for s in tracer.finalized_spans()
            if s.name == "resilience.engine_demotions"
        ]
        assert [s.attrs["to"] for s in demotions] == ["inline"]


def build_policy_sim(executor, policy="strict", quorum_min=1):
    """A defended sim whose quorum policy is explicit (drop-fault tests)."""
    model, clients, server_data, config = make_world()
    pool = ValidatorPool.from_datasets(
        {c.client_id: c.dataset for c in clients}, min_history=4
    )
    defense = BaffleDefense(
        BaffleConfig(
            lookback=4, quorum=2, num_validators=3, mode="both",
            quorum_policy=policy, quorum_min=quorum_min,
        ),
        pool,
        MisclassificationValidator(server_data, min_history=4),
    )
    defense.prime(model)
    return FederatedSimulation(
        model.clone(), clients, config, np.random.default_rng(8),
        defense=defense, executor=executor,
    )


#: One of round 3's sampled validators in the ``build_policy_sim`` world
#: (seed-deterministic); dropping its vote shrinks that quorum to 2.
DROPPED_ROUND, DROPPED_VALIDATOR = 3, 3

#: The chaos plan the equivalence matrix runs under: a training-task
#: crash, a validation straggler, a dropped vote, and a validation crash.
CHAOS_FAULTS = (
    f"crash@1.train;delay@2.validate.0=1.5;"
    f"drop@{DROPPED_ROUND}.vote.{DROPPED_VALIDATOR};crash@5.validate"
)


class TestEquivalenceUnderFaults:
    """The acceptance matrix: the thread engine, under crashes, stragglers,
    and a dropped vote (quorum policy ``degrade``), commits bit-identical
    models and accept decisions to the fault-free per-model sequential
    baseline."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        with SequentialExecutor(cohort_size=1) as executor:
            sim = build_policy_sim(executor)
            records = sim.run(8)
            flat = sim.global_model.get_flat()
        return flat, [
            (r.round_idx, tuple(r.contributor_ids), r.accepted)
            for r in records
        ]

    def test_faulty_run_matches_fault_free_baseline(self, fault_free):
        base_flat, base_decisions = fault_free
        with make_executor(
            2, faults=CHAOS_FAULTS, task_deadline_s=0.5,
        ) as executor:
            sim = build_policy_sim(executor, policy="degrade")
            records = sim.run(8)
            flat = sim.global_model.get_flat()
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert [
            (r.round_idx, tuple(r.contributor_ids), r.accepted)
            for r in records
        ] == base_decisions
        # The faults really fired: recovery left its marks in the ledger,
        # not in the trajectory.
        assert stats["retries"] > 0
        assert stats["straggler_reassignments"] >= 1
        assert stats["dropped_votes"] == 1
        assert stats["quorum_degradations"] == 1
        # The shrunken quorum is visible on the record, with the dropped
        # validator absent from the vote map.
        dropped = records[DROPPED_ROUND]
        assert dropped.quorum_size == 2
        assert dropped.decision.quorum_degraded
        assert DROPPED_VALIDATOR not in dropped.decision.client_votes


class TestFaultMatrix:
    """Each crash placement, on each engine, costs one retry per planned
    crash, is charged to the round it hit, and leaves the committed
    trajectory where the fault-free run put it."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("plan, crash_round, retries", [
        ("crash@0.train", 0, 1),
        ("crash@1.validate.2", 1, 1),
        ("crash@4.train;crash@4.validate", 4, 2),
        ("crash@6.validate.1;crash@6.validate.1", 6, 2),
    ])
    def test_crashes_are_absorbed_in_their_round(
        self, workers, plan, crash_round, retries
    ):
        base_flat, base_records = _baseline()
        with make_executor(workers, faults=plan) as executor:
            sim = build_defended_sim(executor)
            records = sim.run(8)
            flat = sim.global_model.get_flat()
            stats = executor.resilience.as_dict()
            assert executor.fault_plan.unfired() == ()
        np.testing.assert_array_equal(base_flat, flat)
        assert snapshot(records) == base_records
        assert stats["retries"] == retries
        assert stats["pool_rebuilds"] == stats["engine_demotions"] == 0
        assert [r.retries for r in records] == [
            retries if r.round_idx == crash_round else 0 for r in records
        ]


class TestDroppedVotesOnEngines:
    """Vote loss is a pure function of the round: both engines see the
    same loss, and a drop naming a validator the round did not sample
    changes nothing."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_strict_policy_stalls_on_either_engine(self, workers):
        from repro.fl.faults import QuorumStallError

        drop = f"drop@{DROPPED_ROUND}.vote.{DROPPED_VALIDATOR}"
        with make_executor(workers, faults=drop) as executor:
            sim = build_policy_sim(executor, policy="strict")
            with pytest.raises(QuorumStallError, match="strict"):
                sim.run(8)
        assert sim.round_idx == DROPPED_ROUND

    @pytest.mark.parametrize("workers", [0, 2])
    def test_degraded_quorum_is_identical_across_engines(self, workers):
        drop = f"drop@{DROPPED_ROUND}.vote.{DROPPED_VALIDATOR}"
        with make_executor(0, cohort_size=1, faults=drop) as executor:
            reference = build_policy_sim(executor, policy="degrade").run(8)
        with make_executor(workers, faults=drop) as executor:
            sim = build_policy_sim(executor, policy="degrade")
            records = sim.run(8)
            stats = executor.resilience.as_dict()
        assert [r.decision for r in records] == [r.decision for r in reference]
        assert [r.quorum_size for r in records] == [
            r.quorum_size for r in reference
        ]
        assert (stats["dropped_votes"], stats["quorum_degradations"]) == (1, 1)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_dropping_an_unsampled_validator_changes_nothing(self, workers):
        with make_executor(0, cohort_size=1) as executor:
            reference = build_policy_sim(executor, policy="strict").run(8)
        sampled = set(reference[DROPPED_ROUND].decision.client_votes)
        absent = min(set(range(6)) - sampled)
        with make_executor(
            workers, faults=f"drop@{DROPPED_ROUND}.vote.{absent}"
        ) as executor:
            records = build_policy_sim(executor, policy="strict").run(8)
            assert executor.resilience.total() == 0
        assert snapshot(records) == snapshot(reference)
