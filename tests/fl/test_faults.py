"""Tests for deterministic fault injection and the resilience layer.

The headline theorem under test: the full ``{sequential, pool, thread}``
matrix commits bit-identical models and decisions
*under injected crashes, stragglers, and dropped votes* — recovery is
retry-by-replay over per-``(round, entity)`` RNG streams, so a fault that
was absorbed leaves no trace in the committed trajectory (only in the
resilience ledger).
"""

from __future__ import annotations

import os
import subprocess
import sys

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
from repro.fl.model_store import (
    SHM_NAME_PREFIX,
    InProcessModelStore,
    SharedMemoryModelStore,
    reap_orphan_segments,
)
from repro.fl.parallel import SequentialExecutor, make_engine, make_executor
from repro.fl.simulation import FederatedSimulation
from repro.obs.trace import Tracer
from tests.fl.test_parallel import (
    build_defended_sim,
    make_world,
    run_and_snapshot,
    shm_leftovers,
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

    @pytest.mark.parametrize(
        "workers, engine", [(0, "process"), (2, "process"), (2, "thread")]
    )
    def test_missing_slot_warns_once_at_close(self, workers, engine):
        with pytest.warns(RuntimeWarning, match=r"crash@1\.train\.99") as caught:
            with make_engine(
                workers, engine=engine, faults="crash@1.train.99",
            ) as round_engine:
                executor = round_engine.executor
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


class TestOrphanReaper:
    def _dead_pid(self) -> int:
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        return int(proc.stdout)

    def test_dead_owner_segments_are_reaped(self, tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        name = f"{SHM_NAME_PREFIX}-{self._dead_pid():x}-cafe0000-0"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as f:
            f.write(b"orphan")
        try:
            reaped = reap_orphan_segments()
            assert name in reaped
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_live_owner_and_kept_prefixes_survive(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        own = f"{SHM_NAME_PREFIX}-{os.getpid():x}-cafe0001-0"
        dead_pid = self._dead_pid()
        kept_prefix = f"{SHM_NAME_PREFIX}-{dead_pid:x}-cafe0002"
        kept = f"{kept_prefix}-0"
        for name in (own, kept):
            with open(f"/dev/shm/{name}", "wb") as f:
                f.write(b"x")
        try:
            reaped = reap_orphan_segments(keep_prefixes=(kept_prefix,))
            assert own not in reaped and kept not in reaped
            assert os.path.exists(f"/dev/shm/{own}")
            assert os.path.exists(f"/dev/shm/{kept}")
        finally:
            for name in (own, kept):
                if os.path.exists(f"/dev/shm/{name}"):
                    os.unlink(f"/dev/shm/{name}")

    def test_foreign_names_are_left_alone(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        # Not our naming scheme: no embedded pid to judge by.
        name = f"{SHM_NAME_PREFIX}-notahexpid"
        with open(f"/dev/shm/{name}", "wb") as f:
            f.write(b"x")
        try:
            assert name not in reap_orphan_segments()
            assert os.path.exists(f"/dev/shm/{name}")
        finally:
            os.unlink(f"/dev/shm/{name}")

    def test_executor_close_reaps_orphans(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        name = f"{SHM_NAME_PREFIX}-{self._dead_pid():x}-cafe0003-0"
        with open(f"/dev/shm/{name}", "wb") as f:
            f.write(b"orphan")
        try:
            store = SharedMemoryModelStore()
            with store, make_executor(2, store=store) as executor:
                pass
            assert executor.resilience.orphans_reaped >= 1
            assert not os.path.exists(f"/dev/shm/{name}")
        finally:
            if os.path.exists(f"/dev/shm/{name}"):
                os.unlink(f"/dev/shm/{name}")


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
    return run_and_snapshot(
        build_defended_sim(
            SequentialExecutor(cohort_size=1), store=InProcessModelStore()
        )
    )


class TestEngineRecovery:
    """Per-engine recovery semantics: the fault fires, the ledger records
    it, and the committed trajectory is bit-identical to fault-free."""

    def test_sequential_consumes_crash_and_delay_inline(self):
        base_flat, base_records = _baseline()
        with SequentialExecutor() as executor:
            executor.bind_faults(plan="crash@1.train;delay@2.validate=0.01")
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=InProcessModelStore())
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] == 1

    def test_pool_crash_rebuilds_and_replays(self):
        base_flat, base_records = _baseline()
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="crash@1.train;crash@2.validate"
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=store)
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] >= 2
        assert stats["pool_rebuilds"] >= 2
        assert shm_leftovers(store) == []

    def test_pool_straggler_is_reassigned_locally(self):
        base_flat, base_records = _baseline()
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="delay@3.train.0=1.5", task_deadline_s=0.5
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=store)
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["straggler_reassignments"] >= 1
        assert shm_leftovers(store) == []

    def test_thread_crash_retries_and_straggler_recomputes(self):
        base_flat, base_records = _baseline()
        with make_executor(
            2, engine="thread", store=InProcessModelStore(),
            faults="crash@1.train;crash@2.validate.1;delay@4.validate.0=1.5",
            task_deadline_s=0.5,
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=executor._store)
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] >= 2
        assert stats["straggler_reassignments"] >= 1

    def test_repeated_pool_death_demotes_to_thread_engine(self):
        """The degradation ladder: three deaths of one slot spend the
        rebuild budget, so the pool executor swaps in the thread dispatcher
        for the rest of the run — one ledger records all of it, and the
        trajectory still matches fault-free sequential."""
        base_flat, base_records = _baseline()
        tracer = Tracer()
        store = SharedMemoryModelStore()
        with store, make_executor(
            2, store=store, faults="crash@1.train;crash@1.train;crash@1.train"
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=store, tracer=tracer)
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
        assert [s.attrs["to"] for s in demotions] == ["thread"]
        # Later rounds ran on threads: no worker process shipped spans.
        worker_rounds = {
            s.round_idx for s in tracer.finalized_spans()
            if s.pid != tracer.pid
        }
        assert max(worker_rounds) <= 1
        assert shm_leftovers(store) == []

    def test_thread_pool_refusing_work_demotes_to_inline(self, monkeypatch):
        """The ladder's last rung: a thread pool that refuses every task is
        rebuilt until the budget is spent, then slices run inline."""
        from concurrent.futures import ThreadPoolExecutor

        base_flat, base_records = _baseline()

        def refuse(self, *args, **kwargs):
            raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
        with make_executor(
            2, engine="thread", store=InProcessModelStore()
        ) as executor:
            flat, records = run_and_snapshot(
                build_defended_sim(executor, store=executor.store)
            )
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["pool_rebuilds"] == 3
        assert stats["engine_demotions"] == 1


def build_policy_sim(executor, policy="strict", quorum_min=1, store=None):
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
        defense=defense, executor=executor, model_store=store,
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
    """The acceptance matrix: ``{pool, thread}``, each engine on the store
    ``make_engine`` gives it, under crashes, stragglers, and a dropped vote
    (quorum policy ``degrade``) commits bit-identical models and accept
    decisions to the fault-free sequential baseline."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        with SequentialExecutor(cohort_size=1) as executor:
            sim = build_policy_sim(executor, store=InProcessModelStore())
            records = sim.run(8)
            flat = sim.global_model.get_flat()
        return flat, [
            (r.round_idx, tuple(r.contributor_ids), r.accepted)
            for r in records
        ]

    @pytest.mark.parametrize("engine", ["process", "thread"])
    def test_faulty_run_matches_fault_free_baseline(self, fault_free, engine):
        base_flat, base_decisions = fault_free
        with make_engine(
            2, engine=engine, faults=CHAOS_FAULTS, task_deadline_s=0.5,
        ) as round_engine:
            store, executor = round_engine.store, round_engine.executor
            sim = build_policy_sim(executor, policy="degrade", store=store)
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
        assert shm_leftovers(store) == []
