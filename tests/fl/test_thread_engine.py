"""The thread engine in depth: pool lifecycle, dispatch order, result
order, and every rung of the recovery ladder.

Every round runs in the caller's address space, and the thread engine is
the one multi-worker engine.  Recovery is checked on pool threads: an
in-task crash is retried by replay, a straggler is replayed on the calling
thread, a pool that refuses work is rebuilt, and once the rebuild budget
is spent the executor runs the rest of the run inline.  Every case must
land on the fault-free per-model sequential trajectory.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.fl.parallel as parallel
from repro.core.baffle import ValidatorPool
from repro.core.validation import ValidationContext
from repro.fl.client import LocalTrainingConfig
from repro.fl.faults import DEFAULT_POOL_REBUILDS, DEFAULT_TASK_RETRIES
from repro.fl.parallel import SequentialExecutor, make_executor
from repro.fl.rng import RngStreams
from repro.obs.trace import Tracer
from tests.fl.test_parallel import (
    build_defended_sim,
    make_world,
    run_and_snapshot,
    snapshot,
)

POOL_PREFIX = "repro-round"


def _pool_threads() -> set[threading.Thread]:
    return {
        t for t in threading.enumerate() if t.name.startswith(POOL_PREFIX)
    }


def _reference():
    return run_and_snapshot(build_defended_sim(SequentialExecutor(cohort_size=1)))


def _vote_world(home_validator: int | None = None):
    """A validator pool over the world's clients and a context with a
    six-model history (above every validator's ``min_history``)."""
    model, clients, _, _ = make_world()
    pool = ValidatorPool.from_datasets(
        {c.client_id: c.dataset for c in clients}, min_history=4
    )
    if home_validator is not None:
        pool.get(home_validator).parallel_safe = False
    rng = np.random.default_rng(0)
    history = []
    for version in range(6):
        snapshot = model.clone()
        snapshot.set_flat(model.get_flat() + rng.normal(0.0, 0.05, model.num_parameters))
        history.append((version, snapshot))
    candidate = model.clone()
    candidate.set_flat(model.get_flat() + rng.normal(0.0, 0.5, model.num_parameters))
    return pool, ValidationContext(candidate=candidate, history=history)


def _train_world():
    model, clients, _, config = make_world()
    local = LocalTrainingConfig(epochs=1, batch_size=config.batch_size)
    return model, clients, local


def _per_model_updates(ids):
    model, clients, local = _train_world()
    return SequentialExecutor(cohort_size=1).run_clients(
        clients, ids, model, local, 0, RngStreams.from_seed(0)
    )


def _assert_updates_equal(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        np.testing.assert_array_equal(a, b)


def _record_calls(monkeypatch, body_name: str, key) -> list:
    """Wrap the slice body ``body_name`` so every call (dispatched or
    replayed) appends ``key(args)`` to the returned list."""
    calls: list = []
    real_body = getattr(parallel, body_name)

    def body(*args):
        calls.append(key(args))
        return real_body(*args)

    monkeypatch.setattr(parallel, body_name, body)
    return calls


def _unit_ids(args) -> list[int]:
    return list(args[5])  # _train_body(span, clients, model, config, round, ids, seqs)


def _voter_id(args) -> int:
    return args[4]  # _vote_body(span, validator, context, round, vid, seq, lock)


def _thread_ident(args) -> int:
    return threading.get_ident()


class TestPoolLifecycle:
    """The pool's threads start at the first fan-out, never exceed the
    worker count, and are joined when the executor closes."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_threads_start_at_the_first_fan_out(self, workers):
        before = _pool_threads()
        model, clients, local = _train_world()
        with make_executor(workers, cohort_size=1) as executor:
            assert not _pool_threads() - before
            executor.run_clients(
                clients, [0, 1, 2, 3, 4, 5], model, local, 0,
                RngStreams.from_seed(0),
            )
            started = _pool_threads() - before
            assert 1 <= len(started) <= workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_close_joins_every_pool_thread(self, workers):
        before = _pool_threads()
        pool, context = _vote_world()
        executor = make_executor(workers)
        executor.run_validators(pool, [0, 1, 2, 3], context, 0, RngStreams.from_seed(0))
        started = _pool_threads() - before
        assert started
        executor.close()
        assert not any(thread.is_alive() for thread in started)

    def test_leaving_the_block_on_an_error_closes_the_pool(self):
        before = _pool_threads()
        pool, context = _vote_world()
        with pytest.raises(RuntimeError, match="caller failed"):
            with make_executor(2) as executor:
                executor.run_validators(
                    pool, [0, 1], context, 0, RngStreams.from_seed(0)
                )
                started = _pool_threads() - before
                raise RuntimeError("caller failed")
        assert started
        assert not any(thread.is_alive() for thread in started)

    def test_votes_run_on_at_most_workers_threads(self, monkeypatch):
        def slow_ident(args) -> int:
            time.sleep(0.005)  # keep the pool busy so every thread is used
            return threading.get_ident()

        idents = _record_calls(monkeypatch, "_vote_body", slow_ident)
        pool, context = _vote_world()
        with make_executor(2) as executor:
            votes = executor.run_validators(
                pool, [0, 1, 2, 3, 4, 5], context, 0, RngStreams.from_seed(0)
            )
        assert sorted(votes) == [0, 1, 2, 3, 4, 5]
        assert len(idents) == 6
        assert 1 <= len(set(idents)) <= 2
        assert threading.get_ident() not in idents


class TestDispatchOrder:
    """Dispatch slots (what a fault plan's index counts): training units
    are the stacked chunks, then the per-model clients, each in contributor
    order; validation units are the pooled validators in request order.
    The inline dispatcher runs each slice at submit, so its call order is
    the slot order."""

    @pytest.mark.parametrize(
        "ids, cohort_size, units",
        [
            ([0, 1, 2, 3, 4], 2, [[0, 1], [2, 3], [4]]),
            ([4, 2, 0], 2, [[4, 2], [0]]),
            ([3, 1, 5], None, [[3, 1, 5]]),
            ([3, 1, 5], 1, [[3], [1], [5]]),
        ],
    )
    def test_training_units_are_chunks_then_per_model_clients(
        self, ids, cohort_size, units, monkeypatch
    ):
        calls = _record_calls(monkeypatch, "_train_body", _unit_ids)
        model, clients, local = _train_world()
        updates = SequentialExecutor(cohort_size=cohort_size).run_clients(
            clients, ids, model, local, 0, RngStreams.from_seed(0)
        )
        assert calls == units
        _assert_updates_equal(_per_model_updates(ids), updates)

    def test_parent_side_clients_occupy_no_slot(self, monkeypatch):
        calls = _record_calls(monkeypatch, "_train_body", _unit_ids)
        model, clients, _, config = make_world(home_client=1)
        local = LocalTrainingConfig(epochs=1, batch_size=config.batch_size)
        SequentialExecutor(cohort_size=1).run_clients(
            clients, [0, 1, 2], model, local, 0, RngStreams.from_seed(0)
        )
        assert calls == [[0], [2]]

    def test_validation_slots_follow_request_order(self, monkeypatch):
        calls = _record_calls(monkeypatch, "_vote_body", _voter_id)
        pool, context = _vote_world(home_validator=0)
        votes = SequentialExecutor().run_validators(
            pool, [4, 0, 2, 5], context, 0, RngStreams.from_seed(0)
        )
        assert calls == [4, 2, 5]  # validator 0 votes on the calling thread
        assert list(votes) == [4, 0, 2, 5]

    def test_a_slot_index_names_the_slice_it_crashes(self):
        """``crash@0.validate.1`` hits the second pooled validator: one
        retry, recorded against slot 1."""
        tracer = Tracer()
        pool, context = _vote_world(home_validator=0)
        with make_executor(2, faults="crash@0.validate.1") as executor:
            executor.bind(tracer)
            executor.run_validators(
                pool, [4, 0, 2, 5], context, 0, RngStreams.from_seed(0)
            )
            assert executor.resilience.retries == 1
        [event] = [
            s for s in tracer.finalized_spans() if s.name == "resilience.retries"
        ]
        assert (event.attrs["phase"], event.attrs["slot"]) == ("validate", 1)
        assert executor.fault_plan.unfired() == ()


class TestResultOrder:
    """Results come back in request order whatever order the slices
    finish in: slot 0 is delayed (no deadline) so it finishes last."""

    @pytest.mark.parametrize("ids", [[0, 1, 2], [5, 3, 0, 4]])
    def test_updates_follow_the_contributor_order(self, ids):
        model, clients, local = _train_world()
        with make_executor(2, cohort_size=1, faults="delay@0.train.0=0.1") as executor:
            updates = executor.run_clients(
                clients, ids, model, local, 0, RngStreams.from_seed(0)
            )
            assert executor.resilience.total() == 0
        _assert_updates_equal(_per_model_updates(ids), updates)

    def test_votes_follow_the_request_order(self):
        pool, context = _vote_world()
        streams = RngStreams.from_seed(0)
        expected = SequentialExecutor().run_validators(
            pool, [3, 1, 4, 0], context, 0, streams
        )
        with make_executor(2, faults="delay@0.validate.0=0.1") as executor:
            votes = executor.run_validators(pool, [3, 1, 4, 0], context, 0, streams)
        assert list(votes) == [3, 1, 4, 0]
        assert votes == expected


class TestInTaskCrashes:
    """A crash inside a slice is retried by re-dispatch (placements on
    both engines: ``test_faults.py::TestFaultMatrix``).  Past
    ``DEFAULT_TASK_RETRIES`` the slice replays on the calling thread."""

    @pytest.mark.parametrize("crashes", range(1, DEFAULT_TASK_RETRIES + 2))
    def test_replay_only_once_the_retry_budget_is_spent(self, crashes):
        tracer = Tracer()
        pool, context = _vote_world()
        streams = RngStreams.from_seed(0)
        expected = SequentialExecutor().run_validators(
            pool, [0, 1, 2], context, 0, streams
        )
        plan = ";".join(["crash@0.validate.1"] * crashes)
        with make_executor(2, faults=plan) as executor:
            executor.bind(tracer)
            votes = executor.run_validators(pool, [0, 1, 2], context, 0, streams)
            assert executor.resilience.retries == crashes
        replays = [
            s for s in tracer.finalized_spans() if s.name == "recover.local_replay"
        ]
        assert len(replays) == (1 if crashes > DEFAULT_TASK_RETRIES else 0)
        assert votes == expected


class TestStragglers:
    """A slice past ``task_deadline_s`` is written off and replayed on the
    calling thread; the written-off task finishes in the background and
    the closed executor waited it out."""

    @pytest.mark.parametrize("phase", ["train", "validate"])
    def test_straggler_replays_on_the_calling_thread(self, phase):
        tracer = Tracer()
        base_flat, base_records = _reference()
        with make_executor(
            2, faults=f"delay@2.{phase}=1.0", task_deadline_s=0.5
        ) as executor:
            sim = build_defended_sim(executor, tracer=tracer)
            records = sim.run(8)
            flat = sim.global_model.get_flat()
            executor.close()
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert snapshot(records) == base_records
        assert stats["straggler_reassignments"] >= 1
        assert stats["retries"] == stats["abandoned_task_errors"] == 0
        assert records[2].retries >= 1  # charged to the round it stalled
        replays = [
            s for s in tracer.finalized_spans() if s.name == "recover.local_replay"
        ]
        assert len(replays) == stats["straggler_reassignments"]
        assert {s.tid for s in replays} == {threading.get_ident()}

    def test_a_finished_straggler_is_reaped_at_the_next_fan_out(self):
        pool, context = _vote_world()
        streams = RngStreams.from_seed(0)
        with make_executor(
            2, faults="delay@0.validate.0=1.0", task_deadline_s=0.5
        ) as executor:
            executor.run_validators(pool, [0, 1], context, 0, streams)
            (pending,) = executor._abandoned
            pending.wait()  # the written-off vote finishes in the background
            executor.run_validators(pool, [0, 1], context, 1, streams)
            assert executor._abandoned == []
            assert executor.resilience.abandoned_task_errors == 0

    def test_a_written_off_task_that_fails_is_counted_at_close(self):
        """The straggler's late error cannot change the phase's result
        (its replay decided it); it is counted when its handle is released,
        and traced."""
        tracer = Tracer()
        pool, context = _vote_world()
        streams = RngStreams.from_seed(0)
        expected = SequentialExecutor().run_validators(
            pool, [0, 1], context, 0, streams
        )
        validator = pool.get(0)
        real_vote = validator.vote

        def vote_then_fail_off_the_calling_thread(ctx, rng):
            if threading.current_thread().name.startswith(POOL_PREFIX):
                raise RuntimeError("validator went away")
            return real_vote(ctx, rng)

        validator.vote = vote_then_fail_off_the_calling_thread
        with make_executor(
            2, faults="delay@0.validate.0=0.4", task_deadline_s=0.1
        ) as executor:
            executor.bind(tracer)
            votes = executor.run_validators(pool, [0, 1], context, 0, streams)
            executor.close()
            assert executor.resilience.abandoned_task_errors == 1
        assert votes == expected
        [event] = [
            s for s in tracer.finalized_spans()
            if s.name == "resilience.abandoned_task_errors"
        ]
        assert "validator went away" in event.attrs["error"]

    def test_the_inline_engine_never_writes_off_a_slice(self):
        """Inline slices finish at submit, so a deadline shorter than a
        planned delay writes nothing off."""
        pool, context = _vote_world()
        with make_executor(
            0, faults="delay@0.validate.0=0.1", task_deadline_s=0.01
        ) as executor:
            votes = executor.run_validators(
                pool, [0, 1], context, 0, RngStreams.from_seed(0)
            )
            assert executor.resilience.total() == 0
            assert executor.fault_plan.unfired() == ()
        assert sorted(votes) == [0, 1]


class TestDroppedVotes:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_parent_side_validator_loses_its_vote_too(self, workers):
        pool, context = _vote_world(home_validator=1)
        with make_executor(workers, faults="drop@0.vote.1") as executor:
            votes = executor.run_validators(
                pool, [0, 1, 2], context, 0, RngStreams.from_seed(0)
            )
            assert executor.resilience.dropped_votes == 1
        assert list(votes) == [0, 2]


class TestRebinding:
    def test_bind_faults_keeps_whatever_it_is_not_given(self):
        # Only the rebound plan is left to report as unfired at close.
        with pytest.warns(RuntimeWarning, match=r"never fired[^;]*crash@2\.validate$"):
            with make_executor(
                2, faults="crash@1.train", task_deadline_s=0.5
            ) as executor:
                plan = executor.fault_plan
                executor.bind_faults(task_deadline_s=1.0)
                assert executor.fault_plan is plan
                executor.bind_faults(plan="crash@2.validate")
                assert executor.task_deadline_s == 1.0
                assert str(executor.fault_plan) == "crash@2.validate"

    def test_slice_spans_go_to_the_latest_tracer(self):
        first, second = Tracer(), Tracer()
        pool, context = _vote_world()
        streams = RngStreams.from_seed(0)
        with make_executor(2) as executor:
            executor.bind(first)
            executor.run_validators(pool, [0, 1], context, 0, streams)
            executor.bind(second)
            executor.run_validators(pool, [0, 1, 2], context, 1, streams)
        assert [s.round_idx for s in first.finalized_spans()] == [0, 0]
        assert [s.round_idx for s in second.finalized_spans()] == [1, 1, 1]


def _refuse_first(monkeypatch, refusals: int) -> None:
    """Make the first ``refusals`` pool submissions fail as a pool that
    refuses work."""
    from concurrent.futures import ThreadPoolExecutor

    real_submit = ThreadPoolExecutor.submit
    calls = [0]

    def submit(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] <= refusals:
            raise RuntimeError("cannot schedule new futures after shutdown")
        return real_submit(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)


class TestBrokenPool:
    """A pool that refuses work is torn down and rebuilt once per
    breakage; past ``DEFAULT_POOL_REBUILDS`` the executor swaps in the
    inline dispatcher for the rest of the run."""

    @pytest.mark.parametrize("refusals", range(1, DEFAULT_POOL_REBUILDS + 1))
    def test_refused_work_rebuilds_the_pool_and_replays(self, refusals, monkeypatch):
        base_flat, base_records = _reference()
        _refuse_first(monkeypatch, refusals)
        with make_executor(2) as executor:
            flat, records = run_and_snapshot(build_defended_sim(executor))
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["pool_rebuilds"] == refusals
        assert stats["engine_demotions"] == 0
        assert stats["retries"] >= refusals

    def test_a_demoted_executor_runs_every_later_slice_inline(self, monkeypatch):
        _refuse_first(monkeypatch, 10**6)
        idents = _record_calls(monkeypatch, "_vote_body", _thread_ident)
        pool, context = _vote_world()
        streams = RngStreams.from_seed(0)
        expected = SequentialExecutor().run_validators(pool, [0, 1, 2], context, 0, streams)
        idents.clear()
        with make_executor(2) as executor:
            first = executor.run_validators(pool, [0, 1, 2], context, 0, streams)
            assert executor.resilience.engine_demotions == 1
            rebuilds = executor.resilience.pool_rebuilds
            idents.clear()
            later = executor.run_validators(pool, [0, 1, 2], context, 0, streams)
            assert executor.resilience.pool_rebuilds == rebuilds  # no new breakage
        assert first == later == expected
        assert idents == [threading.get_ident()] * 3


class TestParentSideValidators:
    """A validator without ``parallel_safe`` votes on the calling thread
    while the pooled votes run; the committed trajectory does not move.
    (Parent-side clients: ``test_parallel.py::TestSequentialParallelEquivalence``.)"""

    @pytest.mark.parametrize("home_validator", [1, 4])
    def test_parent_side_validator_keeps_the_trajectory(self, home_validator):
        base_flat, base_records = _reference()
        with make_executor(2) as executor:
            sim = build_defended_sim(executor)
            sim.defense.validator_pool.get(home_validator).parallel_safe = False
            flat, records = run_and_snapshot(sim)
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
