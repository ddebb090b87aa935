"""Tracing under the real round engines.

The hard contract: tracing is pure observation.  A traced run commits
bit-identical models and round records to an untraced run of the same
seed, on every engine — and the trace itself carries the pool threads'
worker spans on the server timeline, plus a reject span for every
rejected round.
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
from repro.fl.parallel import SequentialExecutor, make_executor
from repro.fl.simulation import FederatedSimulation
from repro.obs import Tracer
from tests.fl.test_parallel import make_world, run_and_snapshot

ROUNDS = 8


def build_sim(executor, tracer=None, reject_rounds=None, seed=7):
    model, clients, server_data, config = make_world(seed)
    validator_pool = ValidatorPool.from_datasets(
        {c.client_id: c.dataset for c in clients}, min_history=4
    )
    baffle_config = BaffleConfig(
        lookback=4, quorum=2, num_validators=3, mode="both"
    )
    server_validator = MisclassificationValidator(server_data, min_history=4)
    if reject_rounds is None:
        defense = BaffleDefense(baffle_config, validator_pool, server_validator)
    else:
        defense = ForcedRejectDefense(
            baffle_config, validator_pool, server_validator,
            reject_rounds=reject_rounds,
        )
    defense.prime(model)
    return FederatedSimulation(
        model.clone(), clients, config, np.random.default_rng(seed + 1),
        defense=defense, executor=executor, tracer=tracer,
    )


class TestTracedUntracedBitIdentity:
    """Tracing must not perturb a single committed bit on the sequential
    or the thread engine (the untraced cross-engine equivalence is
    tests/fl/test_parallel.py's job)."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_traced_run_matches_untraced(self, workers):
        untraced_flat, untraced_records = run_and_snapshot(
            build_sim(SequentialExecutor(cohort_size=1)), rounds=ROUNDS,
        )
        tracer = Tracer()
        with make_executor(workers) as executor:
            flat, records = run_and_snapshot(
                build_sim(executor, tracer=tracer), rounds=ROUNDS
            )
        np.testing.assert_array_equal(untraced_flat, flat)
        assert untraced_records == records
        # And the run actually traced something round-shaped.
        spans = tracer.finalized_spans()
        assert sum(1 for s in spans if s.name == "train") == ROUNDS


class TestWorkerSpanMerge:
    def test_thread_engine_records_worker_spans_in_process(self):
        tracer = Tracer()
        with make_executor(2) as executor:
            sim = build_sim(executor, tracer=tracer)
            sim.run(ROUNDS)
        spans = tracer.finalized_spans()
        worker_spans = [s for s in spans if s.cat == "worker"]
        assert worker_spans, "thread engine must record executor-level spans"
        # Same process, same clock: every span carries the server pid.
        assert {s.pid for s in spans} == {tracer.pid}
        names = {s.name for s in worker_spans}
        assert "train.client" in names or "train.cohort" in names
        assert "validate.vote" in names
        # Pool threads recorded them, not the calling thread.
        main = {s.tid for s in spans if s.name == "train" and s.cat == "phase"}
        assert {s.tid for s in worker_spans}.isdisjoint(main)
        starts = [s.start_ns for s in spans]
        assert starts == sorted(starts)


class TestWorkerSpansPerRound:
    """The executor's slice spans account for every pooled entity of
    every round, on either engine."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_vote_span_per_sampled_validator(self, workers):
        tracer = Tracer()
        with make_executor(workers) as executor:
            records = build_sim(executor, tracer=tracer).run(ROUNDS)
        votes: dict[int, int] = {}
        for span in tracer.finalized_spans():
            if span.name == "validate.vote":
                assert span.cat == "worker"
                votes[span.round_idx] = votes.get(span.round_idx, 0) + 1
        assert votes == {
            r.round_idx: len(r.decision.client_votes) for r in records
        }

    @pytest.mark.parametrize("workers, cohort_size", [(0, 1), (0, None), (2, 1), (2, None)])
    def test_training_spans_cover_every_contributor(self, workers, cohort_size):
        tracer = Tracer()
        with make_executor(workers, cohort_size=cohort_size) as executor:
            records = build_sim(executor, tracer=tracer).run(ROUNDS)
        trained: dict[int, int] = {}
        for span in tracer.finalized_spans():
            if span.name == "train.client":
                trained[span.round_idx] = trained.get(span.round_idx, 0) + 1
            elif span.name == "train.cohort":
                assert cohort_size is None
                trained[span.round_idx] = (
                    trained.get(span.round_idx, 0) + span.attrs["clients"]
                )
        assert trained == {
            r.round_idx: len(r.contributor_ids) for r in records
        }


class TestResilienceOnTheTrace:
    """Recovery incidents reach the trace as they reach the ledger, on
    either engine, and a traced faulty run still commits the untraced
    fault-free trajectory."""

    PLAN = "crash@1.train;crash@3.validate.1"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_counters_and_events_mirror_the_ledger(self, workers):
        tracer = Tracer()
        with make_executor(workers, faults=self.PLAN) as executor:
            build_sim(executor, tracer=tracer).run(ROUNDS)
            ledger = executor.resilience.as_dict()
        assert ledger["retries"] == 2
        assert tracer.metrics.snapshot()["counters"]["resilience.retries"] == 2
        events = [s for s in tracer.finalized_spans() if s.cat == "resilience"]
        assert [(e.name, e.round_idx, e.attrs["phase"]) for e in events] == [
            ("resilience.retries", 1, "train"),
            ("resilience.retries", 3, "validate"),
        ]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_traced_faulty_run_matches_untraced_fault_free(self, workers):
        base_flat, base_records = run_and_snapshot(
            build_sim(SequentialExecutor(cohort_size=1)), rounds=ROUNDS,
        )
        with make_executor(workers, faults=self.PLAN) as executor:
            flat, records = run_and_snapshot(
                build_sim(executor, tracer=Tracer()), rounds=ROUNDS
            )
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records


class TestRoundLifecycleSpans:
    def test_commit_span_for_every_accepted_round(self):
        tracer = Tracer()
        sim = build_sim(SequentialExecutor(), tracer=tracer)
        records = sim.run(ROUNDS)
        commits = [
            s for s in tracer.finalized_spans()
            if s.name == "commit" and s.cat == "round"
        ]
        accepted = [r.round_idx for r in records if r.accepted]
        assert sorted(s.round_idx for s in commits) == accepted

    def test_phase_times_populated_on_records(self):
        tracer = Tracer()
        sim = build_sim(SequentialExecutor(), tracer=tracer)
        records = sim.run(ROUNDS)
        for record in records:
            assert {"select", "train", "aggregate"} <= set(record.phase_times)
            assert all(t >= 0.0 for t in record.phase_times.values())
        # Untraced runs leave the field empty (and excluded from ==).
        untraced = build_sim(SequentialExecutor()).run(ROUNDS)
        assert all(r.phase_times == {} for r in untraced)

    def test_forced_rejection_emits_reject_span(self):
        tracer = Tracer()
        with SequentialExecutor() as executor:
            sim = build_sim(
                executor, tracer=tracer, reject_rounds=frozenset({3})
            )
            records = sim.run(ROUNDS)
        rejected = [r.round_idx for r in records if not r.accepted]
        assert 3 in rejected
        reject_spans = [
            s.round_idx for s in tracer.finalized_spans()
            if s.cat == "round" and s.name == "reject"
        ]
        assert sorted(reject_spans) == rejected
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["rounds_rejected"] == len(rejected)


class TestRunPersistence:
    def test_traced_records_round_trip_through_save_run(self, tmp_path):
        from repro.experiments.persistence import load_run, save_run

        tracer = Tracer()
        sim = build_sim(SequentialExecutor(), tracer=tracer)
        records = sim.run(ROUNDS)
        path = save_run(
            records,
            tmp_path / "run.json",
            metrics=tracer.metrics.snapshot(),
            metadata={"scenario": "test"},
        )
        rounds, metrics, metadata = load_run(path)
        assert len(rounds) == ROUNDS
        assert metadata == {"scenario": "test"}
        assert metrics["counters"]["rounds_total"] == ROUNDS
        for row, record in zip(rounds, records):
            assert row["round_idx"] == record.round_idx
            assert row["accepted"] == record.accepted
            assert set(row["phase_times"]) == set(record.phase_times)

    def test_untraced_records_save_without_phase_times(self, tmp_path):
        from repro.experiments.persistence import load_run, save_run

        records = build_sim(SequentialExecutor()).run(2)
        rounds, _, _ = load_run(save_run(records, tmp_path / "run.json"))
        assert all("phase_times" not in row for row in rounds)
