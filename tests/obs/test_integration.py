"""Tracing under the real round engines.

The hard contract: tracing is pure observation.  A traced run commits
bit-identical models and round records to an untraced run of the same
seed, in every cell of the engine matrix — and the trace itself carries
worker-side spans merged onto the server timeline, plus a reject span for
every rejected round.
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
from repro.fl.simulation import FederatedSimulation
from repro.obs import Tracer
from tests.fl.test_parallel import make_world, run_and_snapshot

ROUNDS = 8


def build_sim(executor, store=None, tracer=None, reject_rounds=None, seed=7):
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
        defense=defense, executor=executor, model_store=store, tracer=tracer,
    )


class TestTracedUntracedBitIdentity:
    """Tracing must not perturb a single committed bit, anywhere in the
    {sequential, pool, thread} matrix (one traced run per engine family,
    each on its own store; the untraced cross-cell equivalence is
    tests/fl/test_parallel.py's job)."""

    @pytest.mark.parametrize(
        "workers, engine, store_cls",
        [
            (0, None, InProcessModelStore),
            (2, "process", SharedMemoryModelStore),
            (2, "thread", InProcessModelStore),
        ],
    )
    def test_traced_run_matches_untraced(self, workers, engine, store_cls):
        untraced_flat, untraced_records = run_and_snapshot(
            build_sim(SequentialExecutor(cohort_size=1), store=InProcessModelStore()),
            rounds=ROUNDS,
        )
        tracer = Tracer()
        store = store_cls()
        kwargs = {} if engine is None else {"engine": engine}
        with store, make_executor(workers, store=store, **kwargs) as executor:
            flat, records = run_and_snapshot(
                build_sim(executor, store=store, tracer=tracer), rounds=ROUNDS
            )
        np.testing.assert_array_equal(untraced_flat, flat)
        assert untraced_records == records
        # And the run actually traced something round-shaped.
        spans = tracer.finalized_spans()
        assert sum(1 for s in spans if s.name == "train") == ROUNDS


class TestWorkerSpanMerge:
    def test_process_engine_ships_worker_spans_back(self):
        tracer = Tracer()
        store = SharedMemoryModelStore()
        with store, make_executor(2, store=store, engine="process") as executor:
            sim = build_sim(executor, store=store, tracer=tracer)
            sim.run(ROUNDS)
        spans = tracer.finalized_spans()
        worker_spans = [s for s in spans if s.pid != tracer.pid]
        assert worker_spans, "process workers must ship spans back"
        assert {s.cat for s in worker_spans} == {"worker"}
        names = {s.name for s in worker_spans}
        assert "train.client" in names or "train.cohort" in names
        # Offset normalization keeps the merged timeline sorted.
        starts = [s.start_ns for s in spans]
        assert starts == sorted(starts)
        # Worker store telemetry landed in the registry.
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("shm.worker_attaches", 0) > 0

    def test_thread_engine_records_worker_spans_in_process(self):
        tracer = Tracer()
        store = InProcessModelStore()
        with make_executor(2, store=store, engine="thread") as executor:
            sim = build_sim(executor, store=store, tracer=tracer)
            sim.run(ROUNDS)
        spans = tracer.finalized_spans()
        worker_spans = [s for s in spans if s.cat == "worker"]
        assert worker_spans, "thread engine must record executor-level spans"
        # Same process, same clock: every span carries the server pid.
        assert {s.pid for s in spans} == {tracer.pid}
        names = {s.name for s in worker_spans}
        assert "train.client" in names or "train.cohort" in names
        assert "validate.vote" in names


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
