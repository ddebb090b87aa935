"""Chaos smoke: the full stack under injected faults.

One scenario-shaped run on the thread engine with a crash and a
straggler injected mid-run.  It must commit bit-identically to the
fault-free sequential run and surface the recovery work in the resilience
ledger, the metrics snapshot, and the execution report (mirrors the CI
chaos smoke cell).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import format_execution_report
from repro.fl.parallel import SequentialExecutor, make_executor
from repro.obs.trace import make_tracer
from tests.fl.test_parallel import build_defended_sim, run_and_snapshot

CHAOS = "crash@1.train;delay@3.validate.0=1.5"


class TestChaosSmoke:
    def test_thread_pool_survives_crash_and_straggler(self):
        base_flat, base_records = run_and_snapshot(
            build_defended_sim(SequentialExecutor(cohort_size=1))
        )
        with make_executor(2, faults=CHAOS, task_deadline_s=0.5) as executor:
            flat, records = run_and_snapshot(build_defended_sim(executor))
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert base_records == records
        assert stats["retries"] > 0
        assert stats["straggler_reassignments"] >= 1

    def test_recovery_reaches_metrics_and_the_execution_report(self):
        from repro.fl.simulation import FederatedSimulation
        from tests.fl.test_parallel import make_world

        tracer = make_tracer(True)
        model, clients, _, config = make_world()
        with make_executor(2, faults="crash@1.train") as executor:
            sim = FederatedSimulation(
                model.clone(), clients, config, np.random.default_rng(8),
                executor=executor, tracer=tracer,
            )
            records = sim.run(4)
            resilience = executor.resilience.as_dict()
        assert sum(r.retries for r in records) >= 1
        snapshot = tracer.metrics.snapshot()
        assert snapshot["resilience"]["retries"] >= 1
        assert snapshot["counters"]["resilience.retries"] >= 1
        report = format_execution_report(records, resilience=resilience)
        assert "resilience:" in report
        assert "recovery incidents" in report
        assert "retries: 1" in report

    def test_fault_free_report_has_no_resilience_section(self):
        with SequentialExecutor() as executor:
            records = build_defended_sim(executor).run(4)
            resilience = executor.resilience.as_dict()
        report = format_execution_report(records, resilience=resilience)
        assert "resilience:" not in report
