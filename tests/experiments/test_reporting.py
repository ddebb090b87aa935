"""Unit tests for paper-style text reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.experiments.metrics import AggregateStats
from repro.experiments.reporting import (
    format_execution_report,
    format_quorum_series,
    format_series,
    format_table1,
    format_table2,
    format_vote_distribution,
)


def stats(fp=0.1, fn=0.0):
    return AggregateStats(fp_mean=fp, fp_std=0.01, fn_mean=fn, fn_std=0.0, num_runs=5)


class TestTable1:
    def test_contains_all_cells(self):
        results = {
            (10, 0.9, m): stats() for m in ("clients", "server", "both")
        }
        text = format_table1(results, lookbacks=(10,), splits=(0.9,), dataset="cifar")
        assert "90-10" in text
        assert "FP(C+S)" in text
        assert "0.100" in text

    def test_missing_cells_rendered_as_dash(self):
        text = format_table1({}, lookbacks=(10,), splits=(0.9,), dataset="cifar")
        assert "-" in text


class TestQuorumSeries:
    def test_rows_per_quorum(self):
        results = {
            (q, 0.9, m): stats()
            for q in (3, 4)
            for m in ("clients", "server", "both")
        }
        text = format_quorum_series(results, quorums=(3, 4), split=0.9, dataset="cifar")
        assert text.count("\n") >= 3


class TestTable2:
    def test_adaptive_rows(self):
        from repro.experiments.runner import AdaptiveExperimentResult

        result = AdaptiveExperimentResult(
            non_adaptive=stats(fn=0.0),
            adaptive=stats(fn=0.111),
            adaptive_reject_votes=(9, 10),
            self_check_pass_rate=0.5,
        )
        text = format_table2({0.9: result})
        assert "Adaptive" in text and "Non-Adaptive" in text
        assert "0.111" in text


class TestVoteDistribution:
    def test_cumulative_shares(self):
        text = format_vote_distribution({0.9: [10, 5, 8]}, num_validators=10)
        assert "90-10" in text
        # all injections got >= 1 vote
        assert "1.00" in text

    def test_empty_votes_skipped(self):
        text = format_vote_distribution({0.9: []}, num_validators=10)
        assert "90-10" not in text


class TestGenericSeries:
    def test_alignment(self):
        text = format_series(
            "Figure X", {"main": [0.9, 0.95], "backdoor": [0.1, 0.0]}, x=[0, 1]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "main" in lines[1]


@dataclass
class FakeRecord:
    """Duck-typed round record carrying only what the report reads."""

    round_idx: int = 0
    accepted: bool = True
    transport_bytes: int = 0
    phase_times: dict = field(default_factory=dict)
    retries: int = 0
    materialized_clients: int = 0
    peak_rss_kb: int = 0


class TestExecutionReport:
    @pytest.mark.parametrize(
        "per_round, line",
        [
            ((500, 1500), "transport: 1000 B/round mean"),
            ((0, 0), "transport: 0 B/round mean"),  # in-process engines
        ],
    )
    def test_transport_line_reports_mean_bytes_per_round(self, per_round, line):
        records = [
            FakeRecord(round_idx=i, transport_bytes=b)
            for i, b in enumerate(per_round)
        ]
        assert line in format_execution_report(records).splitlines()

    def test_phase_times_render_when_present(self):
        records = [
            FakeRecord(phase_times={"train": 0.010, "validate": 0.002}),
            FakeRecord(round_idx=1,
                       phase_times={"train": 0.012, "validate": 0.004}),
        ]
        text = format_execution_report(records)
        assert "phase wall-clock (mean/round)" in text
        assert "train 11.0ms" in text
        assert "validate 3.0ms" in text

    def test_untraced_records_render_no_phase_line(self):
        text = format_execution_report([FakeRecord()])
        assert "phase wall-clock" not in text

    def test_no_rounds(self):
        assert format_execution_report([]) == "execution report: no rounds"

    def test_rounds_line_counts_rejections(self):
        records = [
            FakeRecord(),
            FakeRecord(round_idx=1, accepted=False),
            FakeRecord(round_idx=2),
        ]
        text = format_execution_report(records)
        assert "rounds: 3 (2 accepted, 1 rejected)" in text.splitlines()

    def test_population_and_memory_lines(self):
        records = [
            FakeRecord(materialized_clients=4, peak_rss_kb=1024),
            FakeRecord(round_idx=1, materialized_clients=6, peak_rss_kb=2048),
        ]
        lines = format_execution_report(records).splitlines()
        assert "materialized clients: 6/round peak (5.0 mean)" in lines
        assert "peak RSS: 2.0 MiB" in lines  # the last round's high-water mark

    def test_resilience_section_lists_only_counters_that_fired(self):
        text = format_execution_report(
            [FakeRecord()],
            resilience={"straggler_reassignments": 2, "pool_rebuilds": 0},
        )
        lines = text.splitlines()
        assert "resilience:" in lines
        assert "  straggler reassignments: 2" in lines
        assert "pool rebuilds" not in text

    def test_record_retries_render_as_recovery_incidents(self):
        records = [
            FakeRecord(retries=3),
            FakeRecord(round_idx=1),
            FakeRecord(round_idx=2, retries=1),
        ]
        lines = format_execution_report(records).splitlines()
        assert "  recovery incidents: 4 (rounds touched: 2)" in lines
