"""Unit tests for JSON persistence of experiment results."""

from __future__ import annotations

import json

import pytest

from repro.experiments.metrics import AggregateStats
from repro.experiments.persistence import (
    load_results,
    load_run,
    save_results,
    save_run,
)
from repro.fl.simulation import DefenseDecision, RoundRecord


def stats(fp=0.1, fn=0.2):
    return AggregateStats(fp_mean=fp, fp_std=0.01, fn_mean=fn, fn_std=0.02, num_runs=3)


class TestRoundTrip:
    def test_tuple_keys_preserved(self, tmp_path):
        results = {(20, 0.9, "both"): stats(), (10, 0.95, "clients"): stats(0.0, 0.0)}
        path = save_results(results, tmp_path / "out.json")
        loaded, _ = load_results(path)
        assert set(loaded) == set(results)
        assert loaded[(20, 0.9, "both")].fp_mean == pytest.approx(0.1)

    def test_scalar_keys_preserved(self, tmp_path):
        results = {0.9: stats(), "label": stats()}
        path = save_results(results, tmp_path / "out.json")
        loaded, _ = load_results(path)
        assert 0.9 in loaded and "label" in loaded

    def test_metadata_round_trips(self, tmp_path):
        path = save_results(
            {(1,): stats()}, tmp_path / "out.json", metadata={"dataset": "cifar"}
        )
        _, metadata = load_results(path)
        assert metadata == {"dataset": "cifar"}

    def test_all_fields_preserved(self, tmp_path):
        original = stats(0.123, 0.456)
        path = save_results({"x": original}, tmp_path / "out.json")
        loaded, _ = load_results(path)
        restored = loaded["x"]
        assert restored.fp_mean == pytest.approx(original.fp_mean)
        assert restored.fp_std == pytest.approx(original.fp_std)
        assert restored.fn_mean == pytest.approx(original.fn_mean)
        assert restored.fn_std == pytest.approx(original.fn_std)
        assert restored.num_runs == original.num_runs

    def test_creates_parent_dirs(self, tmp_path):
        path = save_results({"a": stats()}, tmp_path / "deep" / "dir" / "out.json")
        assert path.exists()

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "results": {}}')
        with pytest.raises(ValueError):
            load_results(path)


class TestRunFiles:
    def test_round_records_round_trip(self, tmp_path):
        records = [
            RoundRecord(
                round_idx=0, contributor_ids=[1, 2], malicious_present=False,
                accepted=True, decision=DefenseDecision(True, 1, 4),
                metrics={"accuracy": 0.5}, transport_bytes=80,
            ),
            RoundRecord(
                round_idx=1, contributor_ids=[0, 3], malicious_present=True,
                accepted=False, decision=DefenseDecision(False, 3, 4),
            ),
        ]
        rounds, metrics, metadata = load_run(
            save_run(records, tmp_path / "run.json", metadata={"seed": 3})
        )
        assert metrics == {} and metadata == {"seed": 3}
        assert [r["round_idx"] for r in rounds] == [0, 1]
        assert [r["accepted"] for r in rounds] == [True, False]
        assert [r["reject_votes"] for r in rounds] == [1, 3]
        assert rounds[0]["transport_bytes"] == 80
        assert rounds[0]["metrics"] == {"accuracy": 0.5}
        assert "phase_times" not in rounds[0]  # untraced rounds carry none

    def test_rounds_carry_exactly_the_documented_keys(self, tmp_path):
        """The round keys of a run file are its format: any change to them
        is deliberate (and may need a new format version)."""
        record = RoundRecord(
            round_idx=0, contributor_ids=[1], malicious_present=False,
            accepted=True, decision=DefenseDecision(True, 0, 2),
        )
        rounds, _, _ = load_run(save_run([record], tmp_path / "run.json"))
        assert set(rounds[0]) == {
            "round_idx", "accepted", "reject_votes", "num_validators",
            "transport_bytes", "peak_rss_kb", "materialized_clients",
            "metrics",
        }

    def test_files_with_retired_round_keys_still_load(self, tmp_path):
        """Run files written while the round loop could run pipelined
        carry three more keys per round, and those written while stores
        ran weight codecs two more; they load unchanged."""
        old_round = {
            "round_idx": 0, "accepted": True, "reject_votes": 0,
            "accepted_at_round": 2, "validation_lag": 2, "rollback_count": 1,
            "codec": "float16", "raw_transport_bytes": 160,
        }
        path = tmp_path / "old.run.json"
        path.write_text(json.dumps({
            "format_version": 1, "metadata": {}, "metrics": {},
            "rounds": [old_round],
        }))
        rounds, _, _ = load_run(path)
        assert rounds == [old_round]

    def test_unsupported_run_version_rejected(self, tmp_path):
        path = tmp_path / "bad.run.json"
        path.write_text('{"format_version": 99, "rounds": []}')
        with pytest.raises(ValueError, match="run-file version"):
            load_run(path)
