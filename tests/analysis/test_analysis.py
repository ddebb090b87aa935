"""Unit tests for the repro.analysis toolkit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    collect_validator_trace,
    detection_latency,
    rejection_bursts,
    update_norm_stats,
    vote_summary,
)
from repro.core.validation import MisclassificationValidator
from repro.fl.client import HonestClient, LocalTrainingConfig, local_train
from repro.fl.simulation import DefenseDecision, RoundRecord
from repro.nn.models import make_mlp


def record(round_idx, accepted, reject_votes=0, num_validators=0):
    return RoundRecord(
        round_idx=round_idx,
        contributor_ids=[],
        malicious_present=False,
        accepted=accepted,
        decision=DefenseDecision(
            accepted=accepted,
            reject_votes=reject_votes,
            num_validators=num_validators,
        ),
    )


class TestDetectionLatency:
    def test_immediate_rejection_is_zero(self):
        records = [record(5, accepted=False)]
        assert detection_latency(records, [5]) == {5: 0}

    def test_later_rejection_counted(self):
        records = [record(5, True), record(6, True), record(7, False)]
        assert detection_latency(records, [5]) == {5: 2}

    def test_miss_is_none(self):
        records = [record(5, True), record(6, True)]
        assert detection_latency(records, [5]) == {5: None}


class TestRejectionBursts:
    def test_single_burst(self):
        records = [record(0, True), record(1, False), record(2, False), record(3, True)]
        assert rejection_bursts(records) == [(1, 2)]

    def test_trailing_burst_closed(self):
        records = [record(0, True), record(1, False)]
        assert rejection_bursts(records) == [(1, 1)]

    def test_no_rejections(self):
        assert rejection_bursts([record(0, True)]) == []

    def test_multiple_bursts(self):
        records = [
            record(0, False), record(1, True), record(2, False), record(3, False),
        ]
        assert rejection_bursts(records) == [(0, 1), (2, 2)]


class TestVoteSummary:
    def test_summary_values(self):
        records = [
            record(0, True, reject_votes=2, num_validators=10),
            record(1, False, reject_votes=8, num_validators=10),
        ]
        summary = vote_summary(records)
        assert summary["rounds"] == 2.0
        assert summary["mean_reject_share"] == pytest.approx(0.5)
        assert summary["max_reject_share"] == pytest.approx(0.8)

    def test_no_votes(self):
        summary = vote_summary([record(0, True)])
        assert summary["rounds"] == 0.0


class TestValidatorTrace:
    @pytest.fixture
    def model_sequence(self, tiny_dataset, rng):
        model = make_mlp(2, 3, rng, hidden=(8,))
        local_train(model, tiny_dataset, LocalTrainingConfig(epochs=15, lr=0.1), rng)
        sequence = [model.clone()]
        for _ in range(14):
            local_train(model, tiny_dataset, LocalTrainingConfig(epochs=1, lr=0.02), rng)
            sequence.append(model.clone())
        return sequence

    def test_trace_lengths_align(self, model_sequence, tiny_dataset):
        validator = MisclassificationValidator(tiny_dataset)
        trace = collect_validator_trace(validator, model_sequence, lookback=8)
        n = len(model_sequence) - 1
        assert len(trace.rounds) == n
        assert len(trace.votes) == n
        assert len(trace.margin()) == n

    def test_early_rounds_abstain(self, model_sequence, tiny_dataset):
        validator = MisclassificationValidator(tiny_dataset)
        trace = collect_validator_trace(validator, model_sequence, lookback=8)
        assert trace.candidate_lofs[0] is None  # history of 1: abstain
        assert not np.isnan(trace.margin()[-1])  # mature history: real LOF

    def test_input_validation(self, model_sequence, tiny_dataset):
        validator = MisclassificationValidator(tiny_dataset)
        with pytest.raises(ValueError):
            collect_validator_trace(validator, model_sequence, lookback=2)
        with pytest.raises(ValueError):
            collect_validator_trace(validator, model_sequence[:1], lookback=8)


class TestUpdateNormStats:
    def test_statistics_consistent(self, tiny_dataset, rng):
        model = make_mlp(2, 3, rng, hidden=(8,))
        clients = [HonestClient(i, tiny_dataset) for i in range(5)]
        stats = update_norm_stats(clients, model, LocalTrainingConfig(), rng)
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.percentile_95 <= stats.maximum + 1e-12

    def test_outlier_factor(self, tiny_dataset, rng):
        model = make_mlp(2, 3, rng, hidden=(8,))
        clients = [HonestClient(i, tiny_dataset) for i in range(4)]
        stats = update_norm_stats(clients, model, LocalTrainingConfig(), rng)
        assert stats.outlier_factor(10 * stats.percentile_95) == pytest.approx(10.0)

    def test_boosted_update_sticks_out(self, tiny_dataset, rng):
        """A model-replacement-boosted norm dwarfs honest norms."""
        model = make_mlp(2, 3, rng, hidden=(8,))
        clients = [HonestClient(i, tiny_dataset) for i in range(5)]
        stats = update_norm_stats(clients, model, LocalTrainingConfig(), rng)
        boosted_norm = 30.0 * stats.mean  # N/lambda = 30 boost
        assert stats.outlier_factor(boosted_norm) > 5.0

    def test_empty_clients_rejected(self, rng, tiny_mlp):
        with pytest.raises(ValueError):
            update_norm_stats([], tiny_mlp, LocalTrainingConfig(), rng)
