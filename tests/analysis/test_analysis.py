"""Unit tests for the repro.analysis toolkit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ValidatorTrace,
    collect_validator_trace,
    detection_latency,
    rejection_bursts,
    update_norm_stats,
    vote_summary,
)
from repro.core.validation import MisclassificationValidator
from repro.data.dataset import Dataset
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

    @staticmethod
    def _noisy_world():
        """Overlapping classes and randomly perturbed models: the error
        profiles differ, so LOFs spread on both sides of ``slack * tau``
        (the separable ``tiny_dataset`` ties every LOF at tau)."""
        rng = np.random.default_rng(1)
        centers = np.array([[1.0, 0.0], [-1.0, 0.7], [0.0, -1.2]])
        labels = np.repeat(np.arange(3), 40)
        x = centers[labels] + rng.normal(0.0, 0.8, size=(120, 2))
        dataset = Dataset(x, labels, num_classes=3)
        model = make_mlp(2, 3, rng, hidden=(8,))
        local_train(model, dataset, LocalTrainingConfig(epochs=5, lr=0.1), rng)
        sequence = [model.clone()]
        for i in range(24):
            perturbed = model.clone()
            perturbed.set_flat(model.get_flat() + rng.normal(
                0.0, 0.05 * (1 + i % 5), size=model.num_parameters
            ))
            sequence.append(perturbed)
        return dataset, sequence

    @pytest.mark.parametrize("slack", [1.15, 1.0])
    def test_margin_above_one_is_exactly_a_reject_vote(self, slack):
        """The margin divides by ``slack * tau``, the validator's own
        rejection threshold, so its sign against 1 is the vote."""
        dataset, sequence = self._noisy_world()
        validator = MisclassificationValidator(dataset, threshold_slack=slack)
        trace = collect_validator_trace(validator, sequence, lookback=8)
        assert trace.slack == slack
        margins = trace.margin()
        voted = [i for i, lof in enumerate(trace.candidate_lofs) if lof is not None]
        votes = {trace.votes[i] for i in voted}
        assert votes == {0, 1}  # both outcomes occur
        for i in voted:
            assert (margins[i] > 1) == (trace.votes[i] == 1), i
        if slack > 1:
            # The world has accept votes with LOF/tau in (1, slack]: the
            # rounds an undivided LOF/tau would misread as rejects.
            assert any(
                1 < trace.candidate_lofs[i] / trace.thresholds[i] <= slack
                for i in voted
            )

    def test_margin_between_one_and_slack_is_an_accept(self):
        """LOF/tau = 1.1 sits under the default 1.15 slack: an accept vote,
        so its margin must read below 1."""
        trace = ValidatorTrace(
            slack=1.15, rounds=[1], candidate_lofs=[1.1], thresholds=[1.0],
            votes=[0],
        )
        assert trace.margin()[0] == pytest.approx(1.1 / 1.15)

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
