"""Unit tests for Algorithm 2 (MisclassificationValidator)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import validation
from repro.core.errors import ErrorProfile
from repro.core.validation import (
    ConstantVoteValidator,
    MisclassificationValidator,
    ValidationContext,
    ValidationReport,
)
from repro.data.dataset import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import make_mlp
from repro.nn.optim import SGD
from tests.core.test_lof import oracle_lof


@pytest.fixture
def evolution(rng):
    """A gently evolving model history + validation data.

    Returns ``(history, dataset, final_model)`` where history holds 13
    training snapshots (versions 0..12).
    """
    centers = np.array([[2.0, 0.0], [-2.0, 1.5], [0.0, -2.5]])
    labels = np.tile(np.arange(3), 40)
    x = centers[labels] + rng.normal(0.0, 0.8, size=(120, 2))
    dataset = Dataset(x, labels, 3)
    model = make_mlp(2, 3, rng, hidden=(8,))
    loss = SoftmaxCrossEntropy()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    history = []
    version = 0
    for _ in range(40):
        model.zero_grad()
        loss.forward(model.forward(dataset.x, train=True), dataset.y)
        model.backward(loss.backward())
        opt.step()
    for _ in range(13):
        for _ in range(2):
            model.zero_grad()
            loss.forward(model.forward(dataset.x, train=True), dataset.y)
            model.backward(loss.backward())
            opt.step()
        history.append((version, model.clone()))
        version += 1
    return history, dataset, model


def poison_model(model, dataset, rng):
    """Fine-tune the model to misclassify class 0 as class 1."""
    poisoned = model.clone()
    flipped = dataset.y.copy()
    flipped[dataset.y == 0] = 1
    loss = SoftmaxCrossEntropy()
    opt = SGD(poisoned.parameters(), lr=0.1, momentum=0.9)
    for _ in range(30):
        poisoned.zero_grad()
        loss.forward(poisoned.forward(dataset.x, train=True), flipped)
        poisoned.backward(loss.backward())
        opt.step()
    return poisoned


class TestVoting:
    def test_benign_continuation_accepted(self, evolution, rng):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        # one more benign step as the candidate
        candidate = model.clone()
        loss = SoftmaxCrossEntropy()
        opt = SGD(candidate.parameters(), lr=0.05)
        for _ in range(2):
            candidate.zero_grad()
            loss.forward(candidate.forward(dataset.x, train=True), dataset.y)
            candidate.backward(loss.backward())
            opt.step()
        vote = validator.vote(ValidationContext(candidate, history), rng)
        assert vote == 0

    def test_poisoned_candidate_rejected(self, evolution, rng):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        poisoned = poison_model(model, dataset, rng)
        vote = validator.vote(ValidationContext(poisoned, history), rng)
        assert vote == 1

    def test_identical_candidate_accepted(self, evolution, rng):
        """A candidate with the exact predictions of the latest model."""
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        candidate = history[-1][1].clone()
        vote = validator.vote(ValidationContext(candidate, history), rng)
        assert vote == 0

    def test_short_history_abstains(self, evolution, rng):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        report = validator.explain(ValidationContext(model, history[:3]))
        assert report.abstained
        assert report.vote == 0


class TestReports:
    def test_report_fields_populated(self, evolution):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        report = validator.explain(ValidationContext(model, history))
        assert not report.abstained
        assert report.candidate_lof is not None
        assert report.threshold is not None
        assert len(report.trusted_lofs) >= 1

    def test_poisoned_lof_exceeds_benign_lof(self, evolution, rng):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        benign = validator.explain(ValidationContext(history[-1][1], history))
        poisoned_model = poison_model(model, dataset, rng)
        poisoned = validator.explain(ValidationContext(poisoned_model, history))
        assert poisoned.candidate_lof > benign.candidate_lof


class TestCaching:
    def test_profiles_cached_by_version(self, evolution):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        validator.explain(ValidationContext(model, history))
        cached = set(validator._profile_cache)
        assert cached == {v for v, _ in history}

    def test_cache_pruned_for_old_versions(self, evolution):
        history, dataset, model = evolution
        validator = MisclassificationValidator(dataset)
        validator.explain(ValidationContext(model, history))
        validator.explain(ValidationContext(model, history[5:]))
        assert min(validator._profile_cache) >= history[5][0]


class TestConfiguration:
    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            MisclassificationValidator(empty)

    def test_bad_min_history_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            MisclassificationValidator(tiny_dataset, min_history=2)

    def test_bad_slack_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            MisclassificationValidator(tiny_dataset, threshold_slack=0.9)

    def test_slack_one_is_paper_literal_rule(self, evolution, rng):
        """slack = 1.0 is accepted (the paper's exact threshold)."""
        history, dataset, _ = evolution
        validator = MisclassificationValidator(dataset, threshold_slack=1.0)
        report = validator.explain(ValidationContext(history[-1][1], history))
        assert not report.abstained


class TestConstantVoteValidator:
    def test_always_rejects(self, evolution, rng):
        history, dataset, model = evolution
        dos = ConstantVoteValidator(1)
        assert dos.vote(ValidationContext(model, history), rng) == 1

    def test_always_accepts(self, evolution, rng):
        history, dataset, model = evolution
        shill = ConstantVoteValidator(0)
        assert shill.vote(ValidationContext(model, history), rng) == 0

    def test_invalid_vote_rejected(self):
        with pytest.raises(ValueError):
            ConstantVoteValidator(2)


class TestStackedProfileValidation:
    """Stacked cold-profile computation changes throughput, never votes."""

    def _history(self, tiny_mlp, rng, count=7):
        history = []
        for version in range(count):
            clone = tiny_mlp.clone()
            flat = clone.get_flat()
            clone.set_flat(flat + rng.normal(0.0, 0.5, size=flat.shape))
            history.append((version, clone))
        return history

    def _count_profile_calls(self, monkeypatch):
        """Record every model each profile entry point is asked for."""
        calls = {"stacked": [], "per_model": []}
        real_stacked = validation.stacked_error_profiles
        real_single = validation.model_error_profile

        def stacked(models, dataset, normalize="dataset"):
            calls["stacked"].append(list(models))
            return real_stacked(models, dataset, normalize=normalize)

        def single(model, dataset, normalize="dataset"):
            calls["per_model"].append(model)
            return real_single(model, dataset, normalize=normalize)

        monkeypatch.setattr(validation, "stacked_error_profiles", stacked)
        monkeypatch.setattr(validation, "model_error_profile", single)
        return calls

    def test_cold_reports_identical_with_and_without_stacking(
        self, tiny_dataset, tiny_mlp, rng, monkeypatch
    ):
        history = self._history(tiny_mlp, rng)
        candidate = tiny_mlp.clone()
        flat = candidate.get_flat()
        candidate.set_flat(flat + rng.normal(0.0, 0.5, size=flat.shape))
        context = ValidationContext(candidate, history)
        calls = self._count_profile_calls(monkeypatch)
        stacked = MisclassificationValidator(tiny_dataset, min_history=4).explain(
            context
        )
        assert len(calls["stacked"]) == 1 and calls["per_model"] == []
        # Reference: the per-model path, forced by hiding stackability.
        monkeypatch.setattr(validation, "supports_stacking", lambda net: False)
        plain = MisclassificationValidator(tiny_dataset, min_history=4).explain(
            context
        )
        assert len(calls["stacked"]) == 1
        assert len(calls["per_model"]) == len(history) + 1
        assert stacked == plain
        assert not stacked.abstained

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 6)])
    def test_every_mlp_depth_takes_the_stacked_path(
        self, tiny_dataset, rng, monkeypatch, hidden
    ):
        template = make_mlp(2, 3, rng, hidden=hidden)
        history = self._history(template, rng)
        candidate = template.clone()
        candidate.set_flat(
            candidate.get_flat() + rng.normal(0.0, 0.5, size=template.num_parameters)
        )
        context = ValidationContext(candidate, history)
        calls = self._count_profile_calls(monkeypatch)
        stacked = MisclassificationValidator(tiny_dataset, min_history=4).explain(
            context
        )
        assert len(calls["stacked"]) == 1 and calls["per_model"] == []
        monkeypatch.setattr(validation, "supports_stacking", lambda net: False)
        plain = MisclassificationValidator(tiny_dataset, min_history=4).explain(
            context
        )
        assert len(calls["per_model"]) == len(history) + 1
        assert stacked == plain

    def test_stacked_fill_populates_the_version_cache(
        self, tiny_dataset, tiny_mlp, rng
    ):
        history = self._history(tiny_mlp, rng)
        validator = MisclassificationValidator(tiny_dataset, min_history=4)
        validator.explain(ValidationContext(tiny_mlp.clone(), history))
        assert set(validator._profile_cache) == {v for v, _ in history}

    def test_unstackable_architecture_falls_back(
        self, tiny_dataset, rng, monkeypatch
    ):
        from repro.nn.layers import Dense
        from repro.nn.network import Network
        from tests.conftest import Square

        # Stacking is unsupported for this network, so the validator
        # silently takes the per-model path for every model.
        template = Network([Dense(2, 8, rng), Square(), Dense(8, 3, rng)])
        history = self._history(template, rng, count=6)
        calls = self._count_profile_calls(monkeypatch)
        candidate = template.clone()
        report = MisclassificationValidator(tiny_dataset, min_history=4).explain(
            ValidationContext(candidate, history)
        )
        assert calls["stacked"] == []
        assert calls["per_model"] == [model for _, model in history] + [candidate]
        assert not report.abstained


def per_window_algorithm2(profiles, candidate, features, slack):
    """Algorithm 2 as one oracle LOF call per window on per-pair vectors."""

    def variation(older, newer):
        v = np.concatenate(
            [older.source_errors - newer.source_errors,
             older.target_errors - newer.target_errors]
        )
        half = len(v) // 2
        return {"both": v, "source": v[:half], "target": v[half:]}[features]

    lookback = len(profiles) - 1
    points = np.stack([variation(profiles[i - 1], profiles[i])
                       for i in range(1, len(profiles))])
    new = variation(profiles[-1], candidate)
    k = max(1, int(np.ceil(lookback / 2)))
    h = int(np.ceil(lookback * 3 / 4))
    window = h - 1
    k = min(k, window - 1)
    trusted = [
        oracle_lof(points[i - 1], points[i - window - 1 : i - 1], k)
        for i in range(h, lookback + 1)
    ]
    threshold = float(np.mean(trusted))
    candidate_lof = oracle_lof(new, points[-window:], k)
    vote = 1 if candidate_lof > slack * threshold else 0
    return ValidationReport(vote, candidate_lof, threshold, tuple(trusted), False)


def random_profile(rng, num_classes, num_samples, pool):
    """Error rates of a small validation set: counts over its size, often
    repeating a previous model's exactly (a stable model's predictions)."""
    if pool and rng.random() < 0.5:
        return pool[int(rng.integers(0, len(pool)))]
    counts = rng.integers(0, 4, size=(2, num_classes))
    profile = ErrorProfile(
        source_errors=counts[0] / num_samples,
        target_errors=counts[1] / num_samples,
        num_samples=num_samples,
        num_classes=num_classes,
    )
    pool.append(profile)
    return profile


class TestBatchedAlgorithm2:
    """``explain`` scores every window in one batched LOF call and must
    report exactly what one LOF call per window reports."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lookback=st.integers(5, 30),
        features=st.sampled_from(["both", "source", "target"]),
        num_classes=st.integers(2, 10),
    )
    def test_explain_equals_per_window_algorithm2(
        self, seed, lookback, features, num_classes
    ):
        rng = np.random.default_rng(seed)
        pool = []
        profiles = [random_profile(rng, num_classes, 40, pool)
                    for _ in range(lookback + 1)]
        candidate = random_profile(rng, num_classes, 40, pool)
        dataset = Dataset(np.zeros((4, 2)), np.arange(4) % 2, 2)
        validator = MisclassificationValidator(dataset, features=features)
        validator.seed_profile_cache(dict(enumerate(profiles)))
        history = [(version, object()) for version in range(lookback + 1)]
        # Every history profile is cached; the candidate's comes from here.
        with mock.patch.object(
            validation, "model_error_profile", return_value=candidate
        ) as profile_call:
            report = validator.explain(ValidationContext(object(), history))
        profile_call.assert_called_once()
        assert report == per_window_algorithm2(
            profiles, candidate, features, validator.threshold_slack
        )
        assert len(report.trusted_lofs) == lookback - int(np.ceil(lookback * 3 / 4)) + 1
