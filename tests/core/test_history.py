"""Unit tests for repro.core.history.ModelHistory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import ModelHistory
from repro.nn.models import make_mlp


@pytest.fixture
def model(rng):
    return make_mlp(2, 2, rng, hidden=(4,))


class TestModelHistory:
    def test_versions_increase_monotonically(self, model):
        history = ModelHistory(max_models=3)
        versions = [history.append(model) for _ in range(5)]
        assert versions == [0, 1, 2, 3, 4]

    def test_bounded_retention(self, model):
        history = ModelHistory(max_models=3)
        for _ in range(5):
            history.append(model)
        assert len(history) == 3
        assert history.versions() == [2, 3, 4]

    def test_entries_oldest_first(self, model):
        history = ModelHistory(max_models=4)
        for _ in range(4):
            history.append(model)
        versions = [v for v, _ in history.entries()]
        assert versions == sorted(versions)

    def test_append_stores_snapshot(self, model):
        history = ModelHistory(max_models=2)
        history.append(model)
        model.set_flat(model.get_flat() + 1.0)
        _, stored = history.latest()
        assert not np.allclose(stored.get_flat(), model.get_flat())

    def test_is_full(self, model):
        history = ModelHistory(max_models=2)
        assert not history.is_full
        history.append(model)
        history.append(model)
        assert history.is_full

    def test_latest_on_empty_raises(self):
        with pytest.raises(LookupError):
            ModelHistory(max_models=2).latest()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ModelHistory(max_models=0)

    def test_straggler_reference_survives_eviction(self, model):
        """An in-flight consumer's store reference keeps an evicted
        version readable until released (the deferred-release contract)."""
        history = ModelHistory(max_models=2)
        oldest = history.append(model)
        history.store.acquire(oldest)  # the in-flight validator's hold
        history.append(model)
        history.append(model)  # evicts ``oldest`` from the window
        assert oldest not in history.versions()
        assert oldest in history.store  # still resolvable for the straggler
        history.store.get(oldest)
        history.store.release(oldest)
        assert oldest not in history.store


def _distinct(model, rng):
    """A clone of ``model`` with perturbed weights."""
    other = model.clone()
    flat = model.get_flat()
    other.set_flat(flat + rng.normal(0.0, 0.1, size=flat.shape))
    return other


class TestStagedCommits:
    """The one commit path of a reviewed round: stage the candidate, then
    commit it (accepted) or discard it (rejected)."""

    def test_commit_evicts_the_oldest_only_when_full(self, model, rng):
        history = ModelHistory(max_models=2)
        evicted: list[int] = []
        history.add_eviction_listener(evicted.append)
        history.append(model)
        history.append(model)
        version = history.stage_candidate(_distinct(model, rng))
        assert evicted == []  # staging alone displaces nothing
        assert history.commit_staged() == version
        assert history.versions() == [1, version]
        assert evicted == [0]
        assert 0 not in history.store

    def test_discard_leaves_the_window_untouched(self, model, rng):
        history = ModelHistory(max_models=2)
        evicted: list[int] = []
        history.add_eviction_listener(evicted.append)
        history.append(model)
        history.append(model)
        before = history.versions()
        version = history.stage_candidate(_distinct(model, rng))
        history.discard_staged()
        assert history.versions() == before
        assert evicted == []
        assert version not in history.store
        assert history.staged_version is None

    def test_discard_without_a_stage_is_a_noop(self, model):
        history = ModelHistory(max_models=2)
        history.append(model)
        history.discard_staged()
        assert history.versions() == [0]
        assert history.store.versions() == [0]

    def test_discarded_versions_are_never_reused(self, model, rng):
        history = ModelHistory(max_models=3)
        history.append(model)
        rejected = history.stage_candidate(_distinct(model, rng))
        history.discard_staged()
        accepted = history.stage_candidate(_distinct(model, rng))
        assert accepted > rejected
        assert history.commit_staged() == accepted
        assert history.versions() == [0, accepted]

    def test_staged_candidate_is_not_an_entry(self, model, rng):
        history = ModelHistory(max_models=3)
        history.append(model)
        history.stage_candidate(_distinct(model, rng))
        assert [version for version, _ in history.entries()] == [0]
        assert history.latest()[0] == 0

    def test_latest_is_the_committed_candidate(self, model, rng):
        history = ModelHistory(max_models=3)
        history.append(model)
        candidate = _distinct(model, rng)
        version = history.stage_candidate(candidate)
        history.commit_staged()
        latest_version, latest = history.latest()
        assert latest_version == version
        np.testing.assert_array_equal(latest.get_flat(), candidate.get_flat())

    def test_entries_read_back_each_committed_model(self, model, rng):
        history = ModelHistory(max_models=3)
        models = [_distinct(model, rng) for _ in range(3)]
        for accepted in models:
            history.append(accepted)
        for (_, stored), accepted in zip(history.entries(), models):
            np.testing.assert_array_equal(stored.get_flat(), accepted.get_flat())

    def test_straggler_reference_survives_discard(self, model, rng):
        """A vote still running on a rejected candidate holds its own store
        reference: discarding the candidate keeps it readable until that
        vote releases it."""
        history = ModelHistory(max_models=3)
        history.append(model)
        version = history.stage_candidate(_distinct(model, rng))
        history.store.acquire(version)  # the in-flight validator's hold
        history.discard_staged()
        assert version in history.store
        history.store.get(version)
        history.store.release(version)
        assert version not in history.store
