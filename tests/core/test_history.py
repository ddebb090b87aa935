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
        """A vote still running past its deadline keeps the models of its
        context: evicting a version from the window leaves them readable."""
        history = ModelHistory(max_models=2)
        oldest = history.append(model)
        context = history.entries()  # the in-flight validator's view
        history.append(model)
        history.append(model)  # evicts ``oldest`` from the window
        assert oldest not in history.versions()
        assert oldest not in history.store
        np.testing.assert_array_equal(context[0][1].get_flat(), model.get_flat())


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
        history.append(model)
        history.append(model)
        version = history.stage_candidate(_distinct(model, rng))
        assert history.store.versions() == [0, 1, version]  # nothing displaced
        assert history.commit_staged() == version
        assert history.versions() == [1, version]
        assert history.store.versions() == [1, version]

    def test_discard_leaves_the_window_untouched(self, model, rng):
        history = ModelHistory(max_models=2)
        history.append(model)
        history.append(model)
        before = history.versions()
        version = history.stage_candidate(_distinct(model, rng))
        history.discard_staged()
        assert history.versions() == before
        assert history.store.versions() == before
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
        """A vote still running on a rejected candidate holds the models of
        its context: discarding the candidate from the store leaves them
        readable."""
        history = ModelHistory(max_models=3)
        history.append(model)
        candidate = _distinct(model, rng)
        version = history.stage_candidate(candidate)
        context = (candidate, history.entries())  # the in-flight vote's view
        history.discard_staged()
        assert version not in history.store
        np.testing.assert_array_equal(context[0].get_flat(), candidate.get_flat())
        np.testing.assert_array_equal(context[1][0][1].get_flat(), model.get_flat())

    def test_commit_twice_without_restaging_rejected(self, model, rng):
        history = ModelHistory(max_models=3)
        history.stage_candidate(_distinct(model, rng))
        history.commit_staged()
        with pytest.raises(RuntimeError, match="no candidate is staged"):
            history.commit_staged()

    def test_first_model_may_arrive_by_staging(self, model):
        history = ModelHistory(max_models=3)
        version = history.stage_candidate(model)
        assert len(history) == 0
        assert history.commit_staged() == version
        latest_version, latest = history.latest()
        assert latest_version == version
        np.testing.assert_array_equal(latest.get_flat(), model.get_flat())

    def test_restaged_candidate_is_the_one_that_commits(self, model, rng):
        history = ModelHistory(max_models=3)
        history.append(model)
        first = history.stage_candidate(_distinct(model, rng))
        second_model = _distinct(model, rng)
        second = history.stage_candidate(second_model)
        assert history.commit_staged() == second
        assert history.versions() == [0, second]
        assert history.store.versions() == [0, second]
        assert first not in history.store
        np.testing.assert_array_equal(
            history.latest()[1].get_flat(), second_model.get_flat()
        )

    def test_identical_candidate_gets_a_fresh_version(self, model):
        """Staging never deduplicates against the window: every reviewed
        round gets its own strictly increasing version."""
        history = ModelHistory(max_models=3)
        committed = history.append(model)
        staged = history.stage_candidate(model)
        assert staged > committed
        assert history.store.refcount(committed) == 1
        assert history.store.refcount(staged) == 1

    def test_staging_changes_neither_length_nor_latest(self, model, rng):
        history = ModelHistory(max_models=2)
        history.append(model)
        history.append(model)
        history.stage_candidate(_distinct(model, rng))
        assert len(history) == 2 and history.is_full
        assert history.latest()[0] == 1


class TestWindowAccounting:
    """The history's store holds exactly its window, one reference per
    version, whatever the capacity and however many models went by."""

    @pytest.mark.parametrize("max_models", [1, 2, 5])
    def test_store_holds_exactly_the_window(self, model, rng, max_models):
        history = ModelHistory(max_models=max_models)
        for _ in range(7):
            history.append(_distinct(model, rng))
        assert len(history) == max_models
        assert history.store.versions() == history.versions()
        assert all(history.store.refcount(v) == 1 for v in history.versions())

    @pytest.mark.parametrize("outcomes", [
        (True, False, True, True),
        (False, False, False, True),
        (True, True, True, True),
    ])
    def test_reviewed_rounds_leave_only_the_window(self, model, rng, outcomes):
        history = ModelHistory(max_models=2)
        history.append(model)
        accepted = [0]
        for accept in outcomes:
            version = history.stage_candidate(_distinct(model, rng))
            if accept:
                history.commit_staged()
                accepted.append(version)
            else:
                history.discard_staged()
        assert history.versions() == accepted[-2:]
        assert history.store.versions() == history.versions()
        assert history.staged_version is None

    def test_entries_materialize_each_version_once(self, model, rng):
        history = ModelHistory(max_models=3)
        for _ in range(3):
            history.append(_distinct(model, rng))
        first = [m for _, m in history.entries()]
        again = [m for _, m in history.entries()]
        assert all(a is b for a, b in zip(first, again))
        assert history.latest()[1] is first[-1]
