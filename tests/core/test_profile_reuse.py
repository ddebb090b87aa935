"""Regression: an accepted candidate's error profile is computed once.

Before the fix, ``MisclassificationValidator.explain`` profiled the
candidate, the server committed the candidate into the history, and the
next round the validator recomputed the *same* model's profile from
scratch because the cache key (the history version) did not exist at
explain time.  ``note_committed`` re-files the profile under the version
assigned at commit time.
"""

from __future__ import annotations

from repro.core import validation as validation_mod
from repro.core.baffle import BaffleConfig, BaffleDefense
from repro.core.validation import MisclassificationValidator


def _perturbed(model, rng, scale=1e-3):
    clone = model.clone()
    flat = clone.get_flat()
    clone.set_flat(flat + rng.normal(0.0, scale, size=flat.shape))
    return clone


def build_server_defense(tiny_dataset):
    validator = MisclassificationValidator(tiny_dataset, min_history=4)
    defense = BaffleDefense(
        BaffleConfig(lookback=4, mode="server"), server_validator=validator
    )
    return defense, validator


class TestCommittedProfileReuse:
    def test_accepted_candidate_profile_not_recomputed(
        self, tiny_dataset, tiny_mlp, rng, monkeypatch
    ):
        profiled = []
        real = validation_mod.model_error_profile

        def counting(model, dataset, normalize="dataset"):
            profiled.append(model)
            return real(model, dataset, normalize=normalize)

        monkeypatch.setattr(validation_mod, "model_error_profile", counting)
        # The per-model path: every profile goes through the counted entry.
        monkeypatch.setattr(validation_mod, "supports_stacking", lambda net: False)

        defense, _ = build_server_defense(tiny_dataset)
        for _ in range(5):  # fill the look-back window with trusted models
            defense.prime(_perturbed(tiny_mlp, rng))

        first = _perturbed(tiny_mlp, rng)
        defense.review(first, round_idx=0, rng=rng)
        first_round_profiles = len(profiled)
        assert first_round_profiles == 6  # 5 history models + the candidate
        defense.record_outcome(first, accepted=True)

        second = _perturbed(tiny_mlp, rng)
        defense.review(second, round_idx=1, rng=rng)
        # History now holds 4 old models (profiles cached) plus the committed
        # ``first`` (profile re-filed at commit time): only the new candidate
        # needs a forward pass.
        assert len(profiled) == first_round_profiles + 1
        assert profiled[-1] is second

    def test_reuse_holds_under_stacked_profiles(
        self, tiny_dataset, tiny_mlp, rng, monkeypatch
    ):
        """With profile stacking, the cold round runs one stacked pass and
        warm rounds still profile only the fresh candidate."""
        per_model = []
        stacked_calls = []
        real_single = validation_mod.model_error_profile
        real_stacked = validation_mod.stacked_error_profiles

        def counting_single(model, dataset, normalize="dataset"):
            per_model.append(model)
            return real_single(model, dataset, normalize=normalize)

        def counting_stacked(models, dataset, normalize="dataset"):
            stacked_calls.append(list(models))
            return real_stacked(models, dataset, normalize=normalize)

        monkeypatch.setattr(validation_mod, "model_error_profile", counting_single)
        monkeypatch.setattr(
            validation_mod, "stacked_error_profiles", counting_stacked
        )

        defense, _ = build_server_defense(tiny_dataset)
        for _ in range(5):
            defense.prime(_perturbed(tiny_mlp, rng))

        first = _perturbed(tiny_mlp, rng)
        defense.review(first, round_idx=0, rng=rng)
        # One stacked pass covering the 5 history models + the candidate.
        assert len(stacked_calls) == 1
        assert len(stacked_calls[0]) == 6
        assert per_model == []
        defense.record_outcome(first, accepted=True)

        second = _perturbed(tiny_mlp, rng)
        defense.review(second, round_idx=1, rng=rng)
        # Warm cache: nothing left to stack, only the new candidate is
        # profiled — the committed round's profile was re-filed, not redone.
        assert len(stacked_calls) == 1
        assert per_model == [second]

    def test_rejected_candidate_profile_is_dropped(
        self, tiny_dataset, tiny_mlp, rng
    ):
        defense, validator = build_server_defense(tiny_dataset)
        for _ in range(5):
            defense.prime(_perturbed(tiny_mlp, rng))
        candidate = _perturbed(tiny_mlp, rng)
        defense.review(candidate, round_idx=0, rng=rng)
        assert validator._pending_candidate is not None
        defense.record_outcome(candidate, accepted=False)
        # Rejected candidates never enter the history, so nothing is filed;
        # the pending slot is cleared by the next explain() call.
        versions_before = set(validator._profile_cache)
        defense.review(_perturbed(tiny_mlp, rng), round_idx=1, rng=rng)
        assert set(validator._profile_cache) == versions_before
        assert validator._pending_candidate is not None  # the new candidate

    def test_note_committed_ignores_foreign_candidates(
        self, tiny_dataset, tiny_mlp, rng
    ):
        validator = MisclassificationValidator(tiny_dataset, min_history=4)
        validator.note_committed(tiny_mlp, version=99)  # nothing pending
        assert 99 not in validator._profile_cache
