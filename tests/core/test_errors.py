"""Unit tests for repro.core.errors (eqs. 2-3 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    ErrorProfile,
    error_variation_vector,
    error_variations,
    model_error_profile,
)
from repro.data.dataset import Dataset
from tests.conftest import train_briefly


def profile_from_vectors(vs, vt, n=100):
    vs = np.asarray(vs, dtype=float)
    return ErrorProfile(vs, np.asarray(vt, dtype=float), n, len(vs))


class TestErrorProfile:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ErrorProfile(np.zeros(3), np.zeros(4), 10, 3)
        with pytest.raises(ValueError):
            ErrorProfile(np.zeros(4), np.zeros(3), 10, 3)

    def test_model_profile_matches_manual_computation(self, tiny_dataset, tiny_mlp):
        profile = model_error_profile(tiny_mlp, tiny_dataset)
        preds = tiny_mlp.predict(tiny_dataset.x)
        wrong = preds != tiny_dataset.y
        for y in range(3):
            manual_source = ((tiny_dataset.y == y) & wrong).mean()
            assert profile.source_errors[y] == pytest.approx(manual_source)
            manual_target = ((preds == y) & wrong).mean()
            assert profile.target_errors[y] == pytest.approx(manual_target)

    def test_trained_model_has_lower_errors(self, tiny_dataset, rng):
        from repro.nn.models import make_mlp

        model = make_mlp(2, 3, rng, hidden=(8,))
        before = model_error_profile(model, tiny_dataset)
        train_briefly(model, tiny_dataset, rng)
        after = model_error_profile(model, tiny_dataset)
        assert after.source_errors.sum() <= before.source_errors.sum()

    def test_empty_dataset_rejected(self, tiny_mlp):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError):
            model_error_profile(tiny_mlp, empty)


class TestErrorVariationVector:
    def test_layout_is_source_then_target(self):
        older = profile_from_vectors([0.3, 0.1, 0.0], [0.2, 0.2, 0.0])
        newer = profile_from_vectors([0.1, 0.1, 0.0], [0.1, 0.3, 0.0])
        v = error_variation_vector(older, newer)
        np.testing.assert_allclose(v[:3], [0.2, 0.0, 0.0])  # eq. (2)
        np.testing.assert_allclose(v[3:], [0.1, -0.1, 0.0])  # eq. (3)

    def test_identical_profiles_give_zero_vector(self):
        p = profile_from_vectors([0.1, 0.2], [0.2, 0.1])
        np.testing.assert_array_equal(
            error_variation_vector(p, p), np.zeros(4)
        )

    def test_dimension_is_twice_num_classes(self):
        p = profile_from_vectors(np.zeros(7), np.zeros(7))
        assert len(error_variation_vector(p, p)) == 14

    def test_class_count_mismatch_rejected(self):
        a = profile_from_vectors(np.zeros(3), np.zeros(3))
        b = profile_from_vectors(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            error_variation_vector(a, b)

    def test_antisymmetry(self):
        a = profile_from_vectors([0.3, 0.0], [0.1, 0.2])
        b = profile_from_vectors([0.1, 0.1], [0.0, 0.2])
        np.testing.assert_allclose(
            error_variation_vector(a, b), -error_variation_vector(b, a)
        )

    def test_identical_models_on_same_data(self, tiny_dataset, tiny_mlp):
        p1 = model_error_profile(tiny_mlp, tiny_dataset)
        p2 = model_error_profile(tiny_mlp.clone(), tiny_dataset)
        np.testing.assert_array_equal(
            error_variation_vector(p1, p2), np.zeros(6)
        )


class TestErrorVariations:
    def test_rows_are_consecutive_older_minus_newer_vectors(self, rng):
        profiles = [
            profile_from_vectors(rng.random(5), rng.random(5)) for _ in range(8)
        ]
        expected = np.stack([
            np.concatenate([
                older.source_errors - newer.source_errors,
                older.target_errors - newer.target_errors,
            ])
            for older, newer in zip(profiles, profiles[1:])
        ])
        assert np.array_equal(error_variations(profiles), expected)

    def test_class_count_mismatch_anywhere_rejected(self):
        profiles = [profile_from_vectors(np.zeros(3), np.zeros(3)) for _ in range(4)]
        profiles.append(profile_from_vectors(np.zeros(4), np.zeros(4)))
        with pytest.raises(ValueError):
            error_variations(profiles)


class TestStackedErrorProfiles:
    """The stacked profile path is bit-identical to per-model profiling."""

    def _models(self, tiny_mlp, rng, count):
        models = []
        for _ in range(count):
            clone = tiny_mlp.clone()
            flat = clone.get_flat()
            clone.set_flat(flat + rng.normal(0.0, 0.5, size=flat.shape))
            models.append(clone)
        return models

    @pytest.mark.parametrize("normalize", ["dataset", "class"])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_bitwise_equal_to_per_model(
        self, tiny_dataset, tiny_mlp, rng, normalize, count
    ):
        from repro.core.errors import stacked_error_profiles

        models = self._models(tiny_mlp, rng, count)
        stacked = stacked_error_profiles(models, tiny_dataset, normalize=normalize)
        for model, profile in zip(models, stacked):
            single = model_error_profile(model, tiny_dataset, normalize=normalize)
            np.testing.assert_array_equal(profile.source_errors, single.source_errors)
            np.testing.assert_array_equal(profile.target_errors, single.target_errors)
            assert profile.num_samples == single.num_samples
            assert profile.num_classes == single.num_classes

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("hidden", [(), (8,), (8, 6)])
    def test_every_mlp_depth_under_both_policies(
        self, tiny_dataset, rng, hidden, policy
    ):
        from repro.core.errors import stacked_error_profiles
        from repro.nn.models import make_mlp
        from repro.nn.precision import dtype_policy

        with dtype_policy(policy):
            models = self._models(make_mlp(2, 3, rng, hidden=hidden), rng, 4)
            stacked = stacked_error_profiles(models, tiny_dataset)
            singles = [model_error_profile(m, tiny_dataset) for m in models]
        for profile, single in zip(stacked, singles, strict=True):
            np.testing.assert_array_equal(profile.source_errors, single.source_errors)
            np.testing.assert_array_equal(profile.target_errors, single.target_errors)

    def test_chunked_stacks_still_match(self, tiny_dataset, tiny_mlp, rng):
        """More models than one cache-budget chunk: results are unchanged
        (per-slice GEMMs are bit-identical under any chunking)."""
        from repro.core import errors as errors_mod
        from repro.core.errors import stacked_error_profiles

        models = self._models(tiny_mlp, rng, 9)
        reference = stacked_error_profiles(models, tiny_dataset)
        old = errors_mod._PROFILE_CHUNK_BYTES
        errors_mod._PROFILE_CHUNK_BYTES = 1  # force 2-model chunks
        try:
            chunked = stacked_error_profiles(models, tiny_dataset)
        finally:
            errors_mod._PROFILE_CHUNK_BYTES = old
        for a, b in zip(reference, chunked):
            np.testing.assert_array_equal(a.source_errors, b.source_errors)
            np.testing.assert_array_equal(a.target_errors, b.target_errors)

    def test_empty_inputs(self, tiny_dataset, tiny_mlp):
        from repro.core.errors import stacked_error_profiles

        assert stacked_error_profiles([], tiny_dataset) == []
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError):
            stacked_error_profiles([tiny_mlp], empty)

    def test_bad_normalize_rejected(self, tiny_dataset, tiny_mlp):
        from repro.core.errors import stacked_error_profiles

        with pytest.raises(ValueError):
            stacked_error_profiles([tiny_mlp], tiny_dataset, normalize="weird")
