"""Unit tests for repro.nn.metrics, including the paper's error views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    source_focused_errors,
    target_focused_errors,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_half(self):
        assert accuracy(np.array([0, 1]), np.array([0, 2])) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))


class TestConfusionMatrix:
    def test_counts(self):
        conf = confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
        np.testing.assert_array_equal(conf, [[1, 1], [0, 2]])

    def test_total_equals_samples(self, rng):
        y = rng.integers(0, 5, size=100)
        p = rng.integers(0, 5, size=100)
        assert confusion_matrix(y, p, 5).sum() == 100

    def test_diagonal_is_correct_predictions(self, rng):
        y = rng.integers(0, 4, size=50)
        p = y.copy()
        conf = confusion_matrix(y, p, 4)
        assert np.trace(conf) == 50

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 5]), np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 1]), np.array([0, 7]), 3)


class TestErrorViews:
    def test_source_focused_definition(self):
        # class 0: 1 of 3 samples misclassified; class 1: 0 of 1.
        y = np.array([0, 0, 0, 1])
        p = np.array([0, 0, 1, 1])
        conf = confusion_matrix(y, p, 2)
        np.testing.assert_allclose(
            source_focused_errors(conf, normalize="dataset"), [0.25, 0.0]
        )
        np.testing.assert_allclose(
            source_focused_errors(conf, normalize="class"), [1 / 3, 0.0]
        )

    def test_target_focused_definition(self):
        # one sample wrongly assigned to class 1
        y = np.array([0, 0, 0, 1])
        p = np.array([0, 0, 1, 1])
        conf = confusion_matrix(y, p, 2)
        np.testing.assert_allclose(
            target_focused_errors(conf, normalize="dataset"), [0.0, 0.25]
        )

    def test_perfect_model_has_zero_errors(self, rng):
        y = rng.integers(0, 3, size=30)
        conf = confusion_matrix(y, y, 3)
        assert source_focused_errors(conf).sum() == 0.0
        assert target_focused_errors(conf).sum() == 0.0

    def test_source_and_target_sums_agree(self, rng):
        # total misclassified mass is the same from both views
        y = rng.integers(0, 4, size=60)
        p = rng.integers(0, 4, size=60)
        conf = confusion_matrix(y, p, 4)
        assert source_focused_errors(conf).sum() == pytest.approx(
            target_focused_errors(conf).sum()
        )

    def test_class_normalization_handles_absent_class(self):
        y = np.array([0, 0])
        p = np.array([0, 1])
        conf = confusion_matrix(y, p, 3)
        errors = source_focused_errors(conf, normalize="class")
        assert errors[2] == 0.0  # absent class: defined as zero, not NaN

    def test_unknown_normalize_mode_rejected(self):
        conf = confusion_matrix(np.array([0]), np.array([0]), 2)
        with pytest.raises(ValueError):
            source_focused_errors(conf, normalize="bogus")

    def test_empty_confusion_rejected(self):
        with pytest.raises(ValueError):
            source_focused_errors(np.zeros((3, 3), dtype=int))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            source_focused_errors(np.zeros((2, 3)))
