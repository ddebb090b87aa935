"""Unit tests for repro.nn.losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy, log_softmax, softmax


class TestSoftmaxHelpers:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(3, 5))
        np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 10)), np.arange(4) % 10)
        assert abs(value - np.log(10)) < 1e-12

    def test_perfect_prediction_gives_near_zero(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        assert loss.forward(logits, np.array([1, 2])) < 1e-8

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)
        loss.forward(logits, targets)
        analytic = loss.backward()
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            plus = logits.copy()
            plus[idx] += eps
            minus = logits.copy()
            minus[idx] -= eps
            numeric[idx] = (
                loss.forward(plus, targets) - loss.forward(minus, targets)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = SoftmaxCrossEntropy()
        loss.forward(rng.normal(size=(6, 3)), rng.integers(0, 3, size=6))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_bad_shapes(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.zeros(3))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()
