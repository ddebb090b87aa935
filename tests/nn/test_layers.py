"""Unit tests for repro.nn.layers: shapes, semantics, exact gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Dense, Parameter, ReLU
from repro.nn.precision import dtype_policy


def numeric_grad(forward_fn, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-6):
    """Central-difference gradient of ``sum(forward(x) * grad_out)`` w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = float((forward_fn(x) * grad_out).sum())
        flat[i] = orig - eps
        minus = float((forward_fn(x) * grad_out).sum())
        flat[i] = orig
        grad.ravel()[i] = (plus - minus) / (2 * eps)
    return grad


class TestParameter:
    def test_zero_grad_resets(self):
        p = Parameter(np.ones((2, 2)))
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_shape_and_size(self):
        p = Parameter(np.zeros((3, 4)))
        assert p.shape == (3, 4)
        assert p.size == 12

    def test_repr_contains_name(self):
        assert "myparam" in repr(Parameter(np.zeros(2), name="myparam"))


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias_option(self, rng):
        layer = Dense(4, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_input_gradient_matches_numeric(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))
        layer.forward(x, train=True)
        grad_in = layer.backward(grad_out)
        numeric = numeric_grad(lambda a: layer.forward(a), x.copy(), grad_out)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-7)

    def test_weight_gradient_accumulates(self, rng):
        layer = Dense(2, 2, rng)
        x = rng.normal(size=(3, 2))
        grad_out = rng.normal(size=(3, 2))
        layer.forward(x, train=True)
        layer.backward(grad_out)
        first = layer.weight.grad.copy()
        layer.forward(x, train=True)
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_backward_without_forward_raises(self, rng):
        layer = Dense(2, 2, rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("batch, fan_in, fan_out", [(1, 1, 1), (5, 4, 3), (3, 7, 2)])
    def test_every_gradient_matches_numeric(self, rng, bias, batch, fan_in, fan_out):
        layer = Dense(fan_in, fan_out, rng, bias=bias)
        x = rng.normal(size=(batch, fan_in))
        grad_out = rng.normal(size=(batch, fan_out))
        layer.forward(x, train=True)
        grad_in = layer.backward(grad_out)
        numeric = numeric_grad(lambda a: layer.forward(a), x.copy(), grad_out)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-7)
        for param in layer.parameters():

            def forward_with(value, param=param):
                saved, param.value = param.value, value
                try:
                    return layer.forward(x)
                finally:
                    param.value = saved

            numeric = numeric_grad(forward_with, param.value.copy(), grad_out)
            np.testing.assert_allclose(param.grad, numeric, atol=1e-7)

    def test_evaluation_forward_keeps_the_training_cache(self, rng):
        """A validation pass between a training forward and its backward
        must not replace the cached training input."""
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))
        layer.forward(x, train=True)
        layer.forward(rng.normal(size=(6, 3)))
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.weight.grad, x.T @ grad_out)


class TestReLU:
    def test_forward_clamps_negatives(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x, train=True)
        grad = layer.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 7.0]])

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 2)))

    def test_gradient_at_zero_is_zero(self):
        layer = ReLU()
        layer.forward(np.array([[0.0, -0.0, 1e-300]]), train=True)
        grad = layer.backward(np.ones((1, 3)))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])

    def test_evaluation_forward_keeps_the_training_mask(self):
        layer = ReLU()
        layer.forward(np.array([[1.0, -1.0]]), train=True)
        layer.forward(np.array([[-1.0, 1.0]]))
        grad = layer.backward(np.array([[3.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[3.0, 0.0]])


class TestDtypePreservation:
    """Both layers keep the policy dtype end to end: a float32 pass must
    not be silently upcast."""

    @pytest.mark.parametrize("policy", ["float32", "float64"])
    def test_dense(self, rng, policy):
        with dtype_policy(policy):
            layer = Dense(4, 3, rng)
            out = layer.forward(rng.normal(size=(5, 4)).astype(policy), train=True)
            grad_in = layer.backward(np.ones_like(out))
        for array in (out, grad_in, layer.weight.grad, layer.bias.grad):
            assert array.dtype == np.dtype(policy)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu(self, rng, dtype):
        x = rng.normal(size=(5, 7)).astype(dtype)
        relu = ReLU()
        assert relu.forward(x, train=True).dtype == dtype
        assert relu.backward(x).dtype == dtype
