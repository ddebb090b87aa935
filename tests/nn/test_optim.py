"""Unit tests for repro.nn.optim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optim import SGD


def make_param(value=1.0, grad=1.0):
    p = Parameter(np.array([value]))
    p.grad[...] = grad
    return p


class TestSGD:
    def test_plain_step(self):
        p = make_param(1.0, grad=2.0)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.value, [0.8])

    def test_weight_decay_adds_l2_pull(self):
        p = make_param(1.0, grad=0.0)
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.value, [1.0 - 0.1 * 0.5])

    def test_momentum_accumulates_velocity(self):
        p = make_param(0.0, grad=1.0)
        opt = SGD([p], lr=1.0, momentum=0.5)
        opt.step()  # v = 1, x = -1
        p.grad[...] = 1.0
        opt.step()  # v = 1.5, x = -2.5
        np.testing.assert_allclose(p.value, [-2.5])

    def test_nesterov_differs_from_plain_momentum(self):
        p1 = make_param(0.0, grad=1.0)
        p2 = make_param(0.0, grad=1.0)
        SGD([p1], lr=1.0, momentum=0.5).step()
        SGD([p2], lr=1.0, momentum=0.5, nesterov=True).step()
        assert p1.value[0] != p2.value[0]

    def test_lr_override_in_step(self):
        p = make_param(1.0, grad=1.0)
        SGD([p], lr=0.1).step(lr=0.01)
        np.testing.assert_allclose(p.value, [0.99])

    def test_zero_grad_via_optimizer(self):
        p = make_param(1.0, grad=3.0)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert np.all(p.grad == 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1.0},
            {"lr": 0.1, "momentum": 1.0},
            {"lr": 0.1, "weight_decay": -0.1},
            {"lr": 0.1, "nesterov": True},
        ],
    )
    def test_invalid_hyperparams_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SGD([make_param()], **kwargs)

    def test_converges_on_quadratic(self):
        # minimize (x - 3)^2 by hand-computed gradients
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            p.zero_grad()
            p.grad[...] = 2 * (p.value - 3.0)
            opt.step()
        np.testing.assert_allclose(p.value, [3.0], atol=1e-6)

    @pytest.mark.parametrize("momentum, nesterov", [(0.5, False), (0.9, False), (0.5, True)])
    def test_matches_the_update_recurrence(self, momentum, nesterov):
        """``v <- m v + g``; the step is ``v``, or ``g + m v`` with Nesterov."""
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.1, momentum=momentum, nesterov=nesterov)
        x = velocity = 0.0
        for g in (1.0, -2.0, 0.5, 3.0):
            p.grad[...] = g
            opt.step()
            velocity = momentum * velocity + g
            x -= 0.1 * (g + momentum * velocity if nesterov else velocity)
            assert p.value[0] == pytest.approx(x, abs=1e-15)

    def test_each_parameter_keeps_its_own_velocity(self):
        moving, still = make_param(0.0, grad=1.0), make_param(0.0, grad=0.0)
        opt = SGD([moving, still], lr=1.0, momentum=0.9)
        for _ in range(3):
            opt.step()
        np.testing.assert_allclose(moving.value, [-(1.0 + 1.9 + 2.71)])
        np.testing.assert_array_equal(still.value, [0.0])
