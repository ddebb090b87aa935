"""Unit tests for repro.nn.models factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.initializers import he_normal
from repro.nn.layers import Dense, ReLU
from repro.nn.models import make_mlp


class TestMakeMLP:
    def test_output_shape(self, rng):
        net = make_mlp(10, 4, rng, hidden=(16, 8))
        assert net.forward(rng.normal(size=(3, 10))).shape == (3, 4)

    def test_hidden_widths_respected(self, rng):
        net = make_mlp(10, 4, rng, hidden=(16, 8))
        dense_shapes = [p.shape for p in net.parameters() if p.value.ndim == 2]
        assert dense_shapes == [(10, 16), (16, 8), (8, 4)]

    def test_invalid_dims_rejected(self, rng):
        with pytest.raises(ValueError):
            make_mlp(0, 3, rng)
        with pytest.raises(ValueError):
            make_mlp(3, 0, rng)

    def test_deterministic_given_seed(self):
        a = make_mlp(5, 3, np.random.default_rng(7))
        b = make_mlp(5, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a.get_flat(), b.get_flat())

    @pytest.mark.parametrize("hidden", [(), (3,), (16, 8), (4, 4, 4)])
    def test_layer_sequence_and_parameter_count(self, rng, hidden):
        net = make_mlp(10, 4, rng, hidden=hidden)
        widths = [10, *hidden, 4]
        assert [type(layer) for layer in net.layers] == [Dense, ReLU] * len(hidden) + [Dense]
        dense = [layer for layer in net.layers if type(layer) is Dense]
        assert [(d.in_features, d.out_features) for d in dense] == list(
            zip(widths[:-1], widths[1:])
        )
        assert net.num_parameters == sum(
            (fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:])
        )
        assert all(np.all(d.bias.value == 0.0) for d in dense)

    def test_draws_one_he_normal_matrix_per_dense_layer(self):
        """Biases start at zero without a draw, so the seed fixes the
        weights through one He-normal draw per layer, in order."""
        net = make_mlp(5, 3, np.random.default_rng(3), hidden=(4,))
        rng = np.random.default_rng(3)
        expected = [he_normal((5, 4), rng), he_normal((4, 3), rng)]
        weights = [layer.weight.value for layer in net.layers if type(layer) is Dense]
        assert len(weights) == len(expected)
        for weight, reference in zip(weights, expected):
            np.testing.assert_array_equal(weight, reference)
