"""Unit tests for repro.nn.network.Network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import make_mlp
from repro.nn.network import Network


class TestFlatParameterViews:
    def test_get_set_roundtrip(self, tiny_mlp):
        flat = tiny_mlp.get_flat()
        tiny_mlp.set_flat(flat * 2.0)
        np.testing.assert_allclose(tiny_mlp.get_flat(), flat * 2.0)

    def test_flat_length_matches_num_parameters(self, tiny_mlp):
        assert len(tiny_mlp.get_flat()) == tiny_mlp.num_parameters

    def test_set_flat_rejects_wrong_length(self, tiny_mlp):
        with pytest.raises(ValueError):
            tiny_mlp.set_flat(np.zeros(3))

    def test_set_flat_changes_forward_output(self, tiny_mlp, rng):
        x = rng.normal(size=(4, 2))
        before = tiny_mlp.forward(x)
        tiny_mlp.set_flat(tiny_mlp.get_flat() + 0.5)
        after = tiny_mlp.forward(x)
        assert not np.allclose(before, after)

    def test_grad_flat_matches_parameter_grads(self, tiny_mlp, rng):
        loss = SoftmaxCrossEntropy()
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 3, size=4)
        tiny_mlp.zero_grad()
        loss.forward(tiny_mlp.forward(x, train=True), y)
        tiny_mlp.backward(loss.backward())
        flat_grad = tiny_mlp.get_grad_flat()
        manual = np.concatenate([p.grad.ravel() for p in tiny_mlp.parameters()])
        np.testing.assert_array_equal(flat_grad, manual)


class TestCloneSemantics:
    def test_clone_is_deep(self, tiny_mlp):
        clone = tiny_mlp.clone()
        clone.set_flat(clone.get_flat() + 1.0)
        assert not np.allclose(tiny_mlp.get_flat(), clone.get_flat())

    def test_clone_predicts_identically(self, tiny_mlp, rng):
        x = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(
            tiny_mlp.predict(x), tiny_mlp.clone().predict(x)
        )

    def test_clone_of_a_trained_network_carries_no_training_caches(self, rng):
        """A clone copies weights only: it predicts like its parent, but it
        has neither the parent's last batch nor its gradients, so a
        backward before its own training forward raises."""
        network = make_mlp(192, 10, rng, hidden=(64,))
        loss = SoftmaxCrossEntropy()
        x = rng.normal(size=(8, 192))
        loss.forward(network.forward(x, train=True), rng.integers(0, 10, size=8))
        network.backward(loss.backward())
        clone = network.clone()
        with pytest.raises(RuntimeError, match="before forward"):
            clone.backward(np.ones((8, 10)))
        assert not np.any(clone.get_grad_flat())
        assert np.any(network.get_grad_flat())
        np.testing.assert_array_equal(clone.predict(x), network.predict(x))
        np.testing.assert_array_equal(clone.get_flat(), network.get_flat())

    def test_clone_keeps_the_parameter_dtype_under_another_policy(self, rng):
        from repro.nn.precision import dtype_policy

        with dtype_policy("float32"):
            network = make_mlp(4, 3, rng, hidden=(5,))
        clone = network.clone()
        assert clone.get_flat().dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in clone.parameters())


class TestInference:
    def test_predict_shape_and_range(self, tiny_mlp, rng):
        preds = tiny_mlp.predict(rng.normal(size=(7, 2)))
        assert preds.shape == (7,)
        assert preds.min() >= 0 and preds.max() < 3

    def test_predict_batched_equals_unbatched(self, tiny_mlp, rng):
        x = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(
            tiny_mlp.predict(x, batch_size=3), tiny_mlp.predict(x, batch_size=100)
        )

    def test_predict_proba_rows_sum_to_one(self, tiny_mlp, rng):
        probs = tiny_mlp.predict_proba(rng.normal(size=(6, 2)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_predict_empty_input_raises(self, tiny_mlp):
        with pytest.raises(ValueError):
            tiny_mlp.predict(np.zeros((0, 2)))


class TestTraining:
    def test_loss_decreases_on_tiny_dataset(self, tiny_dataset, rng):
        from tests.conftest import train_briefly

        model = make_mlp(2, 3, rng, hidden=(8,))
        loss = SoftmaxCrossEntropy()
        initial = loss.forward(model.forward(tiny_dataset.x), tiny_dataset.y)
        train_briefly(model, tiny_dataset, rng)
        final = loss.forward(model.forward(tiny_dataset.x), tiny_dataset.y)
        assert final < initial / 5

    def test_zero_grad_clears_all(self, tiny_mlp, rng):
        loss = SoftmaxCrossEntropy()
        x = rng.normal(size=(4, 2))
        loss.forward(tiny_mlp.forward(x, train=True), rng.integers(0, 3, size=4))
        tiny_mlp.backward(loss.backward())
        tiny_mlp.zero_grad()
        assert np.all(tiny_mlp.get_grad_flat() == 0.0)

    def test_repr_mentions_layers(self, tiny_mlp):
        assert "Dense" in repr(tiny_mlp)


class TestEmptyNetwork:
    def test_empty_network_flat_params(self):
        net = Network([])
        assert net.get_flat().shape == (0,)
        assert net.num_parameters == 0
