"""Tests for the stacked execution substrate (repro.nn.stacked).

The headline guarantee: a stacked forward/backward/update over ``M``
same-architecture models is **bit-identical** to ``M`` per-model passes.
That rests on two host-BLAS properties (batched matmul == per-slice 2-D
matmul of the same shape; trailing-axis reductions associate identically
for equal trailing shapes), both re-verified here on every host running
the suite — if a BLAS build ever breaks them, these tests fail before any
engine-equivalence test does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.activations import Tanh
from repro.nn.batchnorm import BatchNorm1d
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import make_cnn, make_mlp, make_resnet_lite
from repro.nn.network import Network
from repro.nn.optim import SGD
from repro.nn.stacked import (
    StackedNetwork,
    StackedParameter,
    StackedSGD,
    StackingUnsupportedError,
    clip_gradients_stacked,
    stacked_predict,
    stacked_softmax_ce_grad,
    supports_stacking,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBlasBitIdentityAssumptions:
    """The two host properties the stacked substrate is built on."""

    def test_batched_matmul_equals_per_slice(self, rng):
        for m, b, d, h in [(2, 1, 3, 2), (7, 32, 193, 64), (5, 17, 8, 11)]:
            x = rng.normal(size=(m, b, d))
            w = rng.normal(size=(m, d, h))
            batched = np.matmul(x, w)
            for i in range(m):
                np.testing.assert_array_equal(batched[i], x[i] @ w[i])
            # Transposed operands (the backward pass shapes) too.
            wgrad = np.matmul(x.transpose(0, 2, 1), batched)
            igrad = np.matmul(batched, w.transpose(0, 2, 1))
            for i in range(m):
                np.testing.assert_array_equal(wgrad[i], x[i].T @ batched[i])
                np.testing.assert_array_equal(igrad[i], batched[i] @ w[i].T)

    def test_shared_input_broadcast_equals_per_slice(self, rng):
        x = rng.normal(size=(19, 23))
        w = rng.normal(size=(6, 23, 9))
        out = np.matmul(x, w)
        for i in range(6):
            np.testing.assert_array_equal(out[i], x @ w[i])

    def test_trailing_axis_reductions_match(self, rng):
        arr = rng.normal(size=(5, 13, 7))
        s = arr.sum(axis=-1)
        m = arr.max(axis=-1)
        for i in range(5):
            np.testing.assert_array_equal(s[i], arr[i].sum(axis=-1))
            np.testing.assert_array_equal(m[i], arr[i].max(axis=-1))


def _stack_of_perturbed(template: Network, count: int, rng) -> list[Network]:
    models = []
    for _ in range(count):
        clone = template.clone()
        flat = clone.get_flat()
        clone.set_flat(flat + rng.normal(0.0, 0.1, size=flat.shape))
        models.append(clone)
    return models


class TestConstructionAndFlatViews:
    def test_from_network_round_trips_flat_rows(self, rng):
        template = make_mlp(5, 3, rng, hidden=(4,))
        flats = rng.normal(size=(4, template.num_parameters))
        stacked = StackedNetwork.from_network(template, flats)
        np.testing.assert_array_equal(stacked.get_flat(), flats)

    def test_from_models_matches_per_model_flats(self, rng):
        template = make_cnn((2, 8, 8), 4, rng, channels=(3,))
        models = _stack_of_perturbed(template, 3, rng)
        stacked = StackedNetwork.from_models(models)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(stacked.get_flat()[i], model.get_flat())

    def test_shape_mismatch_rejected(self, rng):
        template = make_mlp(5, 3, rng, hidden=(4,))
        with pytest.raises(ValueError):
            StackedNetwork.from_network(
                template, np.zeros((2, template.num_parameters + 1))
            )
        other = make_mlp(6, 3, rng, hidden=(4,))
        with pytest.raises(ValueError):
            StackedNetwork.from_models([template, other])

    def test_unsupported_layers_raise_and_probe_false(self, rng):
        from repro.nn.layers import Residual

        for network in (
            Network([Dense(4, 4, rng), Tanh(), Dense(4, 2, rng)]),
            # A Residual is only stackable if its *inner* layers are.
            Network([Dense(4, 4, rng), Residual([Dense(4, 4, rng), Tanh()])]),
        ):
            assert not supports_stacking(network)
            with pytest.raises(StackingUnsupportedError):
                StackedNetwork.from_models([network, network])

    def test_batchnorm_and_resnet_probe_true(self, rng):
        assert supports_stacking(
            Network([Dense(4, 4, rng), BatchNorm1d(4), Dense(4, 2, rng)])
        )
        assert supports_stacking(make_resnet_lite((2, 6, 6), 3, rng))

    def test_dense_subclass_is_not_silently_stacked(self, rng):
        class WeirdDense(Dense):
            def forward(self, x, train=False):
                return super().forward(x, train=train) + 1.0

        assert not supports_stacking(Network([WeirdDense(3, 2, rng)]))

    def test_supported_factories_probe_true(self, rng):
        assert supports_stacking(make_mlp(5, 3, rng, hidden=(4, 3), dropout=0.2))
        assert supports_stacking(make_cnn((2, 8, 8), 4, rng, channels=(3, 4)))


class TestForwardEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_mlp_shared_input(self, rng, count):
        template = make_mlp(7, 4, rng, hidden=(6, 5))
        models = _stack_of_perturbed(template, count, rng)
        x = rng.normal(size=(13, 7))
        out = StackedNetwork.from_models(models).forward(x)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(x))

    def test_mlp_per_model_inputs(self, rng):
        template = make_mlp(5, 3, rng, hidden=(4,))
        models = _stack_of_perturbed(template, 3, rng)
        xs = rng.normal(size=(3, 9, 5))
        out = StackedNetwork.from_models(models).forward(xs)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(xs[i]))

    def test_cnn_shared_input(self, rng):
        template = make_cnn((2, 8, 8), 4, rng, channels=(3, 4))
        models = _stack_of_perturbed(template, 4, rng)
        x = rng.normal(size=(5, 2, 8, 8))
        out = StackedNetwork.from_models(models).forward(x)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(x))

    def test_predict_bitwise_equal_and_batched(self, rng):
        template = make_mlp(6, 5, rng, hidden=(8,))
        models = _stack_of_perturbed(template, 6, rng)
        x = rng.normal(size=(700, 6))  # spans multiple 512-sample batches
        preds = stacked_predict(models, x)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(preds[i], model.predict(x))


def _per_model_step(model, x, y, lr=0.1, momentum=0.9, weight_decay=0.0):
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                    weight_decay=weight_decay)
    model.zero_grad()
    loss.forward(model.forward(x, train=True), y)
    model.backward(loss.backward())
    optimizer.step()
    return model.get_flat(), model.get_grad_flat()


class TestTrainingStepEquivalence:
    @pytest.mark.parametrize("factory, sample_shape", [
        (lambda rng: make_mlp(6, 4, rng, hidden=(5,)), (6,)),
        (lambda rng: make_cnn((2, 8, 8), 3, rng, channels=(3,)), (2, 8, 8)),
    ])
    def test_one_step_grads_and_weights_match(self, rng, factory, sample_shape):
        template = factory(rng)
        models = _stack_of_perturbed(template, 3, rng)
        xs = rng.normal(size=(3, 8) + sample_shape)
        ys = rng.integers(0, 3, size=(3, 8))

        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        optimizer.step()

        for i, model in enumerate(models):
            flat, _ = _per_model_step(model.clone(), xs[i], ys[i])
            np.testing.assert_array_equal(stacked.get_flat()[i], flat)

    def test_masked_step_leaves_idle_models_untouched(self, rng):
        template = make_mlp(4, 3, rng, hidden=(4,))
        models = _stack_of_perturbed(template, 3, rng)
        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        xs = rng.normal(size=(2, 5, 4))
        ys = rng.integers(0, 3, size=(2, 5))
        before = stacked.get_flat().copy()

        stacked.zero_grad()
        logits = stacked.forward(xs, train=True, idx=[0, 2])
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        optimizer.step(active=np.array([True, False, True]))

        after = stacked.get_flat()
        np.testing.assert_array_equal(after[1], before[1])  # bit-untouched
        for row, i in ((0, 0), (2, 1)):
            flat, _ = _per_model_step(models[row].clone(), xs[i], ys[i])
            np.testing.assert_array_equal(after[row], flat)

    def test_weight_decay_and_nesterov_match(self, rng):
        template = make_mlp(4, 3, rng, hidden=(4,))
        models = _stack_of_perturbed(template, 2, rng)
        xs = rng.normal(size=(2, 6, 4))
        ys = rng.integers(0, 3, size=(2, 6))

        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(
            stacked.parameters(), lr=0.05, momentum=0.8, weight_decay=1e-3,
            nesterov=True,
        )
        for _ in range(3):
            stacked.zero_grad()
            logits = stacked.forward(xs, train=True)
            stacked.backward(stacked_softmax_ce_grad(logits, ys))
            optimizer.step()

        for i, model in enumerate(models):
            clone = model.clone()
            loss = SoftmaxCrossEntropy()
            sgd = SGD(clone.parameters(), lr=0.05, momentum=0.8,
                      weight_decay=1e-3, nesterov=True)
            for _ in range(3):
                clone.zero_grad()
                loss.forward(clone.forward(xs[i], train=True), ys[i])
                clone.backward(loss.backward())
                sgd.step()
            np.testing.assert_array_equal(stacked.get_flat()[i], clone.get_flat())

    def test_clip_matches_per_model_clip(self, rng):
        from repro.fl.client import clip_gradients

        template = make_mlp(4, 3, rng, hidden=(4,))
        models = _stack_of_perturbed(template, 3, rng)
        xs = rng.normal(size=(3, 6, 4)) * 5.0  # large inputs force clipping
        ys = rng.integers(0, 3, size=(3, 6))

        stacked = StackedNetwork.from_models(models)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        clip_gradients_stacked(stacked.parameters(), 0.05)

        loss = SoftmaxCrossEntropy()
        for i, model in enumerate(models):
            clone = model.clone()
            clone.zero_grad()
            loss.forward(clone.forward(xs[i], train=True), ys[i])
            clone.backward(loss.backward())
            clip_gradients(clone, 0.05)
            offset = 0
            stacked_grads = np.concatenate(
                [p.grad[i].ravel() for p in stacked.parameters()]
            )
            np.testing.assert_array_equal(stacked_grads, clone.get_grad_flat())
            del offset

    def test_clip_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            clip_gradients_stacked([StackedParameter(np.zeros((2, 3)))], 0.0)

    def test_dropout_streams_match_cloned_models(self, rng):
        template = make_mlp(5, 3, rng, hidden=(6,), dropout=0.4)
        # Per-model path: each clone's dropout generator is a deepcopy of
        # the template's; the stacked path must reproduce exactly that.
        xs = rng.normal(size=(3, 7, 5))
        ys = rng.integers(0, 3, size=(3, 7))
        stacked = StackedNetwork.from_models([template] * 3)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.0)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        optimizer.step()
        for i in range(3):
            flat, _ = _per_model_step(template.clone(), xs[i], ys[i], momentum=0.0)
            np.testing.assert_array_equal(stacked.get_flat()[i], flat)


class TestErrorsAndEdges:
    def test_backward_before_forward_raises(self, rng):
        template = make_mlp(4, 3, rng, hidden=(4,))
        stacked = StackedNetwork.from_models([template, template])
        with pytest.raises(RuntimeError):
            stacked.backward(np.zeros((2, 3, 3)))

    def test_predict_empty_input_raises(self, rng):
        template = make_mlp(4, 3, rng, hidden=(4,))
        stacked = StackedNetwork.from_models([template])
        with pytest.raises(ValueError):
            stacked.predict(np.zeros((0, 4)))

    def test_stacked_predict_needs_models(self):
        with pytest.raises(ValueError):
            stacked_predict([], np.zeros((3, 4)))

    def test_loss_grad_shape_checked(self, rng):
        with pytest.raises(ValueError):
            stacked_softmax_ce_grad(np.zeros((2, 3, 4)), np.zeros((3, 2), dtype=int))

    def test_sgd_validation(self):
        p = [StackedParameter(np.zeros((2, 3)))]
        with pytest.raises(ValueError):
            StackedSGD(p, lr=0.0)
        with pytest.raises(ValueError):
            StackedSGD(p, momentum=1.0)
        with pytest.raises(ValueError):
            StackedSGD(p, weight_decay=-1.0)
        with pytest.raises(ValueError):
            StackedSGD(p, nesterov=True, momentum=0.0)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 5),
    input_dim=st.integers(2, 9),
    hidden=st.integers(2, 9),
    num_classes=st.integers(2, 5),
    batch=st.integers(1, 9),
)
def test_property_stacked_step_equals_per_model(
    seed, count, input_dim, hidden, num_classes, batch
):
    """Random odd shapes: one stacked SGD step == per-model SGD steps."""
    rng = np.random.default_rng(seed)
    template = make_mlp(input_dim, num_classes, rng, hidden=(hidden,))
    models = _stack_of_perturbed(template, count, rng)
    xs = rng.normal(size=(count, batch, input_dim))
    ys = rng.integers(0, num_classes, size=(count, batch))

    stacked = StackedNetwork.from_models(models)
    optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
    stacked.zero_grad()
    logits = stacked.forward(xs, train=True)
    stacked.backward(stacked_softmax_ce_grad(logits, ys))
    optimizer.step()

    for i, model in enumerate(models):
        flat, _ = _per_model_step(model.clone(), xs[i], ys[i])
        np.testing.assert_array_equal(stacked.get_flat()[i], flat)


def _bn_mlp(input_dim: int, hidden: int, num_classes: int, rng) -> Network:
    return Network([
        Dense(input_dim, hidden, rng),
        BatchNorm1d(hidden),
        ReLU(),
        Dense(hidden, num_classes, rng),
    ])


class TestBatchNormAndResidualEquivalence:
    """Stacked BatchNorm1d / Residual == per-model, bit for bit."""

    def test_batchnorm_train_step_and_running_stats_match(self, rng):
        template = _bn_mlp(6, 5, 3, rng)
        models = _stack_of_perturbed(template, 3, rng)
        xs = rng.normal(size=(3, 8, 6))
        ys = rng.integers(0, 3, size=(3, 8))

        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        optimizer.step()

        stacked_bn = stacked.layers[1]
        for i, model in enumerate(models):
            clone = model.clone()
            flat, _ = _per_model_step(clone, xs[i], ys[i])
            np.testing.assert_array_equal(stacked.get_flat()[i], flat)
            # The local (non-parameter) running statistics track too.
            bn = clone.layers[1]
            np.testing.assert_array_equal(stacked_bn.running_mean[i], bn.running_mean)
            np.testing.assert_array_equal(stacked_bn.running_var[i], bn.running_var)

    def test_batchnorm_eval_uses_per_model_running_stats(self, rng):
        template = _bn_mlp(5, 4, 3, rng)
        models = _stack_of_perturbed(template, 4, rng)
        # Desynchronize the running statistics per model before stacking.
        for i, model in enumerate(models):
            model.forward(rng.normal(size=(6 + i, 5)), train=True)
        x = rng.normal(size=(9, 5))
        out = StackedNetwork.from_models(models).forward(x)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(x))

    def test_resnet_lite_train_step_matches(self, rng):
        template = make_resnet_lite((2, 6, 6), 3, rng, width=4, num_blocks=1)
        models = _stack_of_perturbed(template, 3, rng)
        xs = rng.normal(size=(3, 4, 2, 6, 6))
        ys = rng.integers(0, 3, size=(3, 4))

        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        optimizer.step()

        for i, model in enumerate(models):
            flat, _ = _per_model_step(model.clone(), xs[i], ys[i])
            np.testing.assert_array_equal(stacked.get_flat()[i], flat)

    def test_resnet_lite_from_network_shared_input(self, rng):
        template = make_resnet_lite((2, 6, 6), 3, rng, width=4, num_blocks=2)
        models = _stack_of_perturbed(template, 3, rng)
        flats = np.stack([model.get_flat() for model in models])
        stacked = StackedNetwork.from_network(template, flats)
        np.testing.assert_array_equal(stacked.get_flat(), flats)
        x = rng.normal(size=(5, 2, 6, 6))
        out = stacked.forward(x)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(x))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 4),
    input_dim=st.integers(2, 8),
    hidden=st.integers(2, 8),
    batch=st.integers(2, 9),
)
def test_property_stacked_batchnorm_step_equals_per_model(
    seed, count, input_dim, hidden, batch
):
    """Random odd shapes through BatchNorm1d: stacked == per-model."""
    rng = np.random.default_rng(seed)
    template = _bn_mlp(input_dim, hidden, 3, rng)
    models = _stack_of_perturbed(template, count, rng)
    xs = rng.normal(size=(count, batch, input_dim))
    ys = rng.integers(0, 3, size=(count, batch))

    stacked = StackedNetwork.from_models(models)
    optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
    stacked.zero_grad()
    logits = stacked.forward(xs, train=True)
    stacked.backward(stacked_softmax_ce_grad(logits, ys))
    optimizer.step()

    for i, model in enumerate(models):
        flat, _ = _per_model_step(model.clone(), xs[i], ys[i])
        np.testing.assert_array_equal(stacked.get_flat()[i], flat)
