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

from repro.nn import layers
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import make_mlp
from repro.nn.network import Network
from repro.nn.optim import SGD
from repro.nn.precision import dtype_policy
from repro.nn.stacked import (
    StackedDense,
    StackedNetwork,
    StackedParameter,
    StackedSGD,
    StackingUnsupportedError,
    clip_gradients_stacked,
    stacked_predict,
    stacked_softmax_ce_grad,
    supports_stacking,
)
from tests.conftest import Square

#: The ``make_mlp`` depths the matrices below cover: no hidden layer (one
#: ``Dense`` that is both the first and the last layer), then one to three.
_ARCHITECTURES = [(), (5,), (6, 4), (7, 5, 3)]

#: One SGD configuration per update branch of ``SGD.step``/``StackedSGD.step``.
_OPTIMIZERS = {
    "plain": {"lr": 0.1},
    "momentum": {"lr": 0.1, "momentum": 0.9},
    "nesterov-decay": {"lr": 0.05, "momentum": 0.8, "weight_decay": 1e-3,
                       "nesterov": True},
    "decay": {"lr": 0.1, "weight_decay": 1e-2},
}


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture(params=["float64", "float32"])
def policy(request):
    """Run the test body under each precision policy in turn: the float32
    engine contract runs through the same stacked kernels as float64."""
    with dtype_policy(request.param):
        yield np.dtype(request.param)


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


def _grad_rows(stacked: StackedNetwork) -> np.ndarray:
    """``(M, P)`` gradient matrix laid out like ``Network.get_grad_flat``."""
    return np.concatenate(
        [p.grad.reshape(p.num_models, -1) for p in stacked.parameters()], axis=1
    )


class TestConstructionAndFlatViews:
    def test_from_network_round_trips_flat_rows(self, rng):
        template = make_mlp(5, 3, rng, hidden=(4,))
        flats = rng.normal(size=(4, template.num_parameters))
        stacked = StackedNetwork.from_network(template, flats)
        np.testing.assert_array_equal(stacked.get_flat(), flats)

    @pytest.mark.parametrize("hidden", _ARCHITECTURES)
    def test_from_models_matches_per_model_flats(self, rng, policy, hidden):
        models = _stack_of_perturbed(make_mlp(6, 4, rng, hidden=hidden), 3, rng)
        flats = np.stack([model.get_flat() for model in models])
        by_models = StackedNetwork.from_models(models)
        by_flats = StackedNetwork.from_network(models[0], flats)
        assert by_models.get_flat().dtype == policy
        np.testing.assert_array_equal(by_models.get_flat(), flats)
        np.testing.assert_array_equal(by_flats.get_flat(), flats)
        x = rng.normal(size=(5, 6))
        np.testing.assert_array_equal(by_flats.forward(x), by_models.forward(x))

    def test_shape_mismatch_rejected(self, rng):
        template = make_mlp(5, 3, rng, hidden=(4,))
        with pytest.raises(ValueError):
            StackedNetwork.from_network(
                template, np.zeros((2, template.num_parameters + 1))
            )
        other = make_mlp(6, 3, rng, hidden=(4,))
        with pytest.raises(ValueError):
            StackedNetwork.from_models([template, other])

    def test_layer_count_mismatch_rejected(self, rng):
        """Equal parameter counts are not enough: the layers must line up."""
        with_relu = Network([Dense(5, 4, rng), ReLU(), Dense(4, 3, rng)])
        without = Network([Dense(5, 4, rng), Dense(4, 3, rng)])
        assert with_relu.num_parameters == without.num_parameters
        with pytest.raises(ValueError, match="one architecture"):
            StackedNetwork.from_models([with_relu, without])

    def test_unsupported_layers_raise_and_probe_false(self, rng):
        network = Network([Dense(4, 4, rng), Square(), Dense(4, 2, rng)])
        assert not supports_stacking(network)
        with pytest.raises(StackingUnsupportedError):
            StackedNetwork.from_models([network, network])
        with pytest.raises(StackingUnsupportedError):
            StackedNetwork.from_network(
                network, np.zeros((2, network.num_parameters))
            )

    def test_dense_subclass_is_not_silently_stacked(self, rng):
        class WeirdDense(Dense):
            def forward(self, x, train=False):
                return super().forward(x, train=train) + 1.0

        assert not supports_stacking(Network([WeirdDense(3, 2, rng)]))

    def test_relu_subclass_is_not_silently_stacked(self, rng):
        class ShiftedReLU(ReLU):
            def forward(self, x, train=False):
                return super().forward(x, train=train) - 1.0

        assert not supports_stacking(Network([Dense(3, 2, rng), ShiftedReLU()]))


class TestForwardEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_mlp_shared_input(self, rng, count):
        template = make_mlp(7, 4, rng, hidden=(6, 5))
        models = _stack_of_perturbed(template, count, rng)
        x = rng.normal(size=(13, 7))
        out = StackedNetwork.from_models(models).forward(x)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(x))

    @pytest.mark.parametrize("hidden", _ARCHITECTURES)
    def test_mlp_shared_input_at_every_depth(self, rng, policy, hidden):
        models = _stack_of_perturbed(make_mlp(6, 4, rng, hidden=hidden), 4, rng)
        x = rng.normal(size=(11, 6))
        out = StackedNetwork.from_models(models).forward(x)
        assert out.dtype == policy
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(x))

    @pytest.mark.parametrize("hidden", _ARCHITECTURES)
    def test_mlp_per_model_inputs(self, rng, policy, hidden):
        """One batch per model, over the whole stack or over a contiguous
        row range of it; a shared input broadcasts over the range only."""
        models = _stack_of_perturbed(make_mlp(5, 3, rng, hidden=hidden), 4, rng)
        stacked = StackedNetwork.from_models(models)
        xs = rng.normal(size=(4, 9, 5))
        out = stacked.forward(xs)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(out[i], model.forward(xs[i]))
        out = stacked.forward(xs[:2], rows=slice(1, 3))
        assert out.shape == (2, 9, 3)
        for row, i in enumerate((1, 2)):
            np.testing.assert_array_equal(out[row], models[i].forward(xs[row]))
        out = stacked.forward(xs[0], rows=slice(3, 4))
        assert out.shape == (1, 9, 3)
        np.testing.assert_array_equal(out[0], models[3].forward(xs[0]))

    @pytest.mark.parametrize("hidden", _ARCHITECTURES)
    def test_predict_bitwise_equal_and_batched(self, rng, policy, hidden):
        template = make_mlp(6, 5, rng, hidden=hidden)
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


def _per_model_train(model, xs, ys, optimizer_kwargs):
    """Per-model reference: one SGD step per ``(x, y)`` batch."""
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model.parameters(), **optimizer_kwargs)
    for x, y in zip(xs, ys):
        model.zero_grad()
        loss.forward(model.forward(x, train=True), y)
        model.backward(loss.backward())
        optimizer.step()
    return model.get_flat()


class TestTrainingStepEquivalence:
    @pytest.mark.parametrize("hidden", _ARCHITECTURES)
    def test_one_step_grads_and_weights_match(self, rng, policy, hidden):
        models = _stack_of_perturbed(make_mlp(6, 4, rng, hidden=hidden), 3, rng)
        xs = rng.normal(size=(3, 8, 6))
        ys = rng.integers(0, 4, size=(3, 8))

        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        grads = _grad_rows(stacked)
        optimizer.step()

        assert grads.dtype == policy
        for i, model in enumerate(models):
            flat, grad = _per_model_step(model.clone(), xs[i], ys[i])
            np.testing.assert_array_equal(grads[i], grad)
            np.testing.assert_array_equal(stacked.get_flat()[i], flat)

    @pytest.mark.parametrize("kwargs", list(_OPTIMIZERS.values()), ids=list(_OPTIMIZERS))
    def test_sgd_settings_match_over_steps(self, rng, policy, kwargs):
        models = _stack_of_perturbed(make_mlp(5, 3, rng, hidden=(6,)), 3, rng)
        xs = rng.normal(size=(3, 3, 7, 5))  # (step, model, batch, feature)
        ys = rng.integers(0, 3, size=(3, 3, 7))
        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), **kwargs)
        for step in range(3):
            stacked.zero_grad()
            logits = stacked.forward(xs[step], train=True)
            stacked.backward(stacked_softmax_ce_grad(logits, ys[step]))
            optimizer.step()
        for i, model in enumerate(models):
            expected = _per_model_train(model.clone(), xs[:, i], ys[:, i], kwargs)
            np.testing.assert_array_equal(stacked.get_flat()[i], expected)

    @pytest.mark.parametrize("kwargs", list(_OPTIMIZERS.values()), ids=list(_OPTIMIZERS))
    def test_masked_step_leaves_idle_models_untouched(self, rng, policy, kwargs):
        """``step(count=k)`` updates the prefix of ``k`` models only: the
        idle suffix keeps weights and velocity bit-untouched — its
        gradient rows are not even read — as if its per-model optimizer
        never ran.  Within the prefix, row ranges of different batch
        sizes forward and backward separately."""
        # (count, row ranges of equal batch size, batch size per range)
        schedule = [
            (3, [(0, 3)], [7]),
            (3, [(0, 2), (2, 3)], [7, 4]),
            (2, [(0, 1), (1, 2)], [7, 2]),
            (1, [(0, 1)], [5]),
        ]
        models = _stack_of_perturbed(make_mlp(5, 3, rng, hidden=(6,)), 3, rng)
        xs = rng.normal(size=(4, 3, 7, 5))
        ys = rng.integers(0, 3, size=(4, 3, 7))
        stacked = StackedNetwork.from_models(models)
        params = stacked.parameters()
        optimizer = StackedSGD(params, **kwargs)
        for step, (count, ranges, widths) in enumerate(schedule):
            stacked.zero_grad()
            for (a, b), width in zip(ranges, widths):
                logits = stacked.forward(
                    xs[step, a:b, :width], train=True, rows=slice(a, b)
                )
                stacked.backward(stacked_softmax_ce_grad(logits, ys[step, a:b, :width]))
            for p in params:
                p.grad[count:] = np.nan  # an idle row's gradient is never read
            idle = [(p.value[count:].copy(), vel[count:].copy())
                    for p, vel in zip(params, optimizer._velocity)]
            optimizer.step(count=count)
            for (value, vel), p, velocity in zip(idle, params, optimizer._velocity):
                np.testing.assert_array_equal(p.value[count:], value)
                np.testing.assert_array_equal(velocity[count:], vel)
        batch_of = {(step, m): width for step, (_, ranges, ws) in enumerate(schedule)
                    for (a, b), width in zip(ranges, ws) for m in range(a, b)}
        for i, model in enumerate(models):
            steps = [step for step in range(len(schedule)) if (step, i) in batch_of]
            expected = _per_model_train(
                model.clone(),
                [xs[step, i, : batch_of[step, i]] for step in steps],
                [ys[step, i, : batch_of[step, i]] for step in steps],
                kwargs,
            )
            np.testing.assert_array_equal(stacked.get_flat()[i], expected)

    def test_step_lr_override(self, rng, policy):
        """``step(lr=...)`` overrides the rate for the whole stack and for
        a prefix alike, as ``SGD.step(lr=...)`` does per model."""
        models = _stack_of_perturbed(make_mlp(4, 3, rng, hidden=(5,)), 2, rng)
        xs = rng.normal(size=(2, 2, 6, 4))  # (step, model, batch, feature)
        ys = rng.integers(0, 3, size=(2, 2, 6))
        rates = (0.03, 0.02)
        stacked = StackedNetwork.from_models(models)
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        for step, count in enumerate((None, 2)):
            stacked.zero_grad()
            logits = stacked.forward(xs[step], train=True)
            stacked.backward(stacked_softmax_ce_grad(logits, ys[step]))
            optimizer.step(count=count, lr=rates[step])
        loss = SoftmaxCrossEntropy()
        for i, model in enumerate(models):
            clone = model.clone()
            sgd = SGD(clone.parameters(), lr=0.1, momentum=0.9)
            for step in range(2):
                clone.zero_grad()
                loss.forward(clone.forward(xs[step, i], train=True), ys[step, i])
                clone.backward(loss.backward())
                sgd.step(lr=rates[step])
            np.testing.assert_array_equal(stacked.get_flat()[i], clone.get_flat())

    @pytest.mark.parametrize("count", [None, 2])
    def test_clip_matches_per_model_clip(self, rng, policy, count):
        """Clipping rounds each model's scale in the gradient dtype, as the
        per-model multiply does; a model behind the first ``count`` is not
        clipped."""
        from repro.fl.client import clip_gradients

        models = _stack_of_perturbed(make_mlp(4, 3, rng, hidden=(4,)), 3, rng)
        xs = rng.normal(size=(3, 6, 4)) * 5.0  # large inputs force clipping
        ys = rng.integers(0, 3, size=(3, 6))
        stacked = StackedNetwork.from_models(models)
        stacked.zero_grad()
        logits = stacked.forward(xs, train=True)
        stacked.backward(stacked_softmax_ce_grad(logits, ys))
        before = _grad_rows(stacked)
        clip_gradients_stacked(stacked.parameters(), 0.05, count)
        after = _grad_rows(stacked)

        loss = SoftmaxCrossEntropy()
        for i, model in enumerate(models):
            assert np.linalg.norm(before[i]) > 0.05
            if count is not None and i >= count:
                np.testing.assert_array_equal(after[i], before[i])
                continue
            clone = model.clone()
            clone.zero_grad()
            loss.forward(clone.forward(xs[i], train=True), ys[i])
            clone.backward(loss.backward())
            clip_gradients(clone, 0.05)
            np.testing.assert_array_equal(after[i], clone.get_grad_flat())

    def test_clip_below_the_bound_leaves_gradients_untouched(self, rng):
        models = _stack_of_perturbed(make_mlp(4, 3, rng, hidden=(5,)), 3, rng)
        xs = rng.normal(size=(3, 6, 4))
        ys = rng.integers(0, 3, size=(3, 6))
        stacked = StackedNetwork.from_models(models)
        stacked.zero_grad()
        stacked.backward(stacked_softmax_ce_grad(stacked.forward(xs, train=True), ys))
        before = _grad_rows(stacked)
        clip_gradients_stacked(stacked.parameters(), 1e6)
        np.testing.assert_array_equal(_grad_rows(stacked), before)

    def test_clip_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            clip_gradients_stacked([StackedParameter(np.zeros((2, 3)))], 0.0)

    @pytest.mark.parametrize("batch, classes", [(1, 2), (7, 3), (16, 10)])
    def test_softmax_ce_grad_matches_loss_backward(self, rng, policy, batch, classes):
        logits = rng.normal(size=(3, batch, classes)).astype(policy)
        targets = rng.integers(0, classes, size=(3, batch))
        grad = stacked_softmax_ce_grad(logits, targets)
        assert grad.dtype == policy
        loss = SoftmaxCrossEntropy()
        for i in range(3):
            loss.forward(logits[i], targets[i])
            np.testing.assert_array_equal(grad[i], loss.backward())

    def test_bias_free_dense_layers(self, rng, policy):
        template = Network(
            [Dense(5, 4, rng, bias=False), ReLU(), Dense(4, 3, rng, bias=False)]
        )
        models = _stack_of_perturbed(template, 3, rng)
        flats = np.stack([model.get_flat() for model in models])
        np.testing.assert_array_equal(
            StackedNetwork.from_network(template, flats).get_flat(), flats
        )
        xs = rng.normal(size=(3, 6, 5))
        ys = rng.integers(0, 3, size=(3, 6))
        stacked = StackedNetwork.from_models(models)
        assert all(layer.bias is None for layer in stacked.layers
                   if isinstance(layer, StackedDense))
        optimizer = StackedSGD(stacked.parameters(), lr=0.1, momentum=0.9)
        stacked.zero_grad()
        stacked.backward(stacked_softmax_ce_grad(stacked.forward(xs, train=True), ys))
        optimizer.step()
        for i, model in enumerate(models):
            flat, _ = _per_model_step(model.clone(), xs[i], ys[i])
            np.testing.assert_array_equal(stacked.get_flat()[i], flat)


class TestGradientBuffers:
    def test_only_a_leading_dense_skips_the_input_gradient(self, rng):
        stacked = StackedNetwork.from_models([make_mlp(4, 3, rng, hidden=(5, 4))])
        flags = [layer.skip_input_grad for layer in stacked.layers
                 if isinstance(layer, StackedDense)]
        assert flags == [True, False, False]

    def test_leading_relu_backpropagates_the_input_gradient(self, rng):
        models = _stack_of_perturbed(Network([ReLU(), Dense(4, 3, rng)]), 2, rng)
        xs = rng.normal(size=(2, 5, 4))
        ys = rng.integers(0, 3, size=(2, 5))
        stacked = StackedNetwork.from_models(models)
        assert not stacked.layers[1].skip_input_grad
        logits = stacked.forward(xs, train=True)
        grad_in = stacked.backward(stacked_softmax_ce_grad(logits, ys))
        loss = SoftmaxCrossEntropy()
        for i, model in enumerate(models):
            loss.forward(model.forward(xs[i], train=True), ys[i])
            np.testing.assert_array_equal(grad_in[i], model.backward(loss.backward()))

    def test_inference_only_stack_allocates_no_gradients(self, rng):
        """The validation path only predicts, so it never pays for
        gradient buffers."""
        models = _stack_of_perturbed(make_mlp(4, 3, rng, hidden=(5,)), 3, rng)
        stacked = StackedNetwork.from_models(models)
        stacked.predict(rng.normal(size=(9, 4)))
        stacked.zero_grad()
        assert all(p._grad is None for p in stacked.parameters())

    def test_zero_grad_clears_every_model(self, rng):
        models = _stack_of_perturbed(make_mlp(4, 3, rng, hidden=(5,)), 3, rng)
        xs = rng.normal(size=(3, 6, 4))
        ys = rng.integers(0, 3, size=(3, 6))
        stacked = StackedNetwork.from_models(models)
        stacked.backward(stacked_softmax_ce_grad(stacked.forward(xs, train=True), ys))
        assert np.any(_grad_rows(stacked) != 0.0)
        stacked.zero_grad()
        assert np.all(_grad_rows(stacked) == 0.0)


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


#: One example instance per concrete layer type of :mod:`repro.nn.layers`.
_LAYER_EXAMPLES = {
    Dense: lambda rng: Dense(3, 2, rng),
    ReLU: lambda rng: ReLU(),
}


class TestSubstrateLockstep:
    """The per-model and stacked substrates cover the same layer types, so
    a layer added without a stacked twin fails here instead of silently
    training per-model."""

    def test_every_layer_type_builds_a_stackable_network(self, rng):
        defined = {
            kind for kind in vars(layers).values()
            if isinstance(kind, type) and issubclass(kind, layers.Layer)
            and kind is not layers.Layer and kind.__module__ == layers.__name__
        }
        assert defined == set(_LAYER_EXAMPLES), (
            "every layer type needs a stacked twin and an example here"
        )
        for make in _LAYER_EXAMPLES.values():
            network = Network([make(rng)])
            assert supports_stacking(network)
            models = _stack_of_perturbed(network, 2, rng)
            xs = rng.normal(size=(2, 4, 3))
            out = StackedNetwork.from_models(models).forward(xs)
            for i, model in enumerate(models):
                np.testing.assert_array_equal(out[i], model.forward(xs[i]))

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3), (8, 8, 8)])
    def test_make_mlp_stacks(self, rng, hidden):
        assert supports_stacking(make_mlp(5, 3, rng, hidden=hidden))
