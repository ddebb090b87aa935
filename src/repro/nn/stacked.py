"""Stacked execution: run ``M`` same-architecture models as one batched op.

BaFFLe's round cost is dominated by many *small* same-architecture model
executions: every selected client trains a clone of the global model on its
shard, and every cold validator forwards the candidate plus up to ``l``
history models over its data.  Dispatching those through ``M`` independent
:class:`~repro.nn.network.Network` objects pays the full Python/numpy
per-call overhead ``M`` times per layer per step, which dwarfs the actual
FLOPs at this substrate's scale.

This module provides a *stacked* substrate: every tensor carries a leading
model axis ``M``, so ``M`` forwards/backwards collapse into single batched
``np.matmul`` calls (NumPy loops the per-slice GEMMs in C, not in Python).

Bit-identity contract
---------------------
The repo's engine-equivalence guarantee (sequential == parallel,
bit-identical committed models) extends to stacking: a stacked
pass must produce **bit-identical** floats to the per-model pass.  Two
empirical properties of the BLAS backend make this possible, and the test
suite re-verifies both on every host (``tests/nn/test_stacked.py``):

1. ``np.matmul`` on stacked operands equals the per-slice 2-D matmul
   *of the same shape* bit-for-bit (the batch loop runs the identical
   GEMM kernel per slice).
2. Reductions over the trailing axes (softmax sums/maxes, squared-norm
   sums) associate identically for equal trailing shapes.

What does **not** hold is shape invariance: a GEMM over ``b`` rows
zero-padded to ``b' > b`` rows may take a different kernel path and round
differently.  Stacked execution therefore never pads batches — callers
order the stack so that models sharing an *exact* batch shape sit in a
contiguous row range (see :mod:`repro.fl.cohort`) and run one call per
range (``rows=slice(a, b)``): weights are read and gradients accumulated
through views of those rows, never gathered or scattered.  Any op whose
batched form would reorder floating-point accumulation must instead fall
back to per-slice evaluation.  Scalar bookkeeping that the per-model path
performs in Python floats (gradient-norm clipping) is mirrored in Python
floats here, not vectorized, for the same reason.

Layer coverage maps :mod:`repro.nn.layers`: ``Dense`` and ``ReLU``, plus
softmax cross-entropy and SGD with momentum / weight decay / gradient
clipping.  Any other layer type raises :class:`StackingUnsupportedError`;
callers probe with :func:`supports_stacking` and keep the per-model path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Dense, ReLU
from repro.nn.losses import log_softmax
from repro.nn.network import Network
from repro.nn.precision import active_dtype


class StackingUnsupportedError(TypeError):
    """The network contains a layer without a stacked counterpart."""


class StackedParameter:
    """A trainable array stack ``(M, *shape)`` with accumulated gradients.

    The gradient buffer is allocated lazily: inference-only stacks (the
    validation path) never touch it, so building one costs a single weight
    copy.
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.ascontiguousarray(value, dtype=active_dtype())
        self._grad: np.ndarray | None = None
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @property
    def num_models(self) -> int:
        return self.value.shape[0]

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad.fill(0.0)

    def __repr__(self) -> str:
        return f"StackedParameter(name={self.name!r}, shape={self.value.shape})"


class StackedLayer:
    """Base class: forward/backward over ``(m, batch, ...)`` tensors.

    ``rows`` is the contiguous model range a call runs over (``slice(None)``
    = the full stack); ``forward(train=True)`` caches what the matching
    ``backward`` needs, exactly like :class:`repro.nn.layers.Layer`.
    """

    def parameters(self) -> list[StackedParameter]:
        return []

    def forward(self, x: np.ndarray, rows: slice, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class StackedDense(StackedLayer):
    """``y[m] = x[m] @ W[m] + b[m]`` in one batched matmul.

    A shared input (``x`` broadcast along the model axis — the validation
    case) flows through the same batched matmul: NumPy runs the identical
    per-slice GEMM against the zero-stride view, so no per-model copies of
    ``x`` are ever materialized.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None) -> None:
        self.weight = StackedParameter(weight, "dense.weight")
        self.bias = StackedParameter(bias, "dense.bias") if bias is not None else None
        #: Set by the network on its first parameter layer: the gradient
        #: w.r.t. the input is never consumed there, so backward skips it.
        self.skip_input_grad = False
        self._cache: tuple[np.ndarray, np.ndarray, slice] | None = None

    def parameters(self) -> list[StackedParameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x, rows, train=False):
        w = self.weight.value[rows]
        if train:
            self._cache = (x, w, rows)
        out = np.matmul(x, w)
        if self.bias is not None:
            # In-place into the fresh matmul buffer: same scalar adds as
            # the per-model ``out + bias``, one less allocation.
            np.add(out, self.bias.value[rows][:, None, :], out=out)
        return out

    def backward(self, grad_out):
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        x, w, rows = self._cache
        self.weight.grad[rows] += np.matmul(x.transpose(0, 2, 1), grad_out)
        if self.bias is not None:
            self.bias.grad[rows] += grad_out.sum(axis=1)
        if self.skip_input_grad:
            return grad_out  # unused upstream of the first parameter layer
        return np.matmul(grad_out, w.transpose(0, 2, 1))


class StackedReLU(StackedLayer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x, rows, train=False):
        del rows  # parameter-free: the range is implicit in x
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        if self._mask is None:
            raise RuntimeError("backward called before forward(train=True)")
        return grad_out * self._mask


# ----------------------------------------------------------------------
# Template -> stacked-layer builders
# ----------------------------------------------------------------------
def _consume(flats: np.ndarray, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    size = int(np.prod(shape, dtype=np.int64))
    block = flats[:, offset : offset + size].reshape(flats.shape[0], *shape)
    return np.ascontiguousarray(block), offset + size


def _build_dense(layer: Dense, flats: np.ndarray, offset: int):
    weight, offset = _consume(flats, offset, layer.weight.shape)
    bias = None
    if layer.bias is not None:
        bias, offset = _consume(flats, offset, layer.bias.shape)
    return StackedDense(weight, bias), offset


_BUILDERS = {
    Dense: _build_dense,
    ReLU: lambda layer, flats, offset: (StackedReLU(), offset),
}


def supports_stacking(network: Network) -> bool:
    """Whether every layer of ``network`` has a stacked counterpart.

    Exact-type matching on purpose: a subclass overriding ``forward`` would
    silently diverge from its stacked stand-in, so subclasses fall back to
    the per-model path unless registered themselves.
    """
    return all(type(layer) in _BUILDERS for layer in network.layers)


def _stack_peer_layer(layer, peers: Sequence) -> StackedLayer:
    """One stacked layer from ``M`` existing per-model peer layers.

    ``layer`` is the template's instance (structure source), ``peers`` the
    same-position layer of every stacked model (weight sources).  Each
    stacked parameter is one ``np.stack`` over the per-model arrays —
    cheaper than a flat-vector detour (see :meth:`StackedNetwork.from_models`).
    """
    kind = type(layer)
    if kind is ReLU:
        return StackedReLU()
    if kind is not Dense:
        raise StackingUnsupportedError(
            f"no stacked counterpart for {kind.__name__}; "
            "use the per-model path (supports_stacking() probes this)"
        )
    weight = np.stack([peer.weight.value for peer in peers])
    bias = (
        np.stack([peer.bias.value for peer in peers])
        if layer.bias is not None
        else None
    )
    return StackedDense(weight, bias)


class StackedNetwork:
    """``M`` same-architecture models executing as one batched network.

    Built from a structural *template* :class:`~repro.nn.network.Network`
    plus an ``(M, P)`` array of flat weight vectors (``P`` =
    ``template.num_parameters``); the flat layout matches
    :meth:`Network.set_flat`, so row ``m`` of :meth:`get_flat` is
    bit-for-bit what a per-model clone carrying those weights would report.
    """

    def __init__(self, layers: Sequence[StackedLayer], num_models: int, input_ndim: int | None) -> None:
        self.layers = list(layers)
        self.num_models = num_models
        self._input_ndim = input_ndim

    @classmethod
    def from_network(cls, template: Network, flats: np.ndarray) -> "StackedNetwork":
        """Stack ``M`` copies of ``template``'s architecture carrying the
        given ``(M, P)`` flat weight rows (layout of ``Network.set_flat``)."""
        flats = np.ascontiguousarray(flats, dtype=active_dtype())
        if flats.ndim != 2 or flats.shape[1] != template.num_parameters:
            raise ValueError(
                f"expected flats of shape (M, {template.num_parameters}), "
                f"got {flats.shape}"
            )
        layers: list[StackedLayer] = []
        offset = 0
        for layer in template.layers:
            builder = _BUILDERS.get(type(layer))
            if builder is None:
                raise StackingUnsupportedError(
                    f"no stacked counterpart for {type(layer).__name__}; "
                    "use the per-model path (supports_stacking() probes this)"
                )
            stacked, offset = builder(layer, flats, offset)
            layers.append(stacked)
        return cls._finalize(layers, template, flats.shape[0])

    @classmethod
    def from_models(cls, models: Sequence[Network]) -> "StackedNetwork":
        """Stack existing same-architecture models without a flat detour.

        Each stacked parameter is one ``np.stack`` over the per-model
        arrays — cheaper than concatenating every model into a flat vector
        and re-slicing it (the validation hot path builds a fresh stack
        per cold pass, so construction cost matters).
        """
        if not models:
            raise ValueError("need at least one model to stack")
        template = models[0]
        num_params = template.num_parameters
        for model in models[1:]:
            if model.num_parameters != num_params or len(model.layers) != len(
                template.layers
            ):
                raise ValueError("models must share one architecture to stack")
        layers = [
            _stack_peer_layer(layer, [model.layers[i] for model in models])
            for i, layer in enumerate(template.layers)
        ]
        return cls._finalize(layers, template, len(models))

    @classmethod
    def _finalize(
        cls, layers: list[StackedLayer], template: Network, num_models: int
    ) -> "StackedNetwork":
        if layers and isinstance(layers[0], StackedDense):
            # Nothing upstream consumes the first layer's input gradient;
            # skipping it drops one batched matmul from every backward pass.
            layers[0].skip_input_grad = True
        # A shared sample batch is 2-D ``(batch, features)`` whenever the
        # template has a ``Dense``; stacked inputs carry the model axis.
        has_dense = any(type(layer) is Dense for layer in template.layers)
        return cls(layers, num_models, 2 if has_dense else None)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, train: bool = False, rows: slice | None = None
    ) -> np.ndarray:
        """Batched forward over the contiguous model range ``rows``.

        ``rows`` is a ``slice(a, b)`` of the stack (``None`` = every model).
        ``x`` is either ``(b - a, batch, *sample)`` — one batch per model in
        the range — or a shared ``(batch, *sample)`` array evaluated by
        every model in it (broadcast along the model axis without copying).
        """
        rows = slice(None) if rows is None else rows
        x = np.asarray(x, dtype=active_dtype())
        if self._input_ndim is not None and x.ndim == self._input_ndim:
            m = len(range(self.num_models)[rows])
            x = np.broadcast_to(x, (m, *x.shape))
        for layer in self.layers:
            x = layer.forward(x, rows, train=train)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def parameters(self) -> list[StackedParameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def get_flat(self) -> np.ndarray:
        """``(M, P)`` flat weight matrix (rows match ``Network.get_flat``)."""
        params = self.parameters()
        if not params:
            return np.zeros((self.num_models, 0), dtype=active_dtype())
        return np.concatenate(
            [p.value.reshape(self.num_models, -1) for p in params], axis=1
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """``(M, N)`` predicted labels, mirroring ``Network.predict``.

        Same 512-sample batching and the same per-row argmax as the
        per-model path, so predictions are bit-identical — the property
        the stacked validation profiles rely on.
        """
        x = np.asarray(x, dtype=active_dtype())
        if len(x) == 0:
            raise ValueError("cannot iterate over an empty input array")
        chunks = []
        for start in range(0, len(x), batch_size):
            logits = self.forward(x[start : start + batch_size])
            chunks.append(logits.argmax(axis=-1))
        return np.concatenate(chunks, axis=1)


def stacked_predict(
    models: Sequence[Network], x: np.ndarray, batch_size: int = 512
) -> np.ndarray:
    """Predict labels for ``x`` under every model: ``(len(models), N)``.

    One batched forward replaces ``len(models)`` Python-dispatched passes;
    callers guard with :func:`supports_stacking` on the first model.
    """
    if not models:
        raise ValueError("need at least one model to predict with")
    return StackedNetwork.from_models(models).predict(x, batch_size)


# ----------------------------------------------------------------------
# Training pieces
# ----------------------------------------------------------------------
def stacked_softmax_ce_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of mean softmax cross-entropy per stacked model.

    ``logits`` is ``(m, b, C)``, ``targets`` ``(m, b)``; every model in the
    call shares the batch size ``b``, so the ``/ b`` scaling matches the
    per-model :class:`~repro.nn.losses.SoftmaxCrossEntropy` exactly.
    """
    targets = np.asarray(targets, dtype=np.int64)
    m, b, _ = logits.shape
    if targets.shape != (m, b):
        raise ValueError(f"targets shape {targets.shape} != {(m, b)}")
    grad = np.exp(log_softmax(logits))
    grad[
        np.arange(m, dtype=np.intp)[:, None], np.arange(b, dtype=np.intp)[None, :], targets
    ] -= 1.0
    np.divide(grad, b, out=grad)
    return grad


def clip_gradients_stacked(
    params: Sequence[StackedParameter],
    max_norm: float,
    count: int | None = None,
) -> None:
    """Per-model global-norm clipping, mirroring ``fl.client.clip_gradients``.

    Clips the first ``count`` models of the stack (all when ``None``); the
    rows behind them are not read or written.  The squared sums are
    vectorized, but the norm / comparison / scale arithmetic runs in Python
    floats per model — the exact scalar ops the per-model path performs —
    so clipped gradients stay bit-identical.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    if not params:
        return
    count = params[0].num_models if count is None else count
    totals = [0.0] * count
    for p in params:
        sums = (p.grad[:count] ** 2).reshape(count, -1).sum(axis=1)
        for m in range(count):
            totals[m] += float(sums[m])
    # Scales live in the gradient dtype: the per-model path multiplies by
    # a Python float that numpy first casts to the array dtype, so the
    # stacked multiply must round each scale the same way before applying.
    scales = np.ones(count, dtype=params[0].grad.dtype)
    any_clipped = False
    for m in range(count):
        norm = totals[m] ** 0.5
        if norm > max_norm:
            scales[m] = max_norm / norm
            any_clipped = True
    if not any_clipped:
        return
    for p in params:
        buffer = p.grad[:count]
        buffer *= scales.reshape(count, *([1] * (buffer.ndim - 1)))


class StackedSGD:
    """SGD with momentum/weight-decay over stacked parameters.

    ``step(count=k)`` updates only the first ``k`` models of the stack, in
    place through views of their rows: a caller that orders its models by
    how long they train (:mod:`repro.fl.cohort`) steps exactly the ones
    that took a batch, while the idle rows behind them keep their weights
    *and* velocities bit-untouched, as if their per-model optimizer never
    stepped.
    """

    def __init__(
        self,
        params: Sequence[StackedParameter],
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self, count: int | None = None, lr: float | None = None) -> None:
        """Update the first ``count`` models (all when ``None``).

        The exact in-place update sequence the per-model SGD performs
        (same ops, same order, no intermediate copies), on row views.
        """
        eta = self.lr if lr is None else lr
        rows = slice(count)
        for p, vel in zip(self.params, self._velocity):
            value, grad, vel = p.value[rows], p.grad[rows], vel[rows]
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = grad + self.momentum * vel if self.nesterov else vel
            else:
                update = grad
            value -= eta * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


__all__ = [
    "StackedDense",
    "StackedLayer",
    "StackedNetwork",
    "StackedParameter",
    "StackedReLU",
    "StackedSGD",
    "StackingUnsupportedError",
    "clip_gradients_stacked",
    "stacked_predict",
    "stacked_softmax_ce_grad",
    "supports_stacking",
]
