"""From-scratch numpy neural-network substrate.

The BaFFLe paper trains ResNet18 with PyTorch; this environment has neither
PyTorch nor a GPU, so ``repro.nn`` provides the minimal-but-complete training
stack the reproduction needs: ``Dense``/``ReLU`` layers with exact analytic
gradients (the MLPs of :func:`make_mlp`, per-model and stacked), softmax
cross-entropy, SGD with momentum and weight decay, flat-vector parameter
views (used by the federated-averaging code in :mod:`repro.fl`),
classification metrics, and the model-size helper of the
communication-overhead benchmark.

Design notes
------------
- Layers implement explicit ``forward``/``backward`` passes; there is no
  tape-based autograd.  This keeps the substrate small, auditable, and easy
  to property-test against numerical gradients.
- All parameters of a :class:`~repro.nn.network.Network` can be read and
  written as one flat policy-dtype vector (:meth:`Network.get_flat` /
  :meth:`Network.set_flat`).  Federated aggregation, model-replacement
  attacks, and norm-based baseline defenses all operate on these vectors.
- Every stochastic operation takes an explicit ``numpy.random.Generator``.
"""

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layers import Dense, Layer, Parameter, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    source_focused_errors,
    target_focused_errors,
)
from repro.nn.models import make_mlp
from repro.nn.network import Network
from repro.nn.optim import SGD
from repro.nn.serialization import network_num_bytes
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

__all__ = [
    "Dense",
    "Layer",
    "Network",
    "Parameter",
    "ReLU",
    "SGD",
    "SoftmaxCrossEntropy",
    "StackedNetwork",
    "StackedParameter",
    "StackedSGD",
    "StackingUnsupportedError",
    "accuracy",
    "clip_gradients_stacked",
    "confusion_matrix",
    "he_normal",
    "make_mlp",
    "network_num_bytes",
    "source_focused_errors",
    "stacked_predict",
    "stacked_softmax_ce_grad",
    "supports_stacking",
    "target_focused_errors",
    "zeros_init",
]
