"""Model size on the wire.

Used by the communication-overhead benchmark (Sec. VI-D of the paper
estimates ~10 MB per ResNet18 model and a history of ``l + 1`` models
shipped to each validating client).
"""

from __future__ import annotations

import numpy as np

from repro.nn.network import Network

# Compression factor achievable with standard model-compression techniques;
# the paper (Sec. VI-D, citing Caldas et al.) assumes a factor of 10.
PAPER_COMPRESSION_FACTOR = 10.0


def network_num_bytes(network: Network, dtype: type = np.float32) -> int:
    """Raw on-the-wire size of the network's parameters in ``dtype``."""
    return network.num_parameters * np.dtype(dtype).itemsize
