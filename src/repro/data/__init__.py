"""Data substrate: synthetic datasets and federated partitioning.

The paper evaluates on CIFAR-10 and FEMNIST.  This environment has no
network access, so :mod:`repro.data` provides procedural generators that
reproduce the *structure* those experiments rely on:

- :mod:`repro.data.synthetic_cifar` — a 10-class colour-image task with a
  minority "striped background" sub-population of the car class, hosting the
  paper's semantic backdoor (striped cars -> "bird");
- :mod:`repro.data.synthetic_femnist` — a many-class glyph task whose
  samples carry per-writer style parameters, reproducing FEMNIST's
  writer-induced non-IID-ness;
- :mod:`repro.data.partition` — the Dirichlet(alpha) client partitioner the
  paper uses (alpha = 0.9), writer-based partitioning, and the client/server
  validation-data splits of Table I.

All generators take explicit ``numpy.random.Generator`` objects and are
fully deterministic given a seed.
"""

from repro.data.dataset import Dataset
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    split_client_server,
    writer_partition,
)
from repro.data.synthetic_cifar import (
    CIFAR_BACKDOOR_SOURCE_CLASS,
    CIFAR_BACKDOOR_TARGET_CLASS,
    SyntheticCifar,
)
from repro.data.synthetic_femnist import SyntheticFemnist

__all__ = [
    "CIFAR_BACKDOOR_SOURCE_CLASS",
    "CIFAR_BACKDOOR_TARGET_CLASS",
    "Dataset",
    "SyntheticCifar",
    "SyntheticFemnist",
    "dirichlet_partition",
    "iid_partition",
    "split_client_server",
    "writer_partition",
]
