"""Unit tests for repro.nn.serialization."""

from __future__ import annotations

import numpy as np

from repro.nn.models import make_mlp
from repro.nn.precision import dtype_policy
from repro.nn.serialization import network_num_bytes


class TestByteSerialization:
    def test_num_bytes_formula(self, tiny_mlp):
        assert network_num_bytes(tiny_mlp) == tiny_mlp.num_parameters * 4
        assert network_num_bytes(tiny_mlp, np.float64) == tiny_mlp.num_parameters * 8

    def test_wire_size_does_not_follow_the_execution_policy(self, rng):
        """The communication-overhead model prices float32 weights on the
        wire whichever precision the simulation computes in."""
        sizes = []
        for policy in ("float64", "float32"):
            with dtype_policy(policy):
                network = make_mlp(6, 3, rng, hidden=(5,))
                sizes.append(network_num_bytes(network))
        assert sizes == [network.num_parameters * 4] * 2
