"""Tests for the execution precision policy (repro.nn.precision)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layers import Parameter
from repro.nn.models import make_mlp
from repro.nn.precision import (
    DTYPE_POLICIES,
    ENV_POLICY,
    active_dtype,
    dtype_policy,
    get_dtype_policy,
    itemsize,
    set_dtype_policy,
)


class TestPolicyKnob:
    def test_default_is_float64(self):
        assert get_dtype_policy() == "float64"
        assert active_dtype() == np.dtype(np.float64)
        assert itemsize() == 8

    def test_scope_sets_and_restores(self):
        with dtype_policy("float32"):
            assert get_dtype_policy() == "float32"
            assert active_dtype() == np.dtype(np.float32)
            assert itemsize() == 4
        assert get_dtype_policy() == "float64"

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with dtype_policy("float32"):
                raise RuntimeError("boom")
        assert get_dtype_policy() == "float64"

    def test_scope_exports_env_for_workers(self):
        """The policy must ride the environment so forked/spawned pool
        workers inherit it without initializer plumbing."""
        with dtype_policy("float32"):
            assert os.environ.get(ENV_POLICY) == "float32"

    def test_nested_scopes(self):
        with dtype_policy("float32"):
            with dtype_policy("float64"):
                assert get_dtype_policy() == "float64"
            assert get_dtype_policy() == "float32"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="dtype policy"):
            set_dtype_policy("float16")
        with pytest.raises(ValueError, match="dtype policy"):
            with dtype_policy("bfloat16"):
                pass  # pragma: no cover

    def test_garbage_env_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_POLICY, "quadruple")
        assert get_dtype_policy() == "float64"

    def test_policy_names_are_exhaustive(self):
        assert DTYPE_POLICIES == ("float64", "float32")


class TestPolicyRoutedAllocations:
    def test_parameter_follows_policy(self):
        with dtype_policy("float32"):
            p = Parameter(np.ones((3, 2)))
            assert p.value.dtype == np.float32
            assert p.grad.dtype == np.float32
        assert Parameter(np.ones((3, 2))).value.dtype == np.float64

    @pytest.mark.parametrize("init", [he_normal, zeros_init])
    def test_initializers_follow_policy(self, init):
        with dtype_policy("float32"):
            assert init((4, 3), np.random.default_rng(0)).dtype == np.float32
        assert init((4, 3), np.random.default_rng(0)).dtype == np.float64

    @pytest.mark.parametrize("init", [he_normal])
    def test_draws_stay_float64_native(self, init):
        """Random draws happen in float64 and are cast afterwards: the
        float32 init is exactly the float64 init rounded, and the stream
        advances identically under both policies."""
        rng64 = np.random.default_rng(0)
        w64 = init((4, 3), rng64)
        rng32 = np.random.default_rng(0)
        with dtype_policy("float32"):
            w32 = init((4, 3), rng32)
        np.testing.assert_array_equal(w32, w64.astype(np.float32))
        assert rng64.random() == rng32.random()

    def test_network_runs_end_to_end_in_policy_dtype(self, rng):
        with dtype_policy("float32"):
            model = make_mlp(2, 3, rng, hidden=(8,))
            flat = model.get_flat()
            assert flat.dtype == np.float32
            out = model.forward(np.zeros((5, 2)), train=True)
            assert out.dtype == np.float32
            model.backward(np.ones_like(out) / 5)
            assert model.get_grad_flat().dtype == np.float32

    def test_set_flat_casts_to_policy(self, rng):
        with dtype_policy("float32"):
            model = make_mlp(2, 3, rng, hidden=(4,))
            model.set_flat(np.zeros(model.num_parameters, dtype=np.float64))
            assert model.get_flat().dtype == np.float32
