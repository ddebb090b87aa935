"""Unit tests for experiment environment construction."""

from __future__ import annotations

import numpy as np

from repro.attacks.label_flip import LabelFlipBackdoor
from repro.attacks.semantic_backdoor import SemanticBackdoor
from repro.experiments.environment import build_environment, clear_environment_cache
from repro.nn.metrics import accuracy


class TestCifarEnvironment:
    def test_layout(self, fast_config):
        env = build_environment(fast_config, seed=0)
        assert len(env.shards) == fast_config.num_clients
        assert isinstance(env.backdoor, SemanticBackdoor)
        # client/server split roughly honours the share
        total_client = sum(len(s) for s in env.shards)
        observed_share = total_client / (total_client + len(env.server_data))
        assert abs(observed_share - fast_config.client_share) < 0.05

    def test_stable_model_is_competent(self, fast_config):
        env = build_environment(fast_config, seed=0)
        acc = accuracy(env.test_data.y, env.stable_model.predict(env.test_data.x))
        assert acc > 0.75

    def test_cache_returns_same_object(self, fast_config):
        a = build_environment(fast_config, seed=0)
        b = build_environment(fast_config, seed=0)
        assert a is b

    def test_cache_distinguishes_seeds(self, fast_config):
        a = build_environment(fast_config, seed=0)
        b = build_environment(fast_config, seed=1)
        assert a is not b

    def test_cache_bypass(self, fast_config):
        a = build_environment(fast_config, seed=0)
        b = build_environment(fast_config, seed=0, cache=False)
        assert a is not b

    def test_clear_cache(self, fast_config):
        a = build_environment(fast_config, seed=0)
        clear_environment_cache()
        b = build_environment(fast_config, seed=0)
        assert a is not b


class TestFemnistEnvironment:
    def test_layout(self, fast_femnist_config):
        env = build_environment(fast_femnist_config, seed=0)
        assert len(env.shards) == fast_femnist_config.num_clients
        assert isinstance(env.backdoor, LabelFlipBackdoor)
        assert all(len(s) >= 10 for s in env.shards)

    def test_label_flip_source_is_attackers_top_class(self, fast_femnist_config):
        env = build_environment(fast_femnist_config, seed=0)
        attacker_counts = env.shards[env.attacker_id].class_counts()
        assert env.backdoor.source_label == int(np.argmax(attacker_counts))

    def test_writer_shards_are_non_iid(self, fast_femnist_config):
        env = build_environment(fast_femnist_config, seed=0)
        dists = np.stack([s.class_distribution() for s in env.shards])
        assert dists.std(axis=0).mean() > 0.02
