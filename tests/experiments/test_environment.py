"""Unit tests for experiment environment construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.label_flip import LabelFlipBackdoor
from repro.attacks.semantic_backdoor import SemanticBackdoor
from repro.data.dataset import Dataset
from repro.data.partition import dirichlet_partition
from repro.data.synthetic_cifar import SyntheticCifar
from repro.experiments.environment import build_environment, clear_environment_cache
from repro.nn.metrics import accuracy


def held_datasets(env) -> dict[str, list[Dataset]]:
    """Every ``Dataset`` an environment holds, by attribute name."""
    held = {}
    for name, value in vars(env).items():
        items = value if isinstance(value, list) else [value]
        datasets = [item for item in items if isinstance(item, Dataset)]
        if datasets:
            held[name] = datasets
    return held


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


class TestEnvironmentData:
    """An environment holds each generated sample once: the client
    shards, the server's share and the test set, nothing else."""

    @pytest.mark.parametrize("config_name", ["fast_config", "fast_femnist_config"])
    def test_only_shards_server_and_test_data_are_held(self, config_name, request):
        env = build_environment(request.getfixturevalue(config_name), seed=0)
        assert set(held_datasets(env)) == {"shards", "server_data", "test_data"}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cifar_rows_sum_to_the_generated_samples(self, fast_config, seed):
        env = build_environment(fast_config, seed=seed)
        rows = sum(len(d) for ds in held_datasets(env).values() for d in ds)
        assert rows == fast_config.pool_size + fast_config.test_size

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cifar_shards_are_one_dirichlet_draw_on_the_data_stream(
        self, fast_config, seed
    ):
        """The environment's data stream, replayed by hand: pool, test
        set, client/server split, then one Dirichlet draw."""
        env = build_environment(fast_config, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        task = SyntheticCifar()
        pool = task.sample(fast_config.pool_size, rng)
        test = task.sample(fast_config.test_size, rng)
        client_pool, server = pool.split(fast_config.client_share, rng)
        parts = dirichlet_partition(
            client_pool.y, fast_config.num_clients, fast_config.dirichlet_alpha,
            rng, min_samples=10,
        )
        assert len(env.shards) == len(parts)
        for shard, part in zip(env.shards, parts):
            np.testing.assert_array_equal(shard.x, client_pool.x[part])
            np.testing.assert_array_equal(shard.y, client_pool.y[part])
        np.testing.assert_array_equal(env.server_data.x, server.x)
        np.testing.assert_array_equal(env.test_data.y, test.y)


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
