"""Reproducibility: identical seeds produce identical runs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import iid_partition
from repro.data.synthetic_cifar import SyntheticCifar
from repro.data.synthetic_femnist import SyntheticFemnist
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import make_mlp


def build_sim(seed: int) -> FederatedSimulation:
    rng = np.random.default_rng(seed)
    task = SyntheticCifar()
    pool = task.sample(400, rng)
    parts = iid_partition(len(pool), 5, rng)
    clients = [HonestClient(i, pool.subset(p)) for i, p in enumerate(parts)]
    model = make_mlp(task.flat_dim, 10, np.random.default_rng(seed + 1), hidden=(16,))
    config = FLConfig(num_clients=5, clients_per_round=3, local_epochs=1)
    return FederatedSimulation(model, clients, config, np.random.default_rng(seed + 2))


class TestSimulationDeterminism:
    def test_same_seed_same_trajectory(self):
        a, b = build_sim(3), build_sim(3)
        a.run(4)
        b.run(4)
        np.testing.assert_array_equal(
            a.global_model.get_flat(), b.global_model.get_flat()
        )

    def test_different_seed_different_trajectory(self):
        a, b = build_sim(3), build_sim(4)
        a.run(4)
        b.run(4)
        assert not np.allclose(a.global_model.get_flat(), b.global_model.get_flat())

    def test_same_selection_sequence(self):
        a, b = build_sim(3), build_sim(3)
        ra = [r.contributor_ids for r in a.run(5)]
        rb = [r.contributor_ids for r in b.run(5)]
        assert ra == rb


class TestGeneratorDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 50))
    def test_cifar_sampling_reproducible(self, seed, n):
        task = SyntheticCifar()
        a = task.sample(n, np.random.default_rng(seed))
        b = task.sample(n, np.random.default_rng(seed))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 50))
    def test_femnist_sampling_reproducible(self, seed, n):
        task = SyntheticFemnist(num_writers=6)
        a = task.sample(n, np.random.default_rng(seed))
        b = task.sample(n, np.random.default_rng(seed))
        np.testing.assert_array_equal(a.x, b.x)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_dirichlet_partition_reproducible(self, seed):
        from repro.data.partition import dirichlet_partition

        labels = np.random.default_rng(0).integers(0, 5, size=200)
        a = dirichlet_partition(labels, 8, 0.9, np.random.default_rng(seed))
        b = dirichlet_partition(labels, 8, 0.9, np.random.default_rng(seed))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)


class TestScenarioDeterminism:
    def test_stable_scenario_reproducible(self):
        from repro.experiments.configs import ExperimentConfig
        from repro.experiments.environment import clear_environment_cache
        from repro.experiments.scenarios import run_stable_scenario

        config = ExperimentConfig(
            dataset="cifar", client_share=0.9, num_clients=10, pool_size=600,
            test_size=100, clients_per_round=4, pretrain_rounds=20,
            pretrain_lr=0.1, lookback=6, quorum=2, num_validators=3,
            defense_start=8, total_rounds=14, attack_rounds=(10,),
            poison_samples=30, attack_epochs=3, hidden=(24,),
        )
        first = run_stable_scenario(config, seed=0)
        clear_environment_cache()
        second = run_stable_scenario(config, seed=0)
        assert [r.accepted for r in first.records] == [
            r.accepted for r in second.records
        ]
        assert [r.contributor_ids for r in first.records] == [
            r.contributor_ids for r in second.records
        ]


class TestValidatorDeterminism:
    def test_vote_is_pure_function_of_context(self, tiny_dataset, rng):
        """The misclassification analysis ignores its rng argument."""
        from repro.core.validation import (
            MisclassificationValidator,
            ValidationContext,
        )
        from repro.fl.client import LocalTrainingConfig, local_train

        model = make_mlp(2, 3, rng, hidden=(8,))
        local_train(model, tiny_dataset, LocalTrainingConfig(epochs=10), rng)
        history = []
        for version in range(10):
            local_train(
                model, tiny_dataset, LocalTrainingConfig(epochs=1, lr=0.02), rng
            )
            history.append((version, model.clone()))
        validator = MisclassificationValidator(tiny_dataset)
        context = ValidationContext(model, history)
        votes = {
            validator.vote(context, np.random.default_rng(s)) for s in range(5)
        }
        assert len(votes) == 1
