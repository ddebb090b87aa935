"""Tests for stacked cohort client training (repro.fl.cohort) and its
executor integration.

The headline guarantee: a cohort-enabled engine — any executor, any
cohort size — commits **bit-identical** models and
round records to the seed-baseline sequential per-model engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.fl.client import HonestClient, LocalTrainingConfig
from repro.fl.cohort import cohort_updates, is_cohortable, plan_cohorts
from repro.fl.parallel import (
    SequentialExecutor,
    ThreadPoolRoundExecutor,
    make_executor,
)
from repro.fl.rng import RngStreams
from repro.nn.models import make_mlp
from tests.fl.test_parallel import (
    build_defended_sim,
    build_forced_sim,
    make_world,
    run_and_snapshot,
    snapshot,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _shards(rng, sizes, features=9, classes=4):
    shards = []
    for n in sizes:
        x = rng.normal(size=(n, features))
        y = rng.integers(0, classes, size=n)
        shards.append(Dataset(x, y, classes))
    return shards


def _per_model_updates(model, shards, config, seed0=100):
    return [
        HonestClient(i, shard).produce_update(
            model, config, 0, np.random.default_rng(seed0 + i)
        )
        for i, shard in enumerate(shards)
    ]


#: Shard sets at batch size 32.  The stack trains them longest first;
#: each ragged set stresses one part of that order.
_SIZES = {
    "uniform": (64, 64, 64),             # one group per step
    "mixed": (100, 64, 37, 5, 101),      # ragged tails, sub-batch shard
    "single": (3,),                      # M == 1 degenerate stack
    "tied": (40, 23, 40, 23, 40),        # ties keep caller order; 2-model tail
    "tails": (33, 100, 66, 75, 70, 45),  # several one-model groups in a step
    "short": (7, 50, 1, 31),             # shorter than one batch, down to 1
}

#: The four update branches a ``LocalTrainingConfig`` reaches.
_SGD = {
    "plain": {"momentum": 0.0},
    "momentum": {"momentum": 0.9},
    "decay": {"momentum": 0.0, "weight_decay": 1e-2},
    "momentum-decay": {"momentum": 0.9, "weight_decay": 1e-4},
}


def _assert_cohort_matches_per_model(rng, sizes, config, policy, hidden=(7,)):
    from repro.nn.precision import dtype_policy

    with dtype_policy(policy):
        shards = _shards(rng, sizes)
        model = make_mlp(9, 4, rng, hidden=hidden)
        expected = _per_model_updates(model, shards, config)
        got = cohort_updates(
            model, shards, config,
            [np.random.default_rng(100 + i) for i in range(len(shards))],
        )
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert b.dtype == np.dtype(policy)
        np.testing.assert_array_equal(a, b)


class TestCohortUpdatesBitIdentity:
    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("sgd", list(_SGD.values()), ids=list(_SGD))
    @pytest.mark.parametrize("sizes", list(_SIZES.values()), ids=list(_SIZES))
    def test_updates_match_per_model_training(self, rng, sizes, sgd, policy):
        config = LocalTrainingConfig(epochs=2, batch_size=32, lr=0.1, **sgd)
        _assert_cohort_matches_per_model(rng, sizes, config, policy)

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("hidden", [(), (7,), (7, 5)])
    def test_every_mlp_depth_under_both_policies(self, rng, hidden, policy):
        config = LocalTrainingConfig(
            epochs=2, batch_size=16, lr=0.1, momentum=0.9, weight_decay=1e-4
        )
        _assert_cohort_matches_per_model(rng, (40, 23, 40), config, policy, hidden)

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("sizes", list(_SIZES.values()), ids=list(_SIZES))
    def test_gradient_clipping_matches(self, rng, sizes, policy):
        config = LocalTrainingConfig(
            epochs=2, batch_size=32, lr=0.5, momentum=0.9, max_grad_norm=0.05
        )
        _assert_cohort_matches_per_model(rng, sizes, config, policy)

    def test_empty_shard_rejected_like_per_model(self, rng):
        shards = _shards(rng, (10,)) + [Dataset(np.zeros((0, 9)), np.zeros(0, dtype=int), 4)]
        model = make_mlp(9, 4, rng, hidden=(7,))
        config = LocalTrainingConfig()
        with pytest.raises(ValueError, match="empty dataset"):
            cohort_updates(model, shards, config, [rng, rng])

    def test_shard_rng_count_mismatch_rejected(self, rng):
        model = make_mlp(9, 4, rng, hidden=(7,))
        with pytest.raises(ValueError, match="rng streams"):
            cohort_updates(model, _shards(rng, (10,)), LocalTrainingConfig(), [])


class TestEligibilityAndPlanning:
    def test_malicious_override_not_cohortable(self, rng):
        from repro.attacks.untargeted import SignFlipClient

        shard = _shards(rng, (12,))[0]
        assert is_cohortable(HonestClient(0, shard))
        assert not is_cohortable(
            SignFlipClient(1, shard, boost=2.0, attack_rounds=range(10))
        )

    def test_cohort_safe_opt_out_respected(self, rng):
        class OptOutClient(HonestClient):
            cohort_safe = False

        shard = _shards(rng, (12,))[0]
        assert not is_cohortable(OptOutClient(0, shard))

    def test_empty_dataset_not_cohortable(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        assert not is_cohortable(HonestClient(0, empty))

    def test_plan_respects_size_and_order(self, rng):
        shards = _shards(rng, [10] * 7)
        clients = [HonestClient(i, s) for i, s in enumerate(shards)]
        model = make_mlp(9, 4, rng, hidden=(5,))
        assert plan_cohorts(clients, [4, 2, 6], model, cohort_size=0) == []
        assert plan_cohorts(clients, [4, 2, 6], model, cohort_size=1) == []
        assert plan_cohorts(clients, [4, 2, 6], model, cohort_size=8) == [[4, 2, 6]]
        # Chunking caps at cohort_size; a single leftover is not stacked.
        assert plan_cohorts(clients, [0, 1, 2, 3, 4], model, cohort_size=2) == [
            [0, 1], [2, 3],
        ]

    def test_plan_skips_unstackable_architectures(self, rng):
        from repro.nn.layers import Dense
        from repro.nn.network import Network
        from tests.conftest import Square

        shards = _shards(rng, [10] * 2)
        clients = [HonestClient(i, s) for i, s in enumerate(shards)]
        unstackable = Network([Dense(9, 4, rng), Square()])
        assert plan_cohorts(clients, [0, 1], unstackable, cohort_size=4) == []
        stackable = make_mlp(9, 4, rng, hidden=(5,))
        assert plan_cohorts(clients, [0, 1], stackable, cohort_size=4) == [[0, 1]]


class TestExecutorIntegration:
    def test_sequential_cohort_matches_per_model(self):
        model, clients, _, config = make_world(seed=5)
        local = LocalTrainingConfig(
            epochs=config.local_epochs, batch_size=config.batch_size,
            lr=config.client_lr, momentum=config.client_momentum,
        )
        streams = RngStreams.from_seed(3)
        ids = [0, 2, 3, 5]
        baseline = SequentialExecutor(cohort_size=1).run_clients(
            clients, ids, model, local, 0, streams
        )
        cohorted = SequentialExecutor(cohort_size=3).run_clients(
            clients, ids, model, local, 0, streams
        )
        for a, b in zip(baseline, cohorted):
            np.testing.assert_array_equal(a, b)

    def test_pool_cohort_matches_per_model(self):
        model, clients, _, config = make_world(seed=5)
        local = LocalTrainingConfig(
            epochs=config.local_epochs, batch_size=config.batch_size,
            lr=config.client_lr, momentum=config.client_momentum,
        )
        streams = RngStreams.from_seed(3)
        ids = [0, 1, 2, 4, 5]
        baseline = SequentialExecutor(cohort_size=1).run_clients(
            clients, ids, model, local, 0, streams
        )
        with make_executor(2, cohort_size=4) as executor:
            cohorted = executor.run_clients(clients, ids, model, local, 0, streams)
        for a, b in zip(baseline, cohorted):
            np.testing.assert_array_equal(a, b)

    def test_mixed_parent_and_cohort_clients(self):
        """A non-parallel-safe client runs on the calling thread while the
        rest stack on a pool thread; ordering is preserved."""
        model, clients, _, config = make_world(seed=5, home_client=2)
        local = LocalTrainingConfig(
            epochs=config.local_epochs, batch_size=config.batch_size,
            lr=config.client_lr, momentum=config.client_momentum,
        )
        streams = RngStreams.from_seed(3)
        ids = [0, 2, 4, 5]
        baseline = SequentialExecutor(cohort_size=1).run_clients(
            clients, ids, model, local, 0, streams
        )
        with make_executor(2, cohort_size=4) as executor:
            cohorted = executor.run_clients(clients, ids, model, local, 0, streams)
        for a, b in zip(baseline, cohorted):
            np.testing.assert_array_equal(a, b)

    def test_invalid_cohort_size_rejected(self):
        with pytest.raises(ValueError):
            SequentialExecutor(cohort_size=-1)
        with pytest.raises(ValueError):
            ThreadPoolRoundExecutor(2, cohort_size=-2)


class TestCohortEquivalenceMatrix:
    """Cohort-enabled engines commit bit-identical models and records to
    the seed-baseline per-model sequential engine — Sequential and Thread."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_and_snapshot(build_defended_sim(SequentialExecutor(cohort_size=1)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_commits(self, baseline, workers):
        baseline_flat, baseline_records = baseline
        with make_executor(workers, cohort_size=3) as executor:
            flat, records = run_and_snapshot(build_defended_sim(executor))
        # Committed models match the seed-baseline sequential engine.
        np.testing.assert_array_equal(baseline_flat, flat)
        # Full records match the same engine without cohorting: stacking
        # changes throughput only.
        with make_executor(workers, cohort_size=1) as twin:
            twin_flat, twin_records = run_and_snapshot(build_defended_sim(twin))
        np.testing.assert_array_equal(twin_flat, flat)
        assert twin_records == records

    @pytest.mark.parametrize(
        "workers, cohort_size", [(2, 2), (3, None), (3, 1), (3, 2), (3, 3)]
    )
    def test_every_chunk_size_on_any_pool(self, baseline, workers, cohort_size):
        baseline_flat, baseline_records = baseline
        with make_executor(workers, cohort_size=cohort_size) as executor:
            flat, records = run_and_snapshot(build_defended_sim(executor))
        np.testing.assert_array_equal(baseline_flat, flat)
        assert baseline_records == records

    def test_cohort_survives_forced_rejections(self):
        """Thread pool + cohort + forced rejections: rounds after a rejected one
        train on the kept model through the cohort path and commit
        bit-identically to the per-model sequential run."""
        reject = (3, 5)
        sync_sim = build_forced_sim(
            SequentialExecutor(cohort_size=1), reject_rounds=reject
        )
        sync_records = sync_sim.run(8)
        sync_flat = sync_sim.global_model.get_flat()

        with make_executor(2, cohort_size=3) as executor:
            sim = build_forced_sim(executor, reject_rounds=reject)
            records = sim.run(8)
            flat = sim.global_model.get_flat()
        np.testing.assert_array_equal(sync_flat, flat)
        assert snapshot(sync_records) == snapshot(records)
        assert [r.round_idx for r in records if not r.accepted] == list(reject)
