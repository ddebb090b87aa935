"""Tests for the experiment runner and sweeps (fast configs)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.experiments.runner import (
    _map_over_seeds,
    run_adaptive_experiment,
    run_detection_experiment,
    sweep_lookback,
    sweep_quorum,
)
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.nn import blas
from repro.nn.models import make_mlp


def _round_blas_threads(payload, seed):
    """A seed task: the BLAS count one round ran under (read by a metric
    hook), and the count its process keeps outside rounds."""
    rng = np.random.default_rng(seed)
    data = Dataset(rng.normal(size=(40, 2)), np.tile(np.arange(2), 20), 2)
    sim = FederatedSimulation(
        make_mlp(2, 2, rng, hidden=(4,)), [HonestClient(0, data)],
        FLConfig(num_clients=1, clients_per_round=1, local_epochs=1), rng,
        metric_hooks={"blas": lambda model: blas.thread_count()},
    )
    return sim.run_round().metrics["blas"], blas.thread_count()


class TestRunDetectionExperiment:
    def test_aggregates_over_seeds(self, fast_config):
        stats = run_detection_experiment(fast_config, seeds=(0, 1))
        assert stats.num_runs == 2
        assert 0.0 <= stats.fp_mean <= 1.0
        assert 0.0 <= stats.fn_mean <= 1.0

    def test_detection_works_in_fast_config(self, fast_config):
        stats = run_detection_experiment(fast_config, seeds=(0,))
        assert stats.fn_mean == 0.0

    def test_workers_override_is_a_pure_throughput_knob(self, fast_config):
        """Running the same config on 2 workers must not change results."""
        sequential = run_detection_experiment(fast_config, seeds=(0,))
        parallel = run_detection_experiment(
            fast_config.with_updates(workers=2), seeds=(0,)
        )
        assert parallel == sequential

    def test_seed_fanout_is_a_pure_throughput_knob(self, fast_config):
        """Per-seed process fan-out must aggregate identically to a serial
        seed loop (seeds are independent and deterministic)."""
        serial = run_detection_experiment(fast_config, seeds=(0, 1))
        fanned = run_detection_experiment(fast_config, seeds=(0, 1), seed_workers=2)
        assert fanned == serial


@pytest.mark.skipif(
    blas.BOUND is None, reason="no known OpenBLAS thread-count setter found"
)
class TestRoundsRunAtOneBlasThread:
    def test_seed_rounds_run_at_one_thread_without_a_pool_initializer(self):
        """A seed process's rounds run at one BLAS thread, and outside them
        it keeps the parent's count: the pool sets nothing itself."""
        host = blas.thread_count()
        expected = [(1, host)] * 3
        assert _map_over_seeds(
            _round_blas_threads, None, (0, 1, 2), seed_workers=2
        ) == expected
        assert blas.thread_count() == host
        assert _map_over_seeds(
            _round_blas_threads, None, (0, 1, 2), seed_workers=0
        ) == expected

    def test_a_lower_user_setting_is_kept(self):
        """``OPENBLAS_NUM_THREADS=1`` reads 1 before, inside and after a
        round."""
        code = (
            "from repro.nn import blas\n"
            "from tests.experiments.test_runner import _round_blas_threads\n"
            "print(blas.thread_count(), *_round_blas_threads(None, 0))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        assert out == ["1", "1", "1"]


class TestSeedWorkersValidation:
    @pytest.mark.parametrize("entry", ["detection", "adaptive", "lookback", "quorum"])
    def test_negative_seed_workers_rejected(self, fast_config, entry):
        """Every seed fan-out rejects a negative process count before any
        seed runs, as ``workers`` does."""
        run = {
            "detection": lambda: run_detection_experiment(
                fast_config, seeds=(0,), seed_workers=-3
            ),
            "adaptive": lambda: run_adaptive_experiment(
                fast_config, seeds=(0,), seed_workers=-3
            ),
            "lookback": lambda: sweep_lookback(
                fast_config, lookbacks=(6,), splits=(0.9,), modes=("clients",),
                seeds=(0,), seed_workers=-3,
            ),
            "quorum": lambda: sweep_quorum(
                fast_config, quorums=(2,), splits=(0.9,), modes=("clients",),
                seeds=(0,), seed_workers=-3,
            ),
        }[entry]
        with pytest.raises(ValueError, match="seed_workers"):
            run()

    def test_zero_and_one_run_serially(self):
        assert _map_over_seeds(_seed_echo, "x", (0, 1), seed_workers=0) == [
            ("x", 0), ("x", 1),
        ]
        assert _map_over_seeds(_seed_echo, "x", (0, 1), seed_workers=1) == [
            ("x", 0), ("x", 1),
        ]


def _seed_echo(payload, seed):
    return payload, seed


class TestSeedPoolShape:
    """Only ``seed_workers >= 2`` over more than one seed starts a pool,
    of at most one process per seed, and results keep the seed order."""

    @staticmethod
    def _record_pools(monkeypatch) -> list[int]:
        from repro.experiments import runner

        sizes: list[int] = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize("seed_workers, seeds, pools", [
        (2, (0,), []),
        (5, (0,), []),
        (2, (0, 1, 2), [2]),
        (8, (0, 1, 2), [3]),
        (3, (4, 1), [2]),
    ])
    def test_pool_size_is_capped_by_the_seed_count(
        self, monkeypatch, seed_workers, seeds, pools
    ):
        sizes = self._record_pools(monkeypatch)
        result = _map_over_seeds(_seed_echo, "x", seeds, seed_workers=seed_workers)
        assert sizes == pools
        assert result == [("x", seed) for seed in seeds]

    def test_a_real_pool_returns_results_in_seed_order(self):
        assert _map_over_seeds(_seed_echo, "x", (3, 1, 2), seed_workers=2) == [
            ("x", 3), ("x", 1), ("x", 2),
        ]


class TestSweeps:
    def test_sweep_lookback_covers_grid(self, fast_config):
        results = sweep_lookback(
            fast_config, lookbacks=(6, 8), splits=(0.9,), modes=("clients",),
            seeds=(0,),
        )
        assert set(results) == {(6, 0.9, "clients"), (8, 0.9, "clients")}

    def test_sweep_seed_fanout_matches_serial(self, fast_config):
        """Grid-level seed fan-out must reproduce the serial sweep."""
        kwargs = dict(
            lookbacks=(6, 8), splits=(0.9,), modes=("clients",), seeds=(0, 1)
        )
        serial = sweep_lookback(fast_config, **kwargs)
        fanned = sweep_lookback(fast_config, **kwargs, seed_workers=2)
        assert fanned == serial

    def test_sweep_quorum_replicates_server_stats(self, fast_config):
        results = sweep_quorum(
            fast_config, quorums=(2, 3), splits=(0.9,),
            modes=("clients", "server"), seeds=(0,),
        )
        assert results[(2, 0.9, "server")] is results[(3, 0.9, "server")]
        assert (2, 0.9, "clients") in results


class TestAdaptiveExperiment:
    def test_result_fields(self, fast_config):
        result = run_adaptive_experiment(
            fast_config.with_updates(adaptive_max_trials=3), seeds=(0,)
        )
        assert result.non_adaptive.num_runs == 1
        assert result.adaptive.num_runs == 1
        assert len(result.adaptive_reject_votes) == len(fast_config.attack_rounds)
        assert 0.0 <= result.self_check_pass_rate <= 1.0
