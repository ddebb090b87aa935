"""Tests for the experiment runner and sweeps (fast configs)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    _map_over_seeds,
    run_adaptive_experiment,
    run_detection_experiment,
    sweep_lookback,
    sweep_quorum,
)
from repro.nn import blas


def _blas_threads(payload, seed):
    """A seed task that reports the BLAS thread count it ran under."""
    return blas.thread_count()


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
    def test_seed_workers_hold_the_pool_budget(self):
        """Each seed process keeps the host count // workers BLAS threads;
        a serial run and the parent keep the host count."""
        host = blas.thread_count()
        fanned = _map_over_seeds(_blas_threads, None, (0, 1, 2), seed_workers=2)
        assert fanned == [blas.budget(2)] * 3
        assert blas.thread_count() == host
        assert _map_over_seeds(_blas_threads, None, (0, 1), seed_workers=0) == [
            host, host,
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
