"""Unit tests for repro.experiments.configs."""

from __future__ import annotations

import pytest

from repro.experiments.configs import (
    CIFAR_SPLITS,
    FEMNIST_SPLITS,
    PAPER_ATTACK_ROUNDS,
    ExperimentConfig,
)


class TestExperimentConfig:
    def test_defaults_match_paper_structure(self):
        config = ExperimentConfig()
        assert config.clients_per_round == 10
        assert config.num_validators == 10
        assert config.local_epochs == 2
        assert config.lookback == 20
        assert config.defense_start == 20
        assert config.attack_rounds == PAPER_ATTACK_ROUNDS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dataset": "mnist"},
            {"client_share": 0.0},
            {"client_share": 1.0},
            {"defense_start": 50, "total_rounds": 50},
            {"attack_rounds": (99,)},
            {"engine": "quantum"},
            {"engine": "process"},
            {"engine": "auto"},
            {"workers": -1},
            {"cohort_size": -1},
            {"dtype_policy": "float8"},
            {"task_deadline_s": 0.0},
            {"quorum_policy": "bogus"},
            {"quorum_min": 0},
            {"faults": "meltdown@3.train"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_thread_is_the_engine_at_every_worker_count(self, workers):
        """``engine`` names the one multi-worker engine; below two workers
        it is ignored, not rejected."""
        config = ExperimentConfig(workers=workers)
        assert config.engine == "thread"
        assert config.with_updates(engine="thread").workers == workers

    def test_with_updates_validates_the_engine(self):
        with pytest.raises(ValueError, match="engine"):
            ExperimentConfig().with_updates(engine="process")

    def test_environment_key_ignores_engine_knobs(self):
        """workers/engine are pure throughput knobs: engines commit
        bit-identical models, so cached environments are shared."""
        base = ExperimentConfig()
        assert base.environment_key(0) == base.with_updates(
            workers=4, engine="thread",
        ).environment_key(0)

    def test_with_updates_returns_modified_copy(self):
        config = ExperimentConfig()
        updated = config.with_updates(lookback=30)
        assert updated.lookback == 30
        assert config.lookback == 20

    def test_environment_key_ignores_defense_params(self):
        """Pretraining runs undefended: no defense parameter, the quorum
        policy for missing votes included, can change the stable model."""
        base = ExperimentConfig()
        assert base.environment_key(0) == base.with_updates(
            lookback=30, quorum=7, mode="server",
            quorum_policy="degrade", quorum_min=2,
        ).environment_key(0)

    def test_environment_key_tracks_dtype_policy(self):
        """The precision policy changes every pretrained weight."""
        base = ExperimentConfig()
        assert base.environment_key(0) != base.with_updates(
            dtype_policy="float32"
        ).environment_key(0)

    def test_environment_key_tracks_data_params(self):
        base = ExperimentConfig()
        assert base.environment_key(0) != base.with_updates(
            pool_size=100
        ).environment_key(0)
        assert base.environment_key(0) != base.environment_key(1)

    def test_paper_splits_defined(self):
        assert len(CIFAR_SPLITS) == 3
        assert len(FEMNIST_SPLITS) == 3
        assert all(0 < s < 1 for s in CIFAR_SPLITS + FEMNIST_SPLITS)
