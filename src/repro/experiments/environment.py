"""Experiment environments: data layout + pretrained stable model.

Building an environment is the expensive part of a detection experiment
(pretraining the global model to stability).  Environments depend only on
the data/FL fields of the config — not on defense parameters — so sweeps
over ``l``/``q``/``mode`` reuse one cached environment per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import BackdoorTask
from repro.attacks.label_flip import LabelFlipBackdoor, pick_label_flip_classes
from repro.attacks.semantic_backdoor import SemanticBackdoor
from repro.data.dataset import Dataset
from repro.data.partition import dirichlet_partition
from repro.data.synthetic_cifar import SyntheticCifar
from repro.data.synthetic_femnist import SyntheticFemnist
from repro.experiments.configs import ExperimentConfig
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.parallel import make_executor
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import make_mlp
from repro.nn.network import Network
from repro.nn.precision import dtype_policy

_ENV_CACHE: dict[tuple, "Environment"] = {}
_MIN_SHARD = 10


@dataclass
class Environment:
    """Frozen inputs of a defended run."""

    config: ExperimentConfig
    seed: int
    shards: list[Dataset]
    server_data: Dataset
    test_data: Dataset
    stable_model: Network
    backdoor: BackdoorTask
    attacker_id: int
    num_classes: int


def build_environment(
    config: ExperimentConfig, seed: int, cache: bool = True
) -> Environment:
    """Generate data, partition it, and pretrain the global model."""
    key = config.environment_key(seed)
    if cache and key in _ENV_CACHE:
        return _ENV_CACHE[key]

    # The policy scope covers data generation *and* pretraining, so the
    # stable model's parameters are policy-dtype and the cache (keyed by
    # dtype_policy) never serves an environment built under another policy.
    with dtype_policy(config.dtype_policy):
        data_rng, train_rng = [
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        ]
        build = _build_cifar if config.dataset == "cifar" else _build_femnist
        shards, server_data, test_data, backdoor, num_classes = build(config, data_rng)
        stable_model = _pretrain(config, shards, num_classes, train_rng)
    env = Environment(
        config=config,
        seed=seed,
        shards=shards,
        server_data=server_data,
        test_data=test_data,
        stable_model=stable_model,
        backdoor=backdoor,
        attacker_id=0,
        num_classes=num_classes,
    )
    if cache:
        _ENV_CACHE[key] = env
    return env


def clear_environment_cache() -> None:
    """Drop all cached environments (tests / memory control)."""
    _ENV_CACHE.clear()


# ----------------------------------------------------------------------
# Dataset-specific layouts
# ----------------------------------------------------------------------
def _build_cifar(config: ExperimentConfig, rng: np.random.Generator):
    task = SyntheticCifar()
    pool = task.sample(config.pool_size, rng)
    test_data = task.sample(config.test_size, rng)
    client_pool, server_data = pool.split(config.client_share, rng)
    parts = dirichlet_partition(
        client_pool.y, config.num_clients, config.dirichlet_alpha, rng,
        min_samples=_MIN_SHARD,
    )
    shards = [client_pool.subset(p) for p in parts]
    backdoor = SemanticBackdoor(task)
    return shards, server_data, test_data, backdoor, task.num_classes


def _build_femnist(config: ExperimentConfig, rng: np.random.Generator):
    task = SyntheticFemnist(num_writers=config.num_clients)
    pool, writers = task.sample_with_writers(config.pool_size, rng)
    test_data = task.sample(config.test_size, rng)
    # Server share first, then one client per writer on the remainder.
    perm = rng.permutation(len(pool))
    cut = int(round((1.0 - config.client_share) * len(pool)))
    server_data = pool.subset(perm[:cut])
    client_idx = perm[cut:]
    client_writers = writers[client_idx]
    shards: list[Dataset] = []
    for writer in range(config.num_clients):
        own = client_idx[client_writers == writer]
        shard = pool.subset(own)
        if len(shard) < _MIN_SHARD:
            top_up = task.sample_for_writer(writer, _MIN_SHARD - len(shard) + 1, rng)
            shard = Dataset.concat([shard, top_up]) if len(shard) else top_up
        shards.append(shard)
    attacker_shard = shards[0]
    source, target = pick_label_flip_classes(attacker_shard, rng)
    backdoor = LabelFlipBackdoor(task, source, target, attacker_writer=0)
    return shards, server_data, test_data, backdoor, task.num_classes


def _pretrain(
    config: ExperimentConfig,
    shards: list[Dataset],
    num_classes: int,
    rng: np.random.Generator,
) -> Network:
    """Clean federated training to (approximate) stability.

    Pretraining is the expensive half of an experiment, so it runs on the
    same engine as the defended phase (``config.workers``).  Engines
    commit bit-identical models, so the environment cache key stays
    executor-independent.
    """
    flat_dim = shards[0].x.shape[1]
    model = make_mlp(flat_dim, num_classes, rng, hidden=config.hidden)
    clients = [HonestClient(i, shard) for i, shard in enumerate(shards)]
    fl_config = FLConfig(
        num_clients=config.num_clients,
        clients_per_round=config.clients_per_round,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        client_lr=config.pretrain_lr,
    )
    # Pretraining is undefended; it runs on the configured workers.
    with make_executor(config.workers, cohort_size=config.cohort_size) as executor:
        sim = FederatedSimulation(model, clients, fl_config, rng, executor=executor)
        sim.run(config.pretrain_rounds)
    return sim.global_model
