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
from repro.data.synthetic_cifar import SyntheticCifar
from repro.data.synthetic_femnist import SyntheticFemnist
from repro.experiments.configs import ExperimentConfig
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.parallel import make_executor
from repro.fl.registry import ClientRegistry, LazyShardFactory, PartitionSpec
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
    #: The undivided client sample pool and its replayable partition — the
    #: inputs of a virtual :class:`~repro.fl.registry.ClientRegistry`.
    #: ``shards`` above is the eager materialization of exactly this split.
    client_pool: Dataset | None = None
    partition_spec: PartitionSpec | None = None


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
        if config.dataset == "cifar":
            (shards, server_data, test_data, backdoor, num_classes,
             client_pool, spec) = _build_cifar(config, data_rng)
        else:
            (shards, server_data, test_data, backdoor, num_classes,
             client_pool, spec) = _build_femnist(config, data_rng)

        stable_model = _pretrain(
            config, shards, num_classes, train_rng, pool=client_pool, spec=spec
        )
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
        client_pool=client_pool,
        partition_spec=spec,
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
    # The spec records the generator state, runs the real Dirichlet draw
    # (advancing ``rng`` exactly as the old eager call did), and replays
    # it here for the eager shards — so eager and lazy splits are the
    # same draw by construction.
    spec = PartitionSpec.dirichlet(
        client_pool.y, config.num_clients, config.dirichlet_alpha, rng,
        min_samples=_MIN_SHARD,
    )
    shards = [client_pool.subset(p) for p in spec.all_parts()]
    backdoor = SemanticBackdoor(task)
    return (shards, server_data, test_data, backdoor, task.num_classes,
            client_pool, spec)


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
    # Writer shards are topped up with writer-specific draws a spec cannot
    # replay, so the lazy form re-pools the *final* shards: one
    # concatenated pool with consecutive-range parts (bit-identical data,
    # explicit — not replayed — indices).
    combined = Dataset.concat(shards)
    bounds = np.cumsum([0] + [len(s) for s in shards])
    parts = [
        np.arange(bounds[i], bounds[i + 1]) for i in range(len(shards))
    ]
    spec = PartitionSpec.from_parts(parts)
    return (shards, server_data, test_data, backdoor, task.num_classes,
            combined, spec)


def _pretrain(
    config: ExperimentConfig,
    shards: list[Dataset],
    num_classes: int,
    rng: np.random.Generator,
    pool: Dataset | None = None,
    spec: PartitionSpec | None = None,
) -> Network:
    """Clean federated training to (approximate) stability.

    Pretraining is the expensive half of an experiment, so it runs on the
    same engine as the defended phase (``config.workers``).  Engines
    commit bit-identical models, so the environment cache key stays
    executor-independent.
    """
    flat_dim = shards[0].x.shape[1]
    model = make_mlp(flat_dim, num_classes, rng, hidden=config.hidden)
    if config.virtual_clients and pool is not None and spec is not None:
        clients = ClientRegistry(LazyShardFactory(pool, spec))
    else:
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
