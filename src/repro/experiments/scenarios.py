"""The paper's evaluation scenarios.

- :func:`run_stable_scenario`: the main protocol (Sec. VI-B, "the global
  model G has already stabilized"): a stable model, 20 defended warm-up
  rounds, injections at rounds 30/35/40 (0-indexed 29/34/39), 50 rounds.
- :func:`run_early_scenario`: training from scratch with early poisoning
  and a late-enabled defense (Fig. 4).
- :func:`run_error_trace`: per-class error trajectories of clean vs
  poisoned training (Fig. 2).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.adaptive import AdaptiveReplacementClient
from repro.attacks.model_replacement import ModelReplacementClient, ReplacementConfig
from repro.core.baffle import BaffleConfig, BaffleDefense, ValidatorPool
from repro.core.validation import MisclassificationValidator
from repro.data.dataset import Dataset
from repro.experiments.configs import ExperimentConfig
from repro.experiments.environment import Environment, build_environment
from repro.experiments.persistence import save_run
from repro.fl.client import Client, HonestClient
from repro.fl.config import FLConfig
from repro.fl.parallel import make_executor
from repro.fl.selection import ScheduledSelector
from repro.fl.simulation import FederatedSimulation, RoundRecord
from repro.nn.metrics import accuracy, confusion_matrix, source_focused_errors
from repro.nn.models import make_mlp
from repro.nn.precision import dtype_policy
from repro.obs import make_tracer
from repro.obs.export import export_run


def _policy_scoped(fn):
    """Run a scenario under its config's execution precision policy.

    The scope spans the whole scenario — environment build (cached per
    policy), attacker setup, defended run — so every array the scenario
    allocates is policy-dtype.  Scenario entry points take the config as
    their first argument by convention.
    """

    @functools.wraps(fn)
    def wrapper(config, *args, **kwargs):
        with dtype_policy(config.dtype_policy):
            return fn(config, *args, **kwargs)

    return wrapper


@dataclass
class StableRunResult:
    """Outcome of one defended stable-model run."""

    records: list[RoundRecord]
    injection_rounds: tuple[int, ...]
    defense_start: int
    #: For adaptive attackers: per injection round, did the candidate pass
    #: the attacker's own validation ("adaptive injection")?
    self_check_passed: dict[int, bool] = field(default_factory=dict)
    main_accuracy: list[float] = field(default_factory=list)
    backdoor_accuracy: list[float] = field(default_factory=list)

    def reject_votes_on_injections(self) -> list[int]:
        """Reject-vote counts on injection rounds (paper Fig. 5)."""
        injections = set(self.injection_rounds)
        return [
            r.decision.reject_votes
            for r in self.records
            if r.round_idx in injections
        ]


@_policy_scoped
def run_stable_scenario(
    config: ExperimentConfig,
    seed: int,
    track_metrics: bool = False,
    use_secure_agg: bool = False,
) -> StableRunResult:
    """Run one defended window over a (cached) stable environment."""
    env = build_environment(config, seed)
    run_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBAFF1E)))

    defense = _build_defense(config, env)
    defense.prime(env.stable_model)
    fl_config = FLConfig(
        num_clients=config.num_clients,
        clients_per_round=config.clients_per_round,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        client_lr=config.stable_lr,
        global_lr=config.stable_global_lr,
    )
    clients = _build_clients(config, env, defense, fl_config.effective_global_lr)
    selector = ScheduledSelector(
        config.num_clients,
        config.clients_per_round,
        {r: [env.attacker_id] for r in config.attack_rounds},
    )
    hooks = {}
    if track_metrics:
        test = env.test_data
        bd_eval = env.backdoor.backdoor_test_instances(
            200, np.random.default_rng(seed)
        )
        target = env.backdoor.target_label
        hooks = {
            "main_acc": lambda m: accuracy(test.y, m.predict(test.x)),
            "backdoor_acc": lambda m: float(
                (m.predict(bd_eval.x) == target).mean()
            ),
        }
    tracer = make_tracer(config.trace)
    with _executor(config) as executor:
        sim = FederatedSimulation(
            env.stable_model.clone(),
            clients,
            fl_config,
            run_rng,
            selector=selector,
            defense=defense,
            use_secure_agg=use_secure_agg,
            metric_hooks=hooks,
            executor=executor,
            tracer=tracer,
        )
        records = sim.run(config.total_rounds)
    paths = export_run(tracer, config.trace, f"stable-s{seed}")
    if paths is not None:
        save_run(
            records,
            paths["base"].with_suffix(".run.json"),
            metrics=tracer.metrics.snapshot(),
            metadata={"scenario": "stable", "seed": seed},
        )

    attacker = clients[env.attacker_id]
    self_checks = (
        dict(attacker.self_check_passed)
        if isinstance(attacker, AdaptiveReplacementClient)
        else {}
    )
    return StableRunResult(
        records=records,
        injection_rounds=config.attack_rounds,
        defense_start=config.defense_start,
        self_check_passed=self_checks,
        main_accuracy=[r.metrics.get("main_acc", np.nan) for r in records]
        if track_metrics
        else [],
        backdoor_accuracy=[r.metrics.get("backdoor_acc", np.nan) for r in records]
        if track_metrics
        else [],
    )


# ----------------------------------------------------------------------
# Early-round scenario (Fig. 4)
# ----------------------------------------------------------------------
@dataclass
class EarlyRoundResult:
    """Per-round trajectories of the early-poisoning experiment."""

    records: list[RoundRecord]
    main_accuracy: list[float]
    backdoor_accuracy: list[float]
    injection_rounds: tuple[int, ...]
    defense_start: int | None


@_policy_scoped
def run_early_scenario(
    config: ExperimentConfig,
    seed: int,
    total_rounds: int = 160,
    defense_start: int | None = 106,
    early_injections: tuple[int, ...] = (20, 60),
    late_injection_start: int = 106,
    late_injection_every: int = 3,
    late_injection_count: int = 10,
) -> EarlyRoundResult:
    """Training from scratch with early poisoning (paper Fig. 4, scaled 1:5).

    The paper trains 800 rounds, injects at 100 and 300 (defense off),
    enables the defense at 530, then injects every 15 rounds until 680.
    The default arguments scale that schedule by 1/5 to 160 rounds.
    ``defense_start=None`` runs the no-defense baseline (Figs. 4a/4c).
    """
    env = build_environment(config, seed)
    late = tuple(
        late_injection_start + late_injection_every * i
        for i in range(late_injection_count)
    )
    injections = tuple(sorted(set(early_injections) | set(late)))
    if injections and injections[-1] >= total_rounds:
        raise ValueError("injection schedule exceeds total_rounds")

    run_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xEA271)))
    defense = None
    if defense_start is not None:
        defended_config = config.with_updates(
            defense_start=defense_start,
            total_rounds=total_rounds,
            attack_rounds=injections,
        )
        defense = _build_defense(defended_config, env)

    flat_dim = env.shards[0].x.shape[1]
    model = make_mlp(flat_dim, env.num_classes, run_rng, hidden=config.hidden)

    fl_config = FLConfig(
        num_clients=config.num_clients,
        clients_per_round=config.clients_per_round,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        client_lr=config.pretrain_lr,
    )
    scenario_config = config.with_updates(
        attack_rounds=injections,
        total_rounds=total_rounds,
        defense_start=defense_start if defense_start is not None else total_rounds - 1,
    )
    clients = _build_clients(
        scenario_config, env, defense, fl_config.effective_global_lr
    )
    selector = ScheduledSelector(
        config.num_clients,
        config.clients_per_round,
        {r: [env.attacker_id] for r in injections},
    )
    test = env.test_data
    bd_eval = env.backdoor.backdoor_test_instances(200, np.random.default_rng(seed))
    target = env.backdoor.target_label
    tracer = make_tracer(config.trace)
    with _executor(config) as executor:
        sim = FederatedSimulation(
            model,
            clients,
            fl_config,
            run_rng,
            selector=selector,
            defense=defense,
            metric_hooks={
                "main_acc": lambda m: accuracy(test.y, m.predict(test.x)),
                "backdoor_acc": lambda m: float((m.predict(bd_eval.x) == target).mean()),
            },
            executor=executor,
            tracer=tracer,
        )
        records = sim.run(total_rounds)
    paths = export_run(tracer, config.trace, f"early-s{seed}")
    if paths is not None:
        save_run(
            records,
            paths["base"].with_suffix(".run.json"),
            metrics=tracer.metrics.snapshot(),
            metadata={"scenario": "early", "seed": seed},
        )
    return EarlyRoundResult(
        records=records,
        main_accuracy=[r.metrics["main_acc"] for r in records],
        backdoor_accuracy=[r.metrics["backdoor_acc"] for r in records],
        injection_rounds=injections,
        defense_start=defense_start,
    )


# ----------------------------------------------------------------------
# Per-class error traces (Fig. 2)
# ----------------------------------------------------------------------
@_policy_scoped
def run_error_trace(
    config: ExperimentConfig,
    seed: int,
    rounds: int = 40,
    injections: tuple[int, ...] = (25, 30, 35),
) -> dict[str, np.ndarray]:
    """Per-class error-rate trajectories, clean vs poisoned (paper Fig. 2).

    Returns ``{"clean": (rounds, classes), "poisoned": (rounds, classes),
    "source_class": int}`` where entry ``[r, y]`` is the class-conditional
    error rate of class ``y`` after round ``r`` on a fixed test set.
    """
    env = build_environment(config, seed)
    traces: dict[str, np.ndarray] = {}
    for label, attack_rounds in (("clean", ()), ("poisoned", injections)):
        scenario_config = config.with_updates(
            attack_rounds=attack_rounds,
            total_rounds=rounds,
            defense_start=rounds - 1,  # defense irrelevant; keep config valid
        )
        fl_config = FLConfig(
            num_clients=config.num_clients,
            clients_per_round=config.clients_per_round,
            local_epochs=config.local_epochs,
            batch_size=config.batch_size,
            client_lr=config.stable_lr,
            global_lr=config.stable_global_lr,
        )
        clients = _build_clients(
            scenario_config, env, None, fl_config.effective_global_lr
        )
        selector = ScheduledSelector(
            config.num_clients,
            config.clients_per_round,
            {r: [env.attacker_id] for r in attack_rounds},
        )
        tracer = make_tracer(config.trace)
        with _executor(config) as executor:
            sim = FederatedSimulation(
                env.stable_model.clone(),
                clients,
                fl_config,
                np.random.default_rng(np.random.SeedSequence((seed, 0xF16))),
                selector=selector,
                executor=executor,
                tracer=tracer,
            )
            rows = []
            for _ in range(rounds):
                sim.run_round()
                preds = sim.global_model.predict(env.test_data.x)
                conf = confusion_matrix(env.test_data.y, preds, env.num_classes)
                rows.append(source_focused_errors(conf, normalize="class"))
        export_run(tracer, config.trace, f"trace-{label}-s{seed}")
        traces[label] = np.stack(rows)
    source_class = getattr(env.backdoor, "source_label", None)
    if source_class is None:
        from repro.data.synthetic_cifar import CIFAR_BACKDOOR_SOURCE_CLASS

        source_class = CIFAR_BACKDOOR_SOURCE_CLASS
    traces["source_class"] = np.array(source_class)
    return traces


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
@contextmanager
def _executor(config: ExperimentConfig):
    """The round executor a scenario config asks for
    (:func:`repro.fl.parallel.make_executor`).

    ``config.sanitize`` turns the runtime sanitizer on for the executor's
    whole lifetime via :func:`repro.analysis.sanitize.scope`.
    """
    from repro.analysis import sanitize

    with sanitize.scope(config.sanitize):
        with make_executor(
            config.workers,
            cohort_size=config.cohort_size,
            faults=config.faults,
            task_deadline_s=config.task_deadline_s,
        ) as executor:
            yield executor


def _build_defense(config: ExperimentConfig, env: Environment) -> BaffleDefense:
    validator_kwargs = {
        "normalize": config.validator_normalize,
        "threshold_slack": config.validator_slack,
        "features": config.validator_features,
    }
    validator_pool = None
    if config.mode in ("clients", "both"):
        datasets: dict[int, Dataset] = {
            cid: shard
            for cid, shard in enumerate(env.shards)
            if cid != env.attacker_id
        }
        if config.malicious_validators:
            from repro.core.validation import ConstantVoteValidator

            lie = 1 if config.malicious_vote_strategy == "dos" else 0
            validators: dict[int, object] = {
                cid: MisclassificationValidator(ds, **validator_kwargs)
                for cid, ds in datasets.items()
            }
            corrupted = sorted(validators)[: config.malicious_validators]
            for cid in corrupted:
                validators[cid] = ConstantVoteValidator(lie)
            validator_pool = ValidatorPool(validators)
        else:
            validator_pool = ValidatorPool.from_datasets(
                datasets, **validator_kwargs
            )
    server_validator = None
    if config.mode in ("server", "both"):
        server_validator = MisclassificationValidator(
            env.server_data, **validator_kwargs
        )
    baffle_config = BaffleConfig(
        lookback=config.lookback,
        quorum=config.quorum,
        num_validators=config.num_validators,
        mode=config.mode,
        start_round=config.defense_start,
        dropout_rate=config.validator_dropout,
        quorum_policy=config.quorum_policy,
        quorum_min=config.quorum_min,
    )
    return BaffleDefense(baffle_config, validator_pool, server_validator)


def _build_clients(
    config: ExperimentConfig,
    env: Environment,
    defense: BaffleDefense | None,
    effective_global_lr: float,
) -> list[Client]:
    """The scenario's client population: the attacker at
    ``env.attacker_id`` and an honest client on every other shard."""
    replacement = ReplacementConfig(
        # Full-replacement boost N/lambda for the lambda this run uses.
        boost=config.num_clients / effective_global_lr,
        poison_ratio=config.poison_ratio,
        poison_samples=config.poison_samples,
        attack_epochs=config.attack_epochs,
        attack_lr=config.attack_lr,
    )
    attacker_shard = env.shards[env.attacker_id]
    if config.adaptive:
        if defense is None:
            raise ValueError("adaptive attacker needs the defense history")
        attacker: Client = AdaptiveReplacementClient(
            env.attacker_id,
            attacker_shard,
            env.backdoor,
            replacement,
            set(config.attack_rounds),
            history_provider=defense.history.entries,
            max_trials=config.adaptive_max_trials,
        )
    else:
        attacker = ModelReplacementClient(
            env.attacker_id,
            attacker_shard,
            env.backdoor,
            replacement,
            set(config.attack_rounds),
        )
    return [
        attacker if cid == env.attacker_id else HonestClient(cid, shard)
        for cid, shard in enumerate(env.shards)
    ]
