"""Inside Algorithm 2: LOF traces, detection latency, and update norms.

Uses :mod:`repro.analysis` to open up the defense's decision signal:

1. replay a clean and a poisoned model trajectory through a single
   validator and print the margin ``LOF / (slack * threshold)`` per
   round — the raw quantity behind every vote (above 1 is a reject);
2. summarise detection latency and vote statistics of a defended run;
3. compare honest update norms against the boosted malicious update (what
   norm-clipping baselines see).

Run:
    python examples/validation_diagnostics.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    collect_validator_trace,
    detection_latency,
    update_norm_stats,
    vote_summary,
)
from repro.attacks import ModelReplacementClient, ReplacementConfig, SemanticBackdoor
from repro.core import MisclassificationValidator
from repro.data import SyntheticCifar, dirichlet_partition
from repro.experiments import ExperimentConfig, run_stable_scenario
from repro.fl import FLConfig, FederatedSimulation, HonestClient, LocalTrainingConfig
from repro.nn import make_mlp


def lof_margins() -> None:
    print("=== 1. LOF margins: clean vs poisoned trajectory ===")
    rng = np.random.default_rng(5)
    task = SyntheticCifar()
    pool = task.sample(1500, rng)
    parts = dirichlet_partition(pool.y, 15, 0.9, rng, min_samples=10)
    shards = [pool.subset(p) for p in parts]
    clients = [HonestClient(i, s) for i, s in enumerate(shards)]
    model = make_mlp(task.flat_dim, 10, rng, hidden=(32,))
    sim = FederatedSimulation(
        model, clients,
        FLConfig(num_clients=15, clients_per_round=5, client_lr=0.1), rng,
    )
    sim.run(35)

    # collect a clean trajectory, then graft a poisoned final model
    stable_cfg = FLConfig(num_clients=15, clients_per_round=5,
                          client_lr=0.05, global_lr=1.0)
    sim = FederatedSimulation(sim.global_model, clients, stable_cfg, rng)
    sequence = [sim.global_model.clone()]
    for _ in range(16):
        sim.run_round()
        sequence.append(sim.global_model.clone())

    backdoor = SemanticBackdoor(task)
    attacker = ModelReplacementClient(
        0, shards[0], backdoor,
        ReplacementConfig(boost=stable_cfg.replacement_boost, poison_samples=60,
                          attack_epochs=4),
        attack_rounds={0},
    )
    poisoned_model = attacker.craft_backdoored_model(
        sim.global_model, LocalTrainingConfig(), rng
    )
    poisoned_sequence = sequence[:-1] + [poisoned_model]

    validator = MisclassificationValidator(shards[1])
    clean_trace = collect_validator_trace(validator, sequence, lookback=10)
    poisoned_trace = collect_validator_trace(
        MisclassificationValidator(shards[1]), poisoned_sequence, lookback=10
    )
    clean_margin = clean_trace.margin()
    poisoned_margin = poisoned_trace.margin()
    print("  round    clean margin    poisoned margin")
    for i in range(len(clean_margin)):
        c = f"{clean_margin[i]:.2f}" if np.isfinite(clean_margin[i]) else "  - "
        p = f"{poisoned_margin[i]:.2f}" if np.isfinite(poisoned_margin[i]) else "  - "
        marker = "  <-- injection" if i == len(clean_margin) - 1 else ""
        print(f"  {clean_trace.rounds[i]:>5}   {c:>13}   {p:>16}{marker}")


def defended_run_summary() -> None:
    print("\n=== 2. Detection latency and votes of a defended run ===")
    config = ExperimentConfig(dataset="cifar", client_share=0.90)
    result = run_stable_scenario(config, seed=0)
    latency = detection_latency(result.records, result.injection_rounds)
    for injection, rounds in latency.items():
        outcome = "missed" if rounds is None else f"caught after {rounds} round(s)"
        print(f"  injection at round {injection}: {outcome}")
    summary = vote_summary(result.records)
    print(f"  voted rounds: {summary['rounds']:.0f}, "
          f"mean reject share {summary['mean_reject_share']:.2f}, "
          f"max {summary['max_reject_share']:.2f}")


def norm_comparison() -> None:
    print("\n=== 3. Honest vs boosted update norms ===")
    rng = np.random.default_rng(2)
    task = SyntheticCifar()
    pool = task.sample(1200, rng)
    parts = dirichlet_partition(pool.y, 10, 0.9, rng, min_samples=10)
    shards = [pool.subset(p) for p in parts]
    model = make_mlp(task.flat_dim, 10, rng, hidden=(32,))
    clients = [HonestClient(i, s) for i, s in enumerate(shards)]
    stats = update_norm_stats(clients, model, LocalTrainingConfig(), rng)
    print(f"  honest norms: mean {stats.mean:.2f} "
          f"(95th pct {stats.percentile_95:.2f}, max {stats.maximum:.2f})")
    boosted = 30.0 * stats.mean
    print(f"  boosted (gamma=30) malicious norm ~ {boosted:.2f} -> "
          f"outlier factor {stats.outlier_factor(boosted):.1f}x")
    print("  (what norm-clipping defenses key on — and what an attacker "
          "trades away to evade them)")


def main() -> None:
    lof_margins()
    defended_run_summary()
    norm_comparison()


if __name__ == "__main__":
    main()
