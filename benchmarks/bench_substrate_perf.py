"""Micro-benchmarks of the substrate hot paths.

Two modes:

- Under pytest (with pytest-benchmark installed) the ``test_perf_*``
  functions time the operations the experiment harness leans on (local
  training, Algorithm 2 validation, LOF, aggregation), so regressions in
  the substrate show up as benchmark deltas.
- As a standalone script it benchmarks **stacked vs per-model** execution:
  a client-training round through :func:`repro.fl.cohort.cohort_updates`
  and cold validation-profile computation through
  :func:`repro.core.errors.stacked_error_profiles`, across three
  equal-shard worlds, plus the training round alone on two *detect*
  worlds whose ten shards have the sizes of the seed-0 ``detect``
  partition (CIFAR Dirichlet(0.9), FEMNIST per-writer), so the ragged
  tail every paper round trains is on record.  It asserts bit-identical
  results and minimum speedups, and archives machine-readable
  ``benchmarks/results/BENCH_substrate.json`` (full setting only;
  ``--quick`` runs never write it).

Usage::

    python benchmarks/bench_substrate_perf.py           # full setting
    python benchmarks/bench_substrate_perf.py --quick   # CI smoke

A note on the measured speedups: stacking removes the per-model Python/
dispatch cost (and redundant work like per-client clones and loss-value
computation), not the BLAS time — per-slice GEMMs are bit-identical to
the per-model GEMMs, hence exactly as fast.  On this reference CPU the
default (cifar-shaped) world is already GEMM-bound, so its stacked gain
is modest; the femnist-shaped and overhead-bound worlds, where dispatch
overhead dominates, show the >= 2x regime the cohort engine targets.
The gates below encode measured-robust floors per world, not one global
aspiration.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# Standalone invocation support: `python benchmarks/bench_substrate_perf.py`
# puts benchmarks/ on sys.path (for _common) but not the src layout.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.lof import local_outlier_factor  # noqa: E402
from repro.core.validation import (  # noqa: E402
    MisclassificationValidator,
    ValidationContext,
)
from repro.data.synthetic_cifar import SyntheticCifar  # noqa: E402
from repro.fl.client import LocalTrainingConfig, local_train  # noqa: E402
from repro.fl.secure_agg import SecureAggregator  # noqa: E402
from repro.nn.models import make_mlp  # noqa: E402


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    task = SyntheticCifar()
    shard = task.sample(100, rng)
    model = make_mlp(task.flat_dim, 10, rng, hidden=(64,))
    local_train(model, shard, LocalTrainingConfig(epochs=5, lr=0.1), rng)
    history = []
    for version in range(31):
        local_train(model, shard, LocalTrainingConfig(epochs=1, lr=0.02), rng)
        history.append((version, model.clone()))
    return {
        "task": task, "shard": shard, "model": model, "history": history[:21],
        "long_history": history, "rng": rng,
    }


def test_perf_local_training_round(benchmark, setup):
    """One client's local training (2 epochs on a ~100-sample shard)."""
    model = setup["model"]
    shard = setup["shard"]
    rng = np.random.default_rng(1)

    def step():
        local = model.clone()
        local_train(local, shard, LocalTrainingConfig(epochs=2, lr=0.05), rng)

    benchmark(step)


def test_perf_validation_cold(benchmark, setup):
    """Algorithm 2 with a cold profile cache (first-ever validation)."""
    shard = setup["shard"]
    history = setup["history"]
    candidate = setup["model"]

    def validate():
        validator = MisclassificationValidator(shard)  # cold cache
        return validator.explain(ValidationContext(candidate, history))

    benchmark(validate)


@pytest.mark.parametrize("lookback", [20, 30])
def test_perf_validation_warm(benchmark, setup, lookback):
    """Algorithm 2 with cached profiles (the steady-state per-round cost),
    over a history of ``lookback + 1`` models."""
    shard = setup["shard"]
    history = setup["long_history"][: lookback + 1]
    candidate = setup["model"]
    validator = MisclassificationValidator(shard)
    validator.explain(ValidationContext(candidate, history))  # warm up

    benchmark(
        lambda: validator.explain(ValidationContext(candidate, history))
    )


def test_perf_lof(benchmark):
    """One vote's batched LOF call at l=20: 21 error-variation vectors,
    every trailing window scored from one distance matrix (the shape
    ``MisclassificationValidator.explain`` builds)."""
    rng = np.random.default_rng(0)
    points = rng.normal(size=(21, 20))
    benchmark(lambda: local_outlier_factor(points[14:], points[:14], k=10))


def test_perf_secure_aggregation(benchmark, setup):
    dim = setup["model"].num_parameters
    rng = np.random.default_rng(2)
    updates = {i: rng.normal(size=dim) for i in range(10)}

    def round_trip():
        agg = SecureAggregator(list(updates), dim=dim, round_seed=7)
        submissions = [agg.blind(i, u) for i, u in updates.items()]
        return agg.unmask_sum(submissions)

    benchmark(round_trip)


# ======================================================================
# Standalone mode: stacked vs per-model execution
# ======================================================================
def _standalone_main() -> int:  # pragma: no cover - exercised by CI script run
    import argparse
    import time

    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)))
    )
    from _common import write_json, write_result

    from repro.core.errors import model_error_profile, stacked_error_profiles
    from repro.data.partition import iid_partition
    from repro.data.synthetic_femnist import SyntheticFemnist
    from repro.experiments import environment
    from repro.experiments.configs import ExperimentConfig
    from repro.fl.client import HonestClient
    from repro.fl.cohort import cohort_updates

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer timing repetitions")
    parser.add_argument("--reps", type=int, default=None,
                        help="timing repetitions per row (best-of)")
    args = parser.parse_args()
    reps = args.reps if args.reps is not None else (5 if args.quick else 15)

    def iid_world(task_factory, num_clients, shard_size):
        """``num_clients`` equal training shards plus one validation shard."""
        def build(rng):
            task = task_factory()
            pool = task.sample(shard_size * (num_clients + 1), rng)
            parts = iid_partition(len(pool), num_clients + 1, rng)
            shards = [pool.subset(p) for p in parts]
            return shards[:num_clients], shards[num_clients]
        return build

    def detect_world(dataset):
        """Clients 1-10 of the seed-0 ``detect`` partition (client 0 is the
        attacker), built by the environment's own data layout."""
        def build(rng):
            del rng  # the partition draws from the experiment seed
            config = ExperimentConfig(dataset=dataset)
            data_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(2)[0])
            layout = (environment._build_cifar if dataset == "cifar"
                      else environment._build_femnist)
            return layout(config, data_rng)[0][1:11], None
        return build

    #: (name, shards, hidden, train gate, profile gate or None when the
    #: world has no validation row).  Gates are measured-robust floors per
    #: world on the reference CPU (see module docstring), asserted over the
    #: best-of repetitions; bit-identity is asserted unconditionally.  The
    #: detect worlds' floor of 1.0 is the stacking default's own condition:
    #: the stack must beat the per-model loop on the shards a round trains.
    worlds = [
        ("cifar-default", iid_world(SyntheticCifar, 10, 100), (64,), 1.05, 0.9),
        ("femnist", iid_world(lambda: SyntheticFemnist(num_writers=30), 10, 100),
         (64,), 1.4, 1.05),
        ("overhead-bound", iid_world(lambda: SyntheticFemnist(num_writers=30), 10, 40),
         (32,), 1.6, 1.15),
        ("detect-cifar", detect_world("cifar"), (64,), 1.0, None),
        ("detect-femnist", detect_world("femnist"), (64,), 1.0, None),
    ]

    def best_of(fn, count):
        fn()  # warm-up
        best = float("inf")
        for _ in range(count):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    rows = []
    failures = []  # bit-identity violations: hard-fail in every mode
    misses = []  # speedup floors: hard in full mode, advisory under --quick
    #   (shared CI runners add wall-clock noise the floors cannot absorb;
    #   the parallel bench skips its wall-clock gate on CI the same way)
    for name, build, hidden, train_gate, profile_gate in worlds:
        rng = np.random.default_rng(0)
        shards, validation_data = build(rng)
        num_clients = len(shards)
        model = make_mlp(
            shards[0].x.shape[1], shards[0].num_classes, rng, hidden=hidden
        )
        config = LocalTrainingConfig(epochs=2, batch_size=32, lr=0.05, momentum=0.9)

        # --- client-training round: per-model vs stacked cohort ---------
        def train_per_model():
            return [
                HonestClient(i, shards[i]).produce_update(
                    model, config, 0, np.random.default_rng(i)
                )
                for i in range(num_clients)
            ]

        def train_stacked():
            return cohort_updates(
                model,
                shards,
                config,
                [np.random.default_rng(i) for i in range(num_clients)],
            )

        identical = all(
            np.array_equal(a, b)
            for a, b in zip(train_per_model(), train_stacked())
        )
        seq_s = best_of(train_per_model, reps)
        stk_s = best_of(train_stacked, reps)
        train_speedup = seq_s / stk_s
        rows.append({
            "world": name, "row": "client-training-round",
            "models": num_clients,
            "shard_sizes": [len(shard) for shard in shards],
            "per_model_s": seq_s, "stacked_s": stk_s,
            "speedup": train_speedup, "identical": identical,
            "gate": train_gate,
        })
        if not identical:
            failures.append(f"{name}: cohort updates not bit-identical")
        if train_speedup < train_gate:
            misses.append(
                f"{name}: training speedup {train_speedup:.2f}x < floor {train_gate}x"
            )

        if validation_data is None:
            continue
        # --- cold validation: candidate + 20-model history profiles -----
        history_model = model.clone()
        stack_models = []
        for _ in range(21):  # 20 history models + the candidate
            local_train(
                history_model, shards[0], LocalTrainingConfig(epochs=1, lr=0.02), rng
            )
            stack_models.append(history_model.clone())

        def profiles_per_model():
            return [model_error_profile(m, validation_data) for m in stack_models]

        def profiles_stacked():
            return stacked_error_profiles(stack_models, validation_data)

        identical = all(
            np.array_equal(a.source_errors, b.source_errors)
            and np.array_equal(a.target_errors, b.target_errors)
            for a, b in zip(profiles_per_model(), profiles_stacked())
        )
        seq_s = best_of(profiles_per_model, reps)
        stk_s = best_of(profiles_stacked, reps)
        profile_speedup = seq_s / stk_s
        rows.append({
            "world": name, "row": "cold-validation-profiles",
            "models": len(stack_models),
            "per_model_s": seq_s, "stacked_s": stk_s,
            "speedup": profile_speedup, "identical": identical,
            "gate": profile_gate,
        })
        if not identical:
            failures.append(f"{name}: stacked profiles not bit-identical")
        if profile_speedup < profile_gate:
            misses.append(
                f"{name}: profile speedup {profile_speedup:.2f}x < floor {profile_gate}x"
            )

    header = f"{'world':<16} {'row':<26} {'per-model':>10} {'stacked':>10} {'speedup':>8} {'bit-id':>7}"
    lines = [
        "Stacked-vs-per-model substrate benchmark "
        f"({'quick' if args.quick else 'full'}, best of {reps})",
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row['world']:<16} {row['row']:<26} "
            f"{row['per_model_s'] * 1e3:>8.2f}ms {row['stacked_s'] * 1e3:>8.2f}ms "
            f"{row['speedup']:>7.2f}x {str(row['identical']):>7}"
        )
    if args.quick and misses:
        lines.append("")
        lines.append("SPEEDUP FLOORS MISSED (advisory under --quick):")
        lines.extend(f"  - {miss}" for miss in misses)
    elif misses:
        failures.extend(misses)
    if failures:
        lines.append("")
        lines.append("GATE FAILURES:")
        lines.extend(f"  - {failure}" for failure in failures)
    text = "\n".join(lines)
    write_result("substrate_stacked", text)
    # A quick smoke must never overwrite the committed full-setting record.
    if not args.quick:
        write_json("BENCH_substrate", {
            "mode": "full",
            "reps": reps,
            "rows": rows,
            "gates_passed": not failures,
            "speedup_floor_misses": misses,
        })
    if failures:
        print("substrate benchmark gates FAILED", file=sys.stderr)
        return 1
    print("substrate benchmark gates passed"
          + (" (speedup floors advisory under --quick)" if args.quick else ""))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_standalone_main())
