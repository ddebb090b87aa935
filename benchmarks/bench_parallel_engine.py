"""Round-throughput benchmark: the round-execution engines.

Runs one defended federated world once per engine row, each engine on the
store :func:`~repro.fl.parallel.make_engine` gives it —

- ``sequential``: in-process :class:`SequentialExecutor` pinned to the
  classic unstacked per-model loop (``cohort_size=1``), the reference
  every speedup and floor is read against;
- ``sequential+stack``: the same engine at its default, which stacks the
  round's eligible clients into one cohort (ungated: it puts the thread
  and pool engines on record against the sequential default);
- ``thread``: :class:`ThreadPoolRoundExecutor` over an
  :class:`InProcessModelStore` — zero IPC, zero transport; parallel
  speedup comes from full-cohort stacked training (one vectorized pass
  over every eligible client) plus thread-overlapped validation;
- ``pool+shm``: :class:`ProcessPoolRoundExecutor` over a
  :class:`SharedMemoryModelStore`, shipping version keys into a
  shared-memory arena: O(1 new model) per round, independent of history
  length and fan-out width;
- ``thread+wN`` / ``pool+shm+wN``: the same engines at half the worker
  count, demonstrating that the paired speedup scales with workers —

and reports rounds/second, two paired speedups (against the per-model
loop and against the stacking sequential default), per-round transport
bytes, and the max absolute committed-weight divergence against both
sequential references, which must be 0.0 for every row (the
bit-identical equivalence guarantee).

A fault-injection pass forces quorum rejections on the pool and audits
the store afterwards: every version outside the retained history —
rejected candidates, task references, staged profiles — must be released
(refcount audit).

Besides the text table, a full-setting run emits ``BENCH_parallel.json``
under ``benchmarks/results/`` — a machine-readable per-row record
(wall-clock, both paired speedups, transport bytes) tracked across PRs as
the perf trajectory baseline.  ``--quick`` runs never write it.

Usage::

    python benchmarks/bench_parallel_engine.py           # full setting
    python benchmarks/bench_parallel_engine.py --quick   # CI smoke (<1 min)
    python benchmarks/bench_parallel_engine.py --workers 8 --rounds 16

Speedups are measured with a drift-robust paired estimator: each row runs
alongside two private sequential reference simulations in the same
blocks of two rounds — the per-model loop (``cohort_size=1``) and the
stacking default — and ``speedup_vs_sequential`` / ``speedup_vs_stack``
are the medians of the per-block (reference time / row time) ratios,
each reported with a 90 % block-bootstrap interval.  Ratios of
independently timed runs are NOT comparable on shared hosts — throughput
drifts 1.5x+ over tens of seconds — which is why every row carries its
own time-adjacent references (comparing two rows' speedups mixes two
pairings; ``speedup_vs_stack`` pairs each engine with the sequential
default directly), and why each row's committed weights are checked
against both references.

The default world is the FedAvg regime (local batch 10, wide fan-out):
stacked cohort training amortizes per-step Python overhead across models,
so the engines win even on a single core.  Gates: ``pool+shm`` paired
speedup over the per-model loop >= 1.0x always; ``thread`` >= 1.2x in
the full setting (>= 1.0x under ``--quick``); tracing keeps >= 0.95x of
untraced throughput; divergence 0.0 for every row; ``pool+shm`` ships at
most one model per round.  Every row measures at least
``GATE_MIN_ROUNDS`` rounds.  A timing gate passes only when its whole
interval clears the floor and fails when the interval lies below it;
while the interval straddles the floor it adds blocks, up to
``GATE_MAX_ROUNDS``, and then reports "inconclusive" and fails the run.
``speedup_vs_stack`` is recorded, not gated.  The transport numbers are
host-independent.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

# Standalone invocation support: `python benchmarks/bench_parallel_engine.py`
# puts benchmarks/ on sys.path (for _common) but not the src layout.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
from _common import (  # noqa: E402  (benchmarks/ helper)
    BOOTSTRAP_LEVEL,
    paired_ratio,
    paired_ratios,
    write_json,
    write_result,
)

from repro.core.baffle import (
    BaffleConfig,
    BaffleDefense,
    ForcedRejectDefense,
    ValidatorPool,
)
from repro.core.validation import MisclassificationValidator
from repro.data.partition import iid_partition
from repro.data.synthetic_cifar import SyntheticCifar
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.model_store import (
    InProcessModelStore,
    ModelStore,
    SharedMemoryModelStore,
)
from repro.fl.parallel import (
    RoundExecutor,
    SequentialExecutor,
    make_engine,
    make_executor,
)
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import make_mlp

#: Every row measures at least ``GATE_MIN_ROUNDS`` rounds (6 blocks of 2:
#: with fewer, a bootstrap interval is little more than the blocks'
#: range), and while a timing gate's interval straddles its floor it adds
#: blocks up to ``GATE_MAX_ROUNDS``.
GATE_MIN_ROUNDS = 12
GATE_MAX_ROUNDS = 96
#: Tracing may cost at most 5 % of round throughput.
TRACING_FLOOR = 0.95


def build_sim(
    args: argparse.Namespace,
    executor: RoundExecutor,
    store: ModelStore,
    reject_rounds: tuple[int, ...] = (),
    tracer=None,
) -> FederatedSimulation:
    rng = np.random.default_rng(0)
    task = SyntheticCifar()
    pool = task.sample(args.clients * args.shard, rng)
    parts = iid_partition(len(pool), args.clients + 1, rng)
    shards = [pool.subset(p) for p in parts]
    clients = [HonestClient(i, shards[i]) for i in range(args.clients)]
    model = make_mlp(task.flat_dim, task.num_classes, rng, hidden=args.hidden)

    validator_pool = ValidatorPool.from_datasets(
        {i: shards[i] for i in range(args.clients)}, min_history=4
    )
    defense_cls = ForcedRejectDefense if reject_rounds else BaffleDefense
    defense_kwargs = {"reject_rounds": reject_rounds} if reject_rounds else {}
    defense = defense_cls(
        BaffleConfig(
            lookback=args.lookback,
            quorum=max(2, args.validators // 2),
            num_validators=args.validators,
            mode="both",
        ),
        validator_pool,
        MisclassificationValidator(shards[args.clients], min_history=4),
        **defense_kwargs,
    )
    defense.prime(model)
    config = FLConfig(
        num_clients=args.clients,
        clients_per_round=args.per_round,
        local_epochs=args.epochs,
        batch_size=args.batch,
        client_lr=0.05,
    )
    return FederatedSimulation(
        model.clone(), clients, config, np.random.default_rng(1),
        defense=defense, executor=executor, model_store=store, tracer=tracer,
    )


def timed_run(
    args: argparse.Namespace,
    executor: RoundExecutor,
    store: ModelStore,
    floor: float | None = None,
) -> dict:
    """One engine row: wall-clock, committed weights, transport.

    Speedup is measured *paired* (:func:`_common.paired_ratios`): two
    private sequential reference simulations run the same world in the
    same blocks of 2 rounds as the row — the per-model loop
    (``cohort_size=1``), which ``floor`` reads, and the stacking default
    — and each speedup is the median per-block reference/row wall-clock
    ratio.  Comparing a row against a sequential run measured tens of
    seconds earlier would measure the host's load curve, not the engine.
    A gated row may run extra blocks to decide its floor; both references
    run the same rounds, so their committed weights are the row's
    bit-identity references.
    """
    with (
        store, executor,
        make_engine(0, cohort_size=1) as per_model,
        make_engine(0) as stack,
    ):
        sim = build_sim(args, executor, store)
        refs = {
            "per_model": build_sim(args, per_model.executor, per_model.store),
            "stack": build_sim(args, stack.executor, stack.store),
        }
        sim.run_round()  # warmup: process-pool startup, caches, JIT-ish costs
        for ref in refs.values():
            ref.run_round()
        records = []
        paired = paired_ratios(
            lambda n: records.extend(sim.run(n)),
            {name: ref.run for name, ref in refs.items()},
            max(args.rounds, GATE_MIN_ROUNDS),
            block=2, floor=floor, max_rounds=GATE_MAX_ROUNDS,
        )
        return {
            "rounds_per_s": paired["per_model"].rounds / paired["per_model"].elapsed,
            "speedup": paired["per_model"],
            "speedup_vs_stack": paired["stack"],
            "flat": sim.global_model.get_flat(),
            "ref_flats": [ref.global_model.get_flat() for ref in refs.values()],
            "transport": float(np.mean([r.transport_bytes for r in records])),
        }


def rejection_audit(args: argparse.Namespace) -> list[str]:
    """Force quorum rejections on the pool; audit store refcounts afterwards.

    Returns failure lines (empty = pass): after a shared-memory pool run
    containing forced quorum rejections, the store must hold exactly the
    retained history versions, one reference each, and nothing else: no
    rejected candidate, task reference or staged profile may leak.
    Closing the store must then unlink every ``/dev/shm`` segment.
    """
    reject_rounds = (2, 4)
    store = SharedMemoryModelStore()
    failures: list[str] = []
    label = "rejection audit"
    with store:
        executor = make_executor(args.workers, store=store)
        with executor:
            sim = build_sim(args, executor, store, reject_rounds=reject_rounds)
            records = sim.run(max(6, args.rounds))
            rejected = sum(1 for r in records if not r.accepted)
            executor.close()  # drops the executor's held global reference
            history_versions = sim.defense.history.versions()
            live = store.versions()
            if live != history_versions:
                failures.append(
                    f"{label}: leaked store versions "
                    f"{sorted(set(live) - set(history_versions))}"
                    f" (live {live} vs history {history_versions})"
                )
            over_referenced = [v for v in live if store.refcount(v) != 1]
            if over_referenced:
                failures.append(
                    f"{label}: dangling references on {over_referenced}"
                )
            if sim.defense.profile_table.staged_count:
                failures.append(f"{label}: staged profiles leaked")
    leftovers = [
        f for f in (os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else [])
        if f.startswith(store.name_prefix)
    ]
    if leftovers:
        failures.append(f"{label}: /dev/shm segments survived close: {leftovers}")
    if not failures:
        print(
            f"{label}: {rejected} forced rejections, store clean "
            "(refcount + segment audit passed)"
        )
    return failures


def gate_failures(label: str, paired, floor: float) -> list[str]:
    """The failure line of a timing gate (none when its interval clears
    ``floor``): "fail" when the interval lies below the floor,
    "inconclusive" when it still straddles it at the block cap."""
    verdict = paired.verdict(floor)
    if verdict == "pass":
        return []
    return [
        f"{label} {verdict}: paired ratio {paired.ratio:.3f}x, "
        f"{BOOTSTRAP_LEVEL:.0%} interval [{paired.low:.3f}, {paired.high:.3f}] "
        f"vs floor {floor}x after {paired.blocks} blocks"
    ]


def tracing_overhead(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Traced vs untraced paired throughput: the ≤5% overhead gate.

    Runs a traced and an untraced sequential simulation of the same world
    in alternating blocks of 2 rounds and takes the median per-block
    ``untraced/traced`` wall-clock ratio — the same drift-robust paired
    estimator as :func:`timed_run`, so a loaded host's throughput curve
    cancels out of the comparison.  Gate: the ratio's interval clears
    0.95 (tracing may cost at most 5% of round throughput), and the two
    runs must commit bit-identical models (tracing is pure observation).
    """
    from repro.obs import Tracer

    tracer = Tracer()
    untraced_store, traced_store = InProcessModelStore(), InProcessModelStore()
    untraced_exec, traced_exec = SequentialExecutor(), SequentialExecutor()
    untraced_exec.bind(store=untraced_store)
    traced_exec.bind(store=traced_store)
    failures: list[str] = []
    with untraced_store, traced_store:
        untraced = build_sim(args, untraced_exec, untraced_store)
        traced = build_sim(args, traced_exec, traced_store, tracer=tracer)
        untraced.run_round()  # warmup both before any block is timed
        traced.run_round()
        paired = paired_ratio(
            untraced.run, traced.run, GATE_MIN_ROUNDS, block=2,
            floor=TRACING_FLOOR, max_rounds=GATE_MAX_ROUNDS,
        )
        identical = bool(
            np.array_equal(
                untraced.global_model.get_flat(), traced.global_model.get_flat()
            )
        )
    spans = len(tracer.finalized_spans())
    if not identical:
        failures.append(
            "tracing perturbed committed weights — traced and untraced "
            "sequential runs must be bit-identical"
        )
    failures += gate_failures(
        "tracing overhead gate (untraced/traced)", paired, TRACING_FLOOR
    )
    stats = {
        "paired_untraced_over_traced": round(paired.ratio, 4),
        "interval": [round(paired.low, 4), round(paired.high, 4)],
        "blocks": paired.blocks,
        "verdict": paired.verdict(TRACING_FLOOR),
        "spans_recorded": spans,
        "bit_identical": identical,
        "gate_floor": TRACING_FLOOR,
    }
    return stats, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the parallel engines")
    parser.add_argument("--rounds", type=int, default=GATE_MIN_ROUNDS,
                        help="measured rounds per engine (at least "
                             f"{GATE_MIN_ROUNDS}; a gated row may add more)")
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--per-round", type=int, default=32, dest="per_round")
    parser.add_argument("--validators", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--lookback", type=int, default=4,
                        help="defense look-back window (history = lookback+1 "
                             "models; shm transport does not grow with it)")
    parser.add_argument("--shard", type=int, default=64,
                        help="samples per client shard")
    parser.add_argument("--hidden", type=int, nargs="+", default=[64])
    parser.add_argument("--batch", type=int, default=10,
                        help="local minibatch size (FedAvg's canonical "
                             "B=10 regime: many small steps per client)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke setting: small world, 2 workers")
    args = parser.parse_args(argv)
    if args.quick:
        args.workers = min(args.workers, 2)
        args.rounds = 6
        args.clients = 24
        args.per_round = 12
        args.validators = 4
        args.shard = 48
        args.hidden = [32]
    args.hidden = tuple(args.hidden)

    #: engine row -> (engine kind, workers, cohort size); engine ``None``
    #: is the sequential loop, ``workers=None`` means ``args.workers`` and
    #: cohort ``None`` the engine's stacking default.  Each row runs on the
    #: store ``make_engine`` pairs with its engine.  The sequential row is
    #: pinned to the classic unstacked per-model loop, so its rows and
    #: floors keep their meaning; the other rows exercise the
    #: cohort-stacking default, which is part of what every engine buys.
    ROWS = {
        "sequential": (None, None, 1),
        "sequential+stack": (None, None, None),
        "thread": ("thread", None, None),
        "pool+shm": ("process", None, None),
    }
    # Worker-scaling rows: the same engines at half fan-out, so the report
    # shows throughput moving with worker count.  Redundant under --quick
    # (the smoke setting already runs 2 workers).
    scaled = max(2, args.workers // 2)
    if scaled != args.workers:
        ROWS[f"thread+w{scaled}"] = ("thread", scaled, None)
        ROWS[f"pool+shm+w{scaled}"] = ("process", scaled, None)
    # Dispatch-overhead gates: batched per-worker dispatch plus the
    # cohort-stacking default must make fan-out pay for itself even on a
    # single-core host.  Quick mode keeps the floors at parity (a small
    # world on a loaded CI box measures overhead, not headroom); the full
    # setting additionally demands the thread engine's zero-IPC margin.
    FLOORS = {"pool+shm": 1.0, "thread": 1.0 if args.quick else 1.2}

    def engine_for(name):
        engine, workers, cohort_size = ROWS[name]
        if engine is None:
            return make_engine(0, cohort_size=cohort_size)
        return make_engine(
            workers if workers is not None else args.workers,
            engine=engine, cohort_size=cohort_size,
        )

    results = {}
    for name in ROWS:
        round_engine = engine_for(name)
        results[name] = timed_run(
            args, round_engine.executor, round_engine.store,
            floor=FLOORS.get(name),
        )
    model_bytes = results["sequential"]["flat"].nbytes

    lines = [
        "Parallel round engine: engines and transport",
        f"world: {args.clients} clients ({args.per_round}/round, "
        f"{args.epochs} local epochs, batch={args.batch}, "
        f"shard={args.shard}), {args.validators} validators, "
        f"lookback={args.lookback}, hidden={args.hidden}",
        f"host: {os.cpu_count()} cpu core(s); each row measured over "
        f"{max(args.rounds, GATE_MIN_ROUNDS)} rounds after 1 warmup (gated "
        f"rows: up to {GATE_MAX_ROUNDS}); model = "
        f"{model_bytes} bytes (float64); speedups are medians of paired "
        "adjacent-in-time blocks against two private sequential reference "
        "runs (the per-model loop and the stacking default), with "
        f"{BOOTSTRAP_LEVEL:.0%} block-bootstrap intervals",
        f"{'engine':<16} {'rounds/s':>9} {'vs per-model':>12} "
        f"{'interval':>13} {'vs stack':>9} {'interval':>13} "
        f"{'transport B/rd':>15} {'divergence':>11}",
    ]
    json_rows = []
    divergence = 0.0
    for name, row in results.items():
        row_divergence = max(
            float(np.max(np.abs(ref_flat - row["flat"])))
            for ref_flat in row["ref_flats"]
        )
        divergence = max(divergence, row_divergence)
        speed, vs_stack = row["speedup"], row["speedup_vs_stack"]
        lines.append(
            f"{name:<16} {row['rounds_per_s']:9.3f} {speed.ratio:11.2f}x "
            f"{f'[{speed.low:.2f}, {speed.high:.2f}]':>13} "
            f"{vs_stack.ratio:8.2f}x "
            f"{f'[{vs_stack.low:.2f}, {vs_stack.high:.2f}]':>13} "
            f"{row['transport']:15.1f} {row_divergence:11.1e}"
        )
        json_rows.append(
            {
                "engine": name,
                "workers": (
                    1 if ROWS[name][0] is None
                    else ROWS[name][1] if ROWS[name][1] is not None
                    else args.workers
                ),
                "cohort_size": ROWS[name][2],
                "rounds_per_s": round(row["rounds_per_s"], 4),
                "speedup_vs_sequential": round(speed.ratio, 4),
                "speedup_interval": [round(speed.low, 4), round(speed.high, 4)],
                "speedup_vs_stack": round(vs_stack.ratio, 4),
                "speedup_vs_stack_interval": [
                    round(vs_stack.low, 4), round(vs_stack.high, 4)
                ],
                "measured_rounds": speed.rounds,
                "gate_floor": FLOORS.get(name),
                "gate_verdict": (
                    speed.verdict(FLOORS[name]) if name in FLOORS else None
                ),
                "transport_bytes_per_round": round(row["transport"], 1),
                "weight_divergence_vs_sequential": row_divergence,
            }
        )
    lines.append(
        f"max |seq - engine| committed-weight divergence: {divergence:.1e}"
    )
    shm_transport = results["pool+shm"]["transport"]
    lines.append(
        "pool+shm ships "
        f"{shm_transport / model_bytes:.2f} models/round regardless of "
        "history length and fan-out width (O(1) new-model transport)."
    )
    lines.append(
        f"thread engine: {results['thread']['speedup'].ratio:.2f}x the "
        f"per-model loop, {results['thread']['speedup_vs_stack'].ratio:.2f}x "
        "the stacking sequential engine, with zero transport "
        f"({results['thread']['transport']:.0f} B/round) — fan-out without "
        "IPC or serialization, cohort stacking on by default"
    )
    trace_stats, trace_failures = tracing_overhead(args)
    low, high = trace_stats["interval"]
    lines.append(
        f"tracing overhead: paired untraced/traced throughput ratio "
        f"{trace_stats['paired_untraced_over_traced']:.3f} [{low:.3f}, "
        f"{high:.3f}] over {trace_stats['blocks']} blocks (gate: interval "
        f">= {TRACING_FLOOR}, i.e. tracing costs <= 5%; "
        f"{trace_stats['verdict']}), {trace_stats['spans_recorded']} spans "
        f"recorded, bit-identity "
        f"{'intact' if trace_stats['bit_identical'] else 'BROKEN'}"
    )
    text = "\n".join(lines)
    write_result("parallel_engine", text)
    # A quick smoke must never overwrite the committed full-world record.
    if not args.quick:
        write_json("BENCH_parallel", {
            "benchmark": "parallel_engine",
            "world": {
                "clients": args.clients,
                "per_round": args.per_round,
                "validators": args.validators,
                "epochs": args.epochs,
                "shard": args.shard,
                "lookback": args.lookback,
                "hidden": list(args.hidden),
                "rounds": max(args.rounds, GATE_MIN_ROUNDS),
                "workers": args.workers,
                "quick": False,
                "model_bytes": int(model_bytes),
            },
            "rows": json_rows,
            "tracing_overhead": trace_stats,
        })

    failures = rejection_audit(args)
    failures += trace_failures
    if divergence != 0.0:
        failures.append(
            "engines diverged — sequential/parallel equivalence broken"
        )
    if shm_transport > model_bytes:
        failures.append(
            "shared-memory transport exceeds one model per round "
            f"({shm_transport:.0f} B vs model {model_bytes} B)"
        )
    for name, floor in FLOORS.items():
        failures += gate_failures(
            f"{name} speedup floor", results[name]["speedup"], floor
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
