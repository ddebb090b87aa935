"""Seed-throughput benchmark: paper-protocol seeds over a process pool.

Every sweep here is many independent (config, seed) scenarios, and
``run_detection_experiment(..., seed_workers=N)`` fans the seeds over N
processes; every round, in a seed process or in a serial run, runs at
one BLAS thread (:mod:`repro.nn.blas`).  This bench runs the
paper-default detection experiment (``ExperimentConfig()``: CIFAR, 90-10
split, l=20, q=5, ``mode=both``) over 8 seeds serially and on a 2-process
seed pool, alternated in paired blocks (:func:`_common.paired_ratio`, one
whole experiment per side per block), and reports the median serial/pool
wall-clock ratio with its 90 % block-bootstrap interval, plus each side's
scenarios (seeds) per second.  Every experiment starts from an empty
environment cache, as a fresh ``repro detect --seeds 8`` does.

Both sides must aggregate to identical ``AggregateStats`` (exit 1
otherwise).  No speed is gated.  A full-setting run archives
``benchmarks/results/BENCH_seeds.json``; ``--quick`` never writes it.

Usage::

    python benchmarks/bench_seed_workers.py           # 8 seeds, 6 blocks
    python benchmarks/bench_seed_workers.py --quick   # 2 seeds, 2 blocks
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Standalone invocation support: `python benchmarks/bench_seed_workers.py`
# puts benchmarks/ on sys.path (for _common) but not the src layout.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
from _common import (  # noqa: E402  (benchmarks/ helper)
    BOOTSTRAP_LEVEL,
    paired_ratio,
    write_json,
    write_result,
)

from repro.experiments.configs import ExperimentConfig
from repro.experiments.environment import clear_environment_cache
from repro.experiments.runner import run_detection_experiment
from repro.nn import blas

#: Seeds per experiment, processes of the seed pool, and paired blocks (one
#: experiment per side each); ``--quick`` runs 2 seeds in 2 blocks.
SEEDS, SEED_WORKERS, BLOCKS = 8, 2, 6


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS keeps
    one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke setting: 2 seeds, 2 blocks, no JSON")
    args = parser.parse_args(argv)
    seeds = tuple(range(2 if args.quick else SEEDS))
    blocks = 2 if args.quick else BLOCKS
    config = ExperimentConfig()
    sides = {"serial": 0, "pool": SEED_WORKERS}
    stats = {name: [] for name in sides}
    seconds = dict.fromkeys(sides, 0.0)

    def runner(name: str):
        def run(count: int) -> None:
            for _ in range(count):
                clear_environment_cache()
                start = time.perf_counter()
                stats[name].append(run_detection_experiment(
                    config, seeds, seed_workers=sides[name]
                ))
                seconds[name] += time.perf_counter() - start
        return run

    paired = paired_ratio(
        runner("serial"), runner("pool"), blocks, block=1
    )
    reference = stats["serial"][0]
    identical = all(s == reference for runs in stats.values() for s in runs)
    rates = {
        name: len(stats[name]) * len(seeds) / seconds[name] for name in sides
    }
    rule = (f"{blas.BOUND}, 1 BLAS thread inside every round" if blas.BOUND
            else "unbound (rounds keep the host's BLAS threads)")
    lines = [
        "Seed throughput: the paper-default detect experiment over a seed pool",
        f"{len(seeds)} seeds per experiment, {paired.blocks} paired blocks; "
        f"host: {usable_cores()} usable core(s), BLAS {rule}",
        f"serial (seed_workers=0): {rates['serial']:.3f} scenarios/s",
        f"pool (seed_workers={SEED_WORKERS}): {rates['pool']:.3f} "
        "scenarios/s",
        f"paired serial/pool wall-clock ratio: {paired.ratio:.3f}x, "
        f"{BOOTSTRAP_LEVEL:.0%} interval [{paired.low:.3f}, {paired.high:.3f}]",
        f"aggregate stats {'identical' if identical else 'DIFFER'} across "
        f"all {sum(len(runs) for runs in stats.values())} experiments: "
        f"{reference}",
    ]
    write_result("seed_workers", "\n".join(lines))
    if not args.quick:
        write_json("BENCH_seeds", {
            "benchmark": "seed_workers",
            "config": "ExperimentConfig() (paper-default detect)",
            "seeds": len(seeds),
            "seed_workers": SEED_WORKERS,
            "blocks": paired.blocks,
            "usable_cores": usable_cores(),
            "blas": blas.BOUND,
            "blas_threads_per_round": 1 if blas.BOUND else None,
            "serial_scenarios_per_s": round(rates["serial"], 4),
            "pool_scenarios_per_s": round(rates["pool"], 4),
            "speedup": round(paired.ratio, 4),
            "speedup_interval": [round(paired.low, 4), round(paired.high, 4)],
            "stats_identical": identical,
            "stats": str(reference),
        })
    if not identical:
        print("FAIL: seed fan-out changed the aggregate statistics")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
