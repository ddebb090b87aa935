"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables or figures as text,
prints it, and archives it under ``benchmarks/results/`` so the README's
"Scale and deviations from the paper" can quote the measured numbers.

Scaling knobs (environment variables):

- ``REPRO_BENCH_SEEDS`` — repetitions per cell (default 2; the paper
  averages over 5, which roughly doubles to quintuples runtimes).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: The benchmark experiment scale: ~1/3 of the paper's client population,
#: synthetic data (see the README's "Scale and deviations from the
#: paper"), identical protocol structure (10 contributors + 10
#: validators, injections at 30/35/40).
BENCH_SCALE_NOTE = (
    "scale: 30 clients, synthetic data, protocol structure as in the paper"
)


def bench_seeds(default: int = 2) -> tuple[int, ...]:
    """Seeds for repeated runs, controlled by REPRO_BENCH_SEEDS."""
    count = int(os.environ.get("REPRO_BENCH_SEEDS", default))
    return tuple(range(max(1, count)))


def write_result(name: str, text: str) -> Path:
    """Print a table/figure text and archive it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[archived to {path}]")
    return path


def write_json(name: str, payload) -> Path:
    """Archive a machine-readable benchmark result (perf trajectory file).

    Unlike the human-readable text archives, these are meant to be
    committed (``benchmarks/results/BENCH_*.json`` is exempted from the
    results .gitignore) so the perf trajectory is tracked across PRs.
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[machine-readable result archived to {path}]")
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def paired_ratio(run_ref, run_row, rounds: int, block: int):
    """Drift-robust paired estimator of a row's speed against a reference.

    Alternates blocks of ``block`` rounds (the last one may be shorter)
    between ``run_ref(n)`` and ``run_row(n)`` until ``rounds`` rounds ran;
    returns ``(median per-block ref/row time ratio, row wall-clock)``.
    Each block's ratio comes from two adjacent-in-time measurements, so on
    a shared host whose throughput drifts on the scale of seconds the
    load curve cancels out: ratios of independently timed runs measure
    the host, not the code.
    """
    ratios: list[float] = []
    elapsed = 0.0
    done = 0
    while done < rounds:
        n = min(block, rounds - done)
        start = time.perf_counter()
        run_ref(n)
        ref_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        run_row(n)
        row_elapsed = time.perf_counter() - start
        ratios.append(ref_elapsed / row_elapsed)
        elapsed += row_elapsed
        done += n
    ratios.sort()
    mid = len(ratios) // 2
    median = (
        ratios[mid] if len(ratios) % 2 else 0.5 * (ratios[mid - 1] + ratios[mid])
    )
    return median, elapsed
