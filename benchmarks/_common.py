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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


#: Block-bootstrap resamples behind a :class:`PairedRatio` interval, the
#: interval's two-sided coverage, and the resampler's fixed seed (the
#: same blocks always give the same interval).
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_LEVEL = 0.90
BOOTSTRAP_SEED = 0


@dataclass(frozen=True)
class PairedRatio:
    """A paired speed ratio: the median of the per-block ref/row ratios,
    with a block-bootstrap interval around it."""

    ratio: float
    low: float
    high: float
    #: Row wall-clock over every block, and the rounds each side ran.
    elapsed: float
    rounds: int
    blocks: int

    def verdict(self, floor: float) -> str:
        """``"pass"`` only when the whole interval clears ``floor``,
        ``"fail"`` when it lies below it, else ``"inconclusive"``."""
        if self.low >= floor:
            return "pass"
        if self.high < floor:
            return "fail"
        return "inconclusive"


def _summarize(ratios: list[float], elapsed: float, rounds: int) -> PairedRatio:
    """Median of the block ratios plus a percentile interval of the median
    over blocks resampled with replacement."""
    blocks = np.asarray(ratios)
    draws = np.random.default_rng(BOOTSTRAP_SEED).choice(
        blocks, size=(BOOTSTRAP_RESAMPLES, len(blocks))
    )
    tail = 50.0 * (1.0 - BOOTSTRAP_LEVEL)
    low, high = np.percentile(np.median(draws, axis=1), [tail, 100.0 - tail])
    return PairedRatio(
        float(np.median(blocks)), float(low), float(high), elapsed, rounds,
        len(ratios),
    )


def paired_ratio(
    run_ref, run_row, rounds: int, block: int,
    floor: float | None = None, max_rounds: int | None = None,
) -> PairedRatio:
    """Drift-robust paired estimator of a row's speed against a reference.

    Alternates blocks of ``block`` rounds (the last one may be shorter)
    between ``run_ref(n)`` and ``run_row(n)`` until ``rounds`` rounds ran;
    returns the median per-block ref/row time ratio, its block-bootstrap
    interval and the row wall-clock.  Each block's ratio comes from two
    adjacent-in-time measurements, so on a shared host whose throughput
    drifts on the scale of seconds the load curve cancels out: ratios of
    independently timed runs measure the host, not the code.

    With a ``floor``, blocks keep coming while the interval straddles it,
    until ``max_rounds`` rounds ran, so a gate decides from as many blocks
    as its noise needs; at the cap the verdict stays ``"inconclusive"``.
    """
    return paired_ratios(
        run_row, {"ref": run_ref}, rounds, block, floor, max_rounds
    )["ref"]


def paired_ratios(
    run_row, refs: dict, rounds: int, block: int,
    floor: float | None = None, max_rounds: int | None = None,
) -> dict[str, PairedRatio]:
    """:func:`paired_ratio` of one row against several named references,
    timed in the same blocks.

    Each block runs the first reference, then the row, then the other
    references, so the row stays adjacent in time to the first reference
    and every other one.  ``floor`` gates the first reference's ratio; the
    others ride along in whatever blocks that gate asks for.
    """
    names = list(refs)
    ratios: dict[str, list[float]] = {name: [] for name in names}
    elapsed = 0.0
    done = 0

    def timed(run, n: int) -> float:
        start = time.perf_counter()
        run(n)
        return time.perf_counter() - start

    def run_block(n: int) -> None:
        nonlocal elapsed, done
        ref_elapsed = {names[0]: timed(refs[names[0]], n)}
        row_elapsed = timed(run_row, n)
        for name in names[1:]:
            ref_elapsed[name] = timed(refs[name], n)
        for name in names:
            ratios[name].append(ref_elapsed[name] / row_elapsed)
        elapsed += row_elapsed
        done += n

    def summarize() -> dict[str, PairedRatio]:
        return {name: _summarize(ratios[name], elapsed, done) for name in names}

    while done < rounds:
        run_block(min(block, rounds - done))
    results = summarize()
    cap = rounds if max_rounds is None else max_rounds
    while (
        floor is not None and done < cap
        and results[names[0]].verdict(floor) == "inconclusive"
    ):
        run_block(min(block, cap - done))
        results = summarize()
    return results
