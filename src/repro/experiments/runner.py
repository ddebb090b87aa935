"""Repeat scenarios over seeds and aggregate the paper's statistics.

Seeds are fully independent and the outermost trivially parallel axis of a
sweep (every Table I / Fig. 3 cell repeats the same scenario per seed), so
:func:`run_detection_experiment` and :func:`run_adaptive_experiment` can
fan seeds out over a process pool (``seed_workers``).  Each seed process
builds its own environment (the in-process environment cache does not
cross process boundaries) and returns only the small per-run statistics;
per-seed results are deterministic, so serial and fanned-out runs
aggregate identically.  A seed process spends its time in rounds, and
every round runs at one BLAS thread (:mod:`repro.nn.blas`), so the pool
keeps to one core per process without a thread setting of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from repro.experiments.configs import ExperimentConfig
from repro.experiments.metrics import (
    AggregateStats,
    DetectionStats,
    aggregate_stats,
    detection_stats,
)
from repro.experiments.scenarios import run_stable_scenario

#: The paper averages each cell over 5 repeated experiments.
DEFAULT_SEEDS = (0, 1, 2, 3, 4)


def _detection_seed_task(config: ExperimentConfig, seed: int) -> DetectionStats:
    """One seed's defended run, reduced to its detection statistics."""
    result = run_stable_scenario(config, seed)
    return detection_stats(result.records, result.injection_rounds, result.defense_start)


def _map_over_seeds(task, payload, seeds: Sequence[int], seed_workers: int):
    """Run ``task(payload, seed)`` per seed, serially or over a process
    pool."""
    if seed_workers >= 2 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=min(seed_workers, len(seeds))) as pool:
            return list(pool.map(task, repeat(payload), seeds))
    return [task(payload, seed) for seed in seeds]


def _grid_seed_task(
    cells: dict[tuple, ExperimentConfig], seed: int
) -> dict[tuple, DetectionStats]:
    """One seed's run of every sweep cell, serially.

    Cells of a sweep share their (expensive, pretrained) environment per
    seed — ``environment_key`` excludes the defense knobs — so a whole-grid
    pass inside one process pretrains once and reuses the cache across
    cells.  This is why seed fan-out happens per *grid*, not per cell: a
    per-cell pool would rebuild the environment for every cell.
    """
    return {key: _detection_seed_task(config, seed) for key, config in cells.items()}


def _run_grid(
    cells: dict[tuple, ExperimentConfig], seeds: Sequence[int], seed_workers: int
) -> dict[tuple, AggregateStats]:
    """Aggregate every cell over seeds, optionally fanning seeds out."""
    per_seed = _map_over_seeds(_grid_seed_task, cells, seeds, seed_workers)
    return {
        key: aggregate_stats([seed_stats[key] for seed_stats in per_seed])
        for key in cells
    }


def run_detection_experiment(
    config: ExperimentConfig,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    seed_workers: int = 0,
) -> AggregateStats:
    """One table/figure cell: FP/FN rates averaged over repeated runs.

    ``seed_workers >= 2`` runs the seeds in that many processes; results
    are bit-identical either way.
    """
    runs = _map_over_seeds(_detection_seed_task, config, seeds, seed_workers)
    return aggregate_stats(runs)


def sweep_lookback(
    base: ExperimentConfig,
    lookbacks: Sequence[int],
    splits: Sequence[float],
    modes: Sequence[str] = ("clients", "server", "both"),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    seed_workers: int = 0,
) -> dict[tuple[int, float, str], AggregateStats]:
    """Paper Table I: FP/FN over look-back window sizes and data splits."""
    cells = {
        (lookback, split, mode): base.with_updates(
            lookback=lookback, client_share=split, mode=mode
        )
        for split in splits
        for lookback in lookbacks
        for mode in modes
    }
    return _run_grid(cells, seeds, seed_workers)


def sweep_quorum(
    base: ExperimentConfig,
    quorums: Sequence[int],
    splits: Sequence[float],
    modes: Sequence[str] = ("clients", "server", "both"),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    seed_workers: int = 0,
) -> dict[tuple[int, float, str], AggregateStats]:
    """Paper Fig. 3: FP/FN as a function of the quorum threshold ``q``.

    The server-only configuration does not depend on ``q``; it is evaluated
    once per split and replicated across the quorum axis.
    """
    cells: dict[tuple[int, float, str], ExperimentConfig] = {}
    for split in splits:
        for mode in modes:
            if mode == "server":
                if quorums:  # evaluated once; replicated across quorums below
                    cells[(quorums[0], split, "server")] = base.with_updates(
                        client_share=split, mode="server"
                    )
                continue
            for quorum in quorums:
                cells[(quorum, split, mode)] = base.with_updates(
                    quorum=quorum, client_share=split, mode=mode
                )
    results = _run_grid(cells, seeds, seed_workers)
    if "server" in modes and quorums:
        for split in splits:
            server_stats = results[(quorums[0], split, "server")]
            for quorum in quorums:
                results[(quorum, split, "server")] = server_stats
    return results


@dataclass(frozen=True)
class AdaptiveExperimentResult:
    """Paper Table II + Fig. 5 data for one configuration."""

    non_adaptive: AggregateStats
    adaptive: AggregateStats
    #: Reject-vote counts observed on adaptive injection rounds (Fig. 5).
    adaptive_reject_votes: tuple[int, ...]
    #: How many injections passed the attacker's own validation.
    self_check_pass_rate: float


def _adaptive_seed_task(
    config: ExperimentConfig, seed: int
) -> tuple[DetectionStats, DetectionStats, list[int], list[bool]]:
    """One seed's paired plain/adaptive runs, reduced to small statistics."""
    plain = run_stable_scenario(config.with_updates(adaptive=False), seed)
    adaptive = run_stable_scenario(config.with_updates(adaptive=True), seed)
    return (
        detection_stats(plain.records, plain.injection_rounds, plain.defense_start),
        detection_stats(
            adaptive.records, adaptive.injection_rounds, adaptive.defense_start
        ),
        adaptive.reject_votes_on_injections(),
        list(adaptive.self_check_passed.values()),
    )


def run_adaptive_experiment(
    config: ExperimentConfig,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    seed_workers: int = 0,
) -> AdaptiveExperimentResult:
    """Compare the defense against non-adaptive vs adaptive injections."""
    non_adaptive_runs: list[DetectionStats] = []
    adaptive_runs: list[DetectionStats] = []
    votes: list[int] = []
    self_checks: list[bool] = []
    for plain_stats, adaptive_stats, seed_votes, seed_checks in _map_over_seeds(
        _adaptive_seed_task, config, seeds, seed_workers
    ):
        non_adaptive_runs.append(plain_stats)
        adaptive_runs.append(adaptive_stats)
        votes.extend(seed_votes)
        self_checks.extend(seed_checks)
    return AdaptiveExperimentResult(
        non_adaptive=aggregate_stats(non_adaptive_runs),
        adaptive=aggregate_stats(adaptive_runs),
        adaptive_reject_votes=tuple(votes),
        self_check_pass_rate=(
            sum(self_checks) / len(self_checks) if self_checks else 0.0
        ),
    )
