"""Benchmark of the BaFFLe detection pipeline, one workload per process.

A run drives the public experiment API seed by seed, as
``python -m repro detect`` does: ``build_environment``, then
``run_stable_scenario``, then ``detection_stats``.  Seeds run one after
another in this process (no ``seed_workers``), and native BLAS/OpenMP
thread pools stay at the host's defaults.  Every seed's accept/reject
trajectory is checked against the digest committed in ``digests.json``.

    python3 perfbench/run.py --workload server-cifar --seed 0 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a
separate traced run (``spans.py``) that reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(host, seeds, latency histogram) is written under ``perfbench/out/``.
``README.md`` defines every workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"


@dataclass(frozen=True)
class Workload:
    #: ``ExperimentConfig`` fields; everything else keeps the paper default
    #: (20 warm-up + 30 defended rounds, 40 pretraining rounds, q=5).
    config: dict
    #: Scenario wall seconds per seed on the reference host (2-core Xeon,
    #: default threading).  ``--seconds`` divided by this sets how many
    #: seeds a run measures, so a given ``--seconds`` is the same work on
    #: every commit.
    scenario_s_per_seed: float


#: Why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS = {
    "server-cifar": Workload(
        config=dict(dataset="cifar", client_share=0.90, lookback=20, mode="server"),
        scenario_s_per_seed=0.95,
    ),
    "lookback30-femnist": Workload(
        config=dict(
            dataset="femnist", client_share=0.99, lookback=30, quorum=5, mode="both"
        ),
        scenario_s_per_seed=1.28,
    ),
    "threads2-cifar": Workload(
        config=dict(
            dataset="cifar", client_share=0.90, lookback=20, quorum=5, mode="both",
            workers=2, engine="thread",
        ),
        scenario_s_per_seed=1.65,
    ),
}

#: Digests are committed for experiment seeds ``0 .. COMMITTED_SEEDS-1``.
COMMITTED_SEEDS = 64
#: 17 seeds x 30 defended rounds = 510 samples, so p98 has ten beyond it.
MIN_SEEDS = 17
#: Seed of the unmeasured warm-up scenario (see ``warm_up``).
WARMUP_SEED = COMMITTED_SEEDS - 1
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def parse_seed_list(text: str) -> list[int]:
    """``"0-16"``, ``"3,5,9"`` or a mix like ``"0-3,10"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        if not lo.isdigit() or (sep and not hi.isdigit()):
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def choose_seeds(workload: Workload, bench_seed: int, seconds: float) -> list[int]:
    """The run's experiment seeds: the first seeds of the committed range,
    as many as ``seconds`` of scenario time on the reference host (at least
    ``MIN_SEEDS``), in an order drawn from ``bench_seed``.

    Every run of a workload measures the same seeds, so runs differ only
    in the order seeds meet a warming process, not in the work done."""
    count = max(MIN_SEEDS, math.ceil(seconds / workload.scenario_s_per_seed))
    seeds = list(range(count))
    random.Random(bench_seed).shuffle(seeds)
    return seeds


def load_digests(name: str) -> dict[int, str]:
    if not DIGESTS.exists():
        return {}
    table = json.loads(DIGESTS.read_text()).get(name, {})
    return {int(seed): digest for seed, digest in table.items()}


def decision_digest(records) -> str:
    """Hash of the accept/reject trajectory of one scenario run."""
    h = hashlib.sha256()
    for r in records:
        d = r.decision
        h.update(repr((
            int(r.round_idx),
            bool(r.accepted),
            int(d.reject_votes),
            -1 if d.server_vote is None else int(d.server_vote),
            sorted((int(v), int(vote)) for v, vote in d.client_votes.items()),
        )).encode())
    return h.hexdigest()[:16]


def import_api() -> tuple[SimpleNamespace, float]:
    """Import the experiment API from the checkout; return it with the
    import wall time."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy

    from repro.experiments import configs, environment, metrics, scenarios
    from repro.fl import simulation

    import_s = time.perf_counter() - t0
    return SimpleNamespace(
        numpy=numpy, configs=configs, environment=environment,
        metrics=metrics, scenarios=scenarios, simulation=simulation,
    ), import_s


def host_record(numpy) -> dict:
    """What the figures depend on; native thread settings stay unpinned."""
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without build metadata
        deps = {}
    blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """Process CPU time: self plus reaped children, user plus system."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextlib.contextmanager
def round_clock(simulation_cls):
    """Yield a list that collects ``(round_idx, wall seconds)`` of each
    ``FederatedSimulation.run_round`` call made inside the block."""
    samples: list[tuple[int, float]] = []
    original = simulation_cls.run_round

    def run_round(sim):
        t0 = time.perf_counter()
        record = original(sim)
        samples.append((record.round_idx, time.perf_counter() - t0))
        return record

    simulation_cls.run_round = run_round
    try:
        yield samples
    finally:
        simulation_cls.run_round = original


@dataclass
class SeedRun:
    seed: int
    status: str = "raised"  # ok | mismatch | unchecked | raised
    digest: str | None = None
    setup_s: float = 0.0
    scenario_s: float = 0.0
    cpu_s: float = 0.0
    rounds: int = 0
    #: ``(round_idx, wall seconds)`` of every scenario round.
    round_times: list = field(default_factory=list)
    stats: object = None


def run_scenario(api, config, seed: int, expected: str | None, run: SeedRun) -> None:
    """One scenario pass over the (cached) environment, timed and checked."""
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    with round_clock(api.simulation.FederatedSimulation) as samples:
        result = api.scenarios.run_stable_scenario(config, seed)
    run.scenario_s = time.perf_counter() - t0
    run.cpu_s = cpu_seconds() - c0
    run.rounds = len(result.records)
    run.round_times = samples
    run.digest = decision_digest(result.records)
    run.stats = api.metrics.detection_stats(
        result.records, result.injection_rounds, result.defense_start
    )
    if expected is None:
        run.status = "unchecked"
    else:
        run.status = "ok" if run.digest == expected else "mismatch"


def warm_up(api, config) -> None:
    """A short unmeasured scenario before the measured seeds.

    The first scenario in a process pays page faults and first-call costs
    that later ones do not.  Five pretraining rounds and five defended
    rounds, one with an injection, reach every code path the measured
    seeds run, at a fraction of a seed's cost."""
    start = config.defense_start
    short = config.with_updates(
        pretrain_rounds=5, total_rounds=start + 5, attack_rounds=(start + 2,)
    )
    api.scenarios.run_stable_scenario(short, WARMUP_SEED)
    api.environment.clear_environment_cache()


def run_untraced(api, config, seeds, digests) -> list[SeedRun]:
    runs = []
    for seed in seeds:
        run = SeedRun(seed)
        try:
            t0 = time.perf_counter()
            api.environment.build_environment(config, seed)
            run.setup_s = time.perf_counter() - t0
            run_scenario(api, config, seed, digests.get(seed), run)
        except Exception:  # one seed's failure is counted, not fatal
            traceback.print_exc()
            run.status = "raised"
        runs.append(run)
    return runs


def run_traced(api, config, seeds, digests, import_s, spans_path):
    """Per seed: a traced set-up, then the scenario once untraced and once
    traced, in alternating order, so ``trace.overhead`` is a paired ratio.
    Returns the seed runs (timed on their untraced pass) and the per-layer
    metrics."""
    import spans

    rec = spans.SpanRecorder()
    plan = spans.patch_plan(rec)
    runs = []
    overheads = []
    for i, seed in enumerate(seeds):
        run = SeedRun(seed)
        try:
            t0 = time.perf_counter()
            with spans.installed(plan):
                api.environment.build_environment(config, seed)
            run.setup_s = time.perf_counter() - t0
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if not traced:
                    run_scenario(api, config, seed, digests.get(seed), run)
                    continue
                t0 = time.perf_counter()
                with spans.installed(plan), rec.span("scenario"):
                    result = api.scenarios.run_stable_scenario(config, seed)
                traced_s = time.perf_counter() - t0
                traced_digest = decision_digest(result.records)
            overheads.append(traced_s / run.scenario_s - 1.0)
            if traced_digest != run.digest:
                run.status = "mismatch"  # tracing changed a decision
        except Exception:  # one seed's failure is counted, not fatal
            traceback.print_exc()
            run.status = "raised"
        runs.append(run)
    if not overheads:
        return runs, {}
    rec.write(spans_path)
    layers = spans.layer_metrics(rec.spans, import_s)
    layers["trace.overhead"] = (statistics.median(overheads), "ratio")
    return runs, layers


def percentiles(values: list[float]) -> tuple[float, float]:
    """p50 and p98, linearly interpolated between order statistics."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[97]


def defended_latencies(runs, defense_start: int) -> tuple[list[float], list[float]]:
    """Defended-round wall times (ms): all of them, and each seed's first."""
    every, first = [], []
    for run in runs:
        for round_idx, wall in run.round_times:
            if round_idx >= defense_start:
                every.append(wall * 1e3)
                if round_idx == defense_start:
                    first.append(wall * 1e3)
    return every, first


def latency_histogram(every: list[float], first: list[float], bins: int = 24) -> dict:
    """Log-spaced histogram of defended-round latency, with the share of
    each bin made of seeds' first defended rounds."""
    lo, hi = min(every), max(every)
    ratio = (hi / lo) ** (1.0 / bins) if hi > lo else 1.0 + 1e-9
    edges = [lo * ratio**i for i in range(bins + 1)]
    edges[-1] = hi

    def counts(values):
        out = [0] * bins
        for v in values:
            i = min(bins - 1, int(math.log(v / lo) / math.log(ratio))) if v > lo else 0
            out[i] += 1
        return out

    p50, p98 = percentiles(every)
    return {
        "edges_ms": edges,
        "all": counts(every),
        "first_defended": counts(first),
        "p50_ms": p50,
        "p98_ms": p98,
        "first_defended_ms_range": [min(first), max(first)] if first else None,
        "first_defended_share": len(first) / len(every),
    }


def format_histogram(hist: dict) -> str:
    edges, every, first = hist["edges_ms"], hist["all"], hist["first_defended"]
    peak = max(every)
    lines = [
        "defended-round latency (ms); '#' all rounds, 'F' of them each seed's "
        "first defended round"
    ]
    for i, (n, f) in enumerate(zip(every, first)):
        if not n:
            continue
        marks = [
            name for name in ("p50", "p98")
            if edges[i] <= hist[f"{name}_ms"] <= edges[i + 1]
        ]
        width = max(1, round(40 * n / peak))
        bar = "F" * round(width * f / n) + "#" * (width - round(width * f / n))
        lines.append(
            f"  {edges[i]:8.2f}-{edges[i + 1]:8.2f} {n:5d} {f:4d} {bar}"
            + (f"  <- {' '.join(marks)}" if marks else "")
        )
    return "\n".join(lines)


def end_to_end_metrics(runs, defense_start: int) -> dict:
    done = [r for r in runs if r.stats is not None]
    every, _ = defended_latencies(done, defense_start)
    p50, p98 = percentiles(every)
    rounds = sum(r.rounds for r in done)
    stats = [r.stats for r in done]
    correct = sum(s.true_positives + s.true_negatives for s in stats)
    total = correct + sum(s.false_positives + s.false_negatives for s in stats)
    failed = sum(r.status in ("raised", "mismatch") for r in runs)
    return {
        "rounds_per_s": (rounds / sum(r.scenario_s for r in done), "rounds/s"),
        "defended_round_ms_p50": (p50, "ms"),
        "defended_round_ms_p98": (p98, "ms"),
        "setup_s": (sum(r.setup_s for r in done), "s"),
        "cpu_s_per_round": (sum(r.cpu_s for r in done) / rounds, "s/round"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
        "decision_accuracy": (correct / total, "ratio"),
        "failed_seed_share": (failed / len(runs), "ratio"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="sets the order of the run's experiment seeds")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="scenario time to measure on the reference host; "
                        "sets the seed count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", type=parse_seed_list, default=None,
                        help="explicit experiment seeds (e.g. 100-116); seeds "
                        "without a committed digest are reported unchecked")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    api, import_s = import_api()
    workload = WORKLOADS[args.workload]
    config = api.configs.ExperimentConfig(**workload.config)
    seeds = args.seeds or choose_seeds(workload, args.seed, args.seconds)
    digests = load_digests(args.workload)
    host = host_record(api.numpy)
    print(f"workload {args.workload}: {json.dumps(workload.config)}")
    print(f"seeds ({len(seeds)}): {','.join(map(str, seeds))}")
    print("host " + json.dumps(host, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    warm_up(api, config)
    if args.trace:
        runs, metrics = run_traced(
            api, config, seeds, digests, import_s, OUT / f"{stem}.spans.json.gz"
        )
    else:
        runs = run_untraced(api, config, seeds, digests)
    done = [r for r in runs if r.stats is not None]
    if not done:
        print("perfbench: every seed raised; no metrics", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = end_to_end_metrics(runs, config.defense_start)

    every, first = defended_latencies(done, config.defense_start)
    hist = latency_histogram(every, first)
    failed = [r for r in runs if r.status in ("raised", "mismatch")]
    unchecked = [r for r in runs if r.status == "unchecked"]
    fp_fn = api.metrics.aggregate_stats([r.stats for r in done])
    print(
        f"decisions: {len(runs) - len(failed) - len(unchecked)} seeds match the "
        f"committed digest, {len(unchecked)} unchecked, {len(failed)} failed "
        f"({', '.join(f'{r.seed}:{r.status}' for r in failed) or 'none'}); "
        f"{fp_fn}; {len(every)} defended rounds"
    )
    print(format_histogram(hist))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    # failed_seed_share is 0 on a passing run, so the JSON line carries it
    # as ``failed`` over ``attempted`` instead of as a metric.
    metrics.pop("failed_seed_share", None)
    result = {
        "correct": not failed and not unchecked,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "bench_seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "detection": str(fp_fn),
        "seeds": [
            {"seed": r.seed, "status": r.status, "digest": r.digest,
             "setup_s": r.setup_s, "scenario_s": r.scenario_s,
             "round_ms": [wall * 1e3 for _, wall in r.round_times]}
            for r in runs
        ],
        "histogram": hist, "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
