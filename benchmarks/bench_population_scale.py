"""Population-scale benchmark: virtual client registry + precision policy.

Measures the two claims behind the registry/precision work:

1. **Scale-independence.**  A federated round over a virtual
   :class:`~repro.fl.registry.ClientRegistry` touches memory and time
   proportional to its *cohort*, never the registered population.  The
   bench registers {1k, 100k, 1M} clients behind an O(1) arithmetic
   factory (real Dirichlet draws at 1M would dominate the measurement;
   the registry code path is identical), runs identical fixed-cohort
   rounds against each size, and reports per-size round throughput as a
   drift-robust *paired* ratio against the 1k baseline — blocks of
   rounds alternate between the two simulations, the ratio is the median
   of per-block (baseline time / row time) ratios, so host throughput
   drift cancels.  Registry construction time and process peak RSS are
   tracked alongside; the eager path (every client materialized up
   front) is timed at 1k only and skipped above that, where its linear
   memory would swamp the host.

2. **Precision policy.**  Under ``dtype_policy("float32")`` the whole
   round loop — parameters, stacked substrate, optimizer state,
   aggregation, store transport — runs in float32 (bit-identical across
   engines, tested in ``tests/fl/test_parallel.py``).  The bench runs
   the same wide-model world under both policies, paired exactly as
   above, and reports the float32 speedup plus the halved model bytes.

Gates: 1M-registry construction in low single-digit seconds; paired
1M/1k round-time ratio within 10% of parity; process peak RSS growth
across the 100k and 1M phases within 10% of the 1k-phase peak (the
monotone ``ru_maxrss`` high-water mark must already be set by the
cohort, not the population); committed float32 models exactly half the
bytes of float64; paired float32 speedup >= 1.2x on the wide world.

Besides the text table, a full-setting run emits ``BENCH_population.json``
under ``benchmarks/results/`` — the machine-readable per-row record tracked
across PRs.  ``--quick`` runs never write it.

Usage::

    python benchmarks/bench_population_scale.py           # full setting
    python benchmarks/bench_population_scale.py --quick   # CI smoke (<1 min)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

# Standalone invocation support: `python benchmarks/bench_population_scale.py`
# puts benchmarks/ on sys.path (for _common) but not the src layout.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
from _common import paired_ratio, write_json, write_result  # noqa: E402  (benchmarks/ helper)

from repro.data.synthetic_cifar import SyntheticCifar
from repro.fl.client import HonestClient
from repro.fl.config import FLConfig
from repro.fl.registry import ClientFactory, ClientRegistry
from repro.fl.simulation import FederatedSimulation, _peak_rss_kb
from repro.nn.models import make_mlp
from repro.nn.precision import dtype_policy


class ModularShardFactory(ClientFactory):
    """O(1)-construction factory: client ``cid``'s shard is an arithmetic
    stride over one fixed sample pool.

    Stands in for :class:`LazyShardFactory` at populations where a real
    partition draw is infeasible (a 1M-column Dirichlet matrix), while
    exercising the identical registry machinery: ``make`` builds a plain
    :class:`HonestClient` over a fresh ``pool.subset`` view, metadata is
    answered without materializing, and the shard dies at ``end_round``.
    Coprime stride constants spread neighbouring clients across the pool
    so every client sees a distinct (but deterministic) shard.
    """

    def __init__(self, pool, num_clients: int, shard: int) -> None:
        self._pool = pool
        self._num = num_clients
        self._shard = shard
        self._base = np.arange(shard, dtype=np.intp) * 104729

    @property
    def num_clients(self) -> int:
        return self._num

    def make(self, cid: int):
        idx = (cid * 7919 + self._base) % len(self._pool)
        return HonestClient(cid, self._pool.subset(idx))

    def shard_len(self, cid: int) -> int:
        return self._shard


def build_sim(
    pool,
    population: int,
    args: argparse.Namespace,
    *,
    shard: int,
    hidden: tuple[int, ...],
    eager: bool = False,
    seed: int = 1,
):
    factory = ModularShardFactory(pool, population, shard)
    clients = (
        [factory.make(i) for i in range(population)]
        if eager
        else ClientRegistry(factory)
    )
    task = SyntheticCifar()
    model = make_mlp(
        task.flat_dim, task.num_classes, np.random.default_rng(0), hidden=hidden
    )
    config = FLConfig(
        num_clients=population,
        clients_per_round=args.per_round,
        local_epochs=args.epochs,
        batch_size=args.batch,
        client_lr=0.05,
    )
    return FederatedSimulation(
        model, clients, config, np.random.default_rng(seed)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=8,
                        help="measured rounds per population pairing")
    parser.add_argument("--per-round", type=int, default=8, dest="per_round",
                        help="cohort size (fixed across population sizes)")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--batch", type=int, default=10)
    parser.add_argument("--shard", type=int, default=64,
                        help="samples per materialized shard (round phases)")
    parser.add_argument("--pool", type=int, default=4096,
                        help="shared sample pool size")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1_000, 100_000, 1_000_000],
                        help="registry population sizes (first = baseline)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke setting (<1 min)")
    args = parser.parse_args(argv)
    block = 2
    precision_rounds = args.rounds
    if args.quick:
        # Rounds must stay heavy enough that scheduler jitter on a loaded
        # CI box cannot fake a 10% ratio: keep the full-mode shard, trim
        # only the pool and the precision pairing.
        args.pool = 2048
        block = 1
        precision_rounds = 6
    sizes = list(args.sizes)
    baseline = sizes[0]

    failures: list[str] = []
    rng = np.random.default_rng(0)
    task = SyntheticCifar()
    pool = task.sample(args.pool, rng)

    # ------------------------------------------------------------------
    # Registry construction: O(1) in population; eager is linear.
    # A small shard keeps the (1k-only) eager row's transient allocation
    # from polluting the later peak-RSS phases.
    # ------------------------------------------------------------------
    construction_rows = []
    eager_cap = baseline  # above this the eager build would swamp RAM
    for population in sizes:
        rss_before = _peak_rss_kb()
        start = time.perf_counter()
        registry = ClientRegistry(ModularShardFactory(pool, population, 8))
        registry_s = time.perf_counter() - start
        registry_rss_kb = _peak_rss_kb() - rss_before
        row = {
            "population": population,
            "registry_s": round(registry_s, 6),
            "registry_rss_growth_kb": registry_rss_kb,
            "eager_s": None,
            "eager_rss_growth_kb": None,
        }
        if population <= eager_cap:
            rss_before = _peak_rss_kb()
            start = time.perf_counter()
            eager = [registry[i] for i in range(population)]
            row["eager_s"] = round(time.perf_counter() - start, 6)
            row["eager_rss_growth_kb"] = _peak_rss_kb() - rss_before
            del eager
            registry.end_round()
        construction_rows.append(row)
    largest = sizes[-1]
    largest_s = construction_rows[-1]["registry_s"]
    if largest_s > 5.0:
        failures.append(
            f"{largest}-client registry took {largest_s:.2f}s to construct "
            "(gate: 5s) — construction is no longer population-independent"
        )

    # ------------------------------------------------------------------
    # Equivalence sanity: at a size small enough to materialize, the
    # registry world commits bit-identically to the eager client list.
    # (The full engine x store x policy matrix lives in tests/fl/.)
    # ------------------------------------------------------------------
    sanity_pop = 64
    sim_eager = build_sim(pool, sanity_pop, args, shard=16, hidden=(16,),
                          eager=True)
    sim_virtual = build_sim(pool, sanity_pop, args, shard=16, hidden=(16,))
    sim_eager.run(3)
    sim_virtual.run(3)
    divergence = float(np.max(np.abs(
        sim_eager.global_model.get_flat() - sim_virtual.global_model.get_flat()
    )))
    if divergence != 0.0:
        failures.append(
            f"registry world diverged from eager world ({divergence:.1e}) — "
            "lazy materialization broke the determinism contract"
        )

    # ------------------------------------------------------------------
    # Round scale-independence: identical cohorts against growing
    # registries, paired against the baseline-size simulation.  Sizes run
    # smallest-first so the monotone ru_maxrss high-water mark is set by
    # the baseline phase; any growth the larger phases add is exactly the
    # population-dependent memory the registry is supposed to eliminate.
    # ------------------------------------------------------------------
    hidden = (64,)
    sims = {
        population: build_sim(pool, population, args, shard=args.shard,
                              hidden=hidden, seed=1 + i)
        for i, population in enumerate(sizes)
    }
    ref = build_sim(pool, baseline, args, shard=args.shard, hidden=hidden,
                    seed=999)
    for sim in [ref, *sims.values()]:
        sim.run_round()  # warmup: first materialization, caches
    rss_baseline_kb = 0
    round_rows = []
    for population in sizes:
        sim = sims[population]
        records = []
        paired = paired_ratio(
            lambda n: ref.run(n),
            lambda n: records.extend(sim.run(n)),
            args.rounds,
            block,
        )
        materialized = max(r.materialized_clients for r in records)
        round_rows.append(
            {
                "population": population,
                "rounds_per_s": round(args.rounds / paired.elapsed, 4),
                "paired_time_ratio_vs_baseline": round(1.0 / paired.ratio, 4),
                "materialized_clients_peak": materialized,
                "peak_rss_kb": records[-1].peak_rss_kb,
            }
        )
        if population == baseline:
            rss_baseline_kb = _peak_rss_kb()
        if materialized > args.per_round:
            failures.append(
                f"population {population}: {materialized} clients resident "
                f"in a round (cohort is {args.per_round}) — end_round is not "
                "discarding"
            )
    rss_final_kb = _peak_rss_kb()
    rss_growth = (rss_final_kb - rss_baseline_kb) / rss_baseline_kb
    largest_ratio = round_rows[-1]["paired_time_ratio_vs_baseline"]
    if largest_ratio > 1.10:
        failures.append(
            f"{largest}-client round wall-clock {largest_ratio:.3f}x the "
            f"{baseline}-client baseline (gate: 1.10x) — rounds are not "
            "population-independent"
        )
    if rss_growth > 0.10:
        failures.append(
            f"peak RSS grew {rss_growth:.1%} across the "
            f"{'/'.join(str(s) for s in sizes[1:])} phases (gate: 10% of the "
            f"{baseline}-phase peak {rss_baseline_kb} KiB) — memory is "
            "scaling with the population"
        )

    # ------------------------------------------------------------------
    # Precision policy: the same wide-model world under float64 and
    # float32, paired.  Wide layers put the round in BLAS, where halved
    # operand width is the whole story.
    # ------------------------------------------------------------------
    wide = (256, 256)
    precision_sims = {}
    for policy in ("float64", "float32"):
        with dtype_policy(policy):
            precision_sims[policy] = build_sim(
                pool, baseline, args, shard=args.shard, hidden=wide, seed=7
            )
            precision_sims[policy].run_round()  # warmup under the policy

    def run_policy(policy):
        def run(n):
            with dtype_policy(policy):
                precision_sims[policy].run(n)
        return run

    f32_speedup = paired_ratio(
        run_policy("float64"), run_policy("float32"), precision_rounds, block
    ).ratio
    flats = {
        policy: sim.global_model.get_flat()
        for policy, sim in precision_sims.items()
    }
    precision_divergence = float(np.max(np.abs(
        flats["float64"] - flats["float32"].astype(np.float64)
    )))
    precision_rows = [
        {
            "policy": policy,
            "model_dtype": str(flats[policy].dtype),
            "model_bytes": int(flats[policy].nbytes),
            "paired_speedup_vs_float64": (
                1.0 if policy == "float64" else round(f32_speedup, 4)
            ),
        }
        for policy in ("float64", "float32")
    ]
    if str(flats["float32"].dtype) != "float32":
        failures.append(
            f"float32 policy committed a {flats['float32'].dtype} model"
        )
    if flats["float32"].nbytes * 2 != flats["float64"].nbytes:
        failures.append(
            "float32 model is not exactly half the float64 bytes "
            f"({flats['float32'].nbytes} vs {flats['float64'].nbytes})"
        )
    f32_floor = 1.2
    if f32_speedup < f32_floor:
        failures.append(
            f"float32 paired speedup {f32_speedup:.3f}x below the "
            f"{f32_floor}x floor on the wide world — the policy is not "
            "buying its precision cost"
        )

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def fmt_pop(population: int) -> str:
        return (
            f"{population // 1_000_000}M" if population >= 1_000_000
            else f"{population // 1_000}k" if population >= 1_000
            else str(population)
        )

    lines = [
        "Population scale: virtual client registry + precision policy",
        f"world: cohort {args.per_round}/round, {args.epochs} local epochs, "
        f"batch={args.batch}, shard={args.shard}, pool={args.pool}, "
        f"hidden={hidden} (precision rows: {wide})",
        f"host: {os.cpu_count()} cpu core(s); {args.rounds} rounds per "
        "pairing after 1 warmup; ratios are medians of paired "
        "adjacent-in-time blocks against the baseline simulation",
        "",
        f"registry construction ({fmt_pop(eager_cap)}-and-under also built "
        "eagerly; above that the eager path is skipped — linear memory):",
        f"{'population':>11} {'registry':>10} {'eager':>10}",
    ]
    for row in construction_rows:
        eager_s = f"{row['eager_s']:.3f}s" if row["eager_s"] is not None else "—"
        lines.append(
            f"{fmt_pop(row['population']):>11} {row['registry_s']:>9.6f}s "
            f"{eager_s:>10}"
        )
    lines += [
        "",
        "fixed-cohort rounds vs registry size:",
        f"{'population':>11} {'rounds/s':>9} {'vs base':>8} "
        f"{'resident':>9} {'peak RSS':>10}",
    ]
    for row in round_rows:
        lines.append(
            f"{fmt_pop(row['population']):>11} {row['rounds_per_s']:9.3f} "
            f"{row['paired_time_ratio_vs_baseline']:7.3f}x "
            f"{row['materialized_clients_peak']:>9} "
            f"{row['peak_rss_kb'] / 1024:9.1f}M"
        )
    lines += [
        f"peak RSS growth across post-baseline phases: {rss_growth:.1%} "
        "(gate: 10%)",
        f"registry-vs-eager committed-weight divergence "
        f"({sanity_pop} clients): {divergence:.1e}",
        "",
        "precision policy (wide world, paired float64 reference):",
        f"{'policy':>8} {'dtype':>8} {'model bytes':>12} {'speedup':>8}",
    ]
    for row in precision_rows:
        lines.append(
            f"{row['policy']:>8} {row['model_dtype']:>8} "
            f"{row['model_bytes']:>12} "
            f"{row['paired_speedup_vs_float64']:7.2f}x"
        )
    lines.append(
        f"float32 vs float64 final-weight divergence: "
        f"{precision_divergence:.1e} (accumulated rounding — float32's own "
        "bit-identity contract holds across engines, see tests/fl/)"
    )
    text = "\n".join(lines)
    write_result("population_scale", text)
    # A quick smoke must never overwrite the committed full-world record.
    if not args.quick:
        write_json("BENCH_population", {
            "benchmark": "population_scale",
            "world": {
                "per_round": args.per_round,
                "epochs": args.epochs,
                "batch": args.batch,
                "shard": args.shard,
                "pool": args.pool,
                "hidden": list(hidden),
                "precision_hidden": list(wide),
                "rounds": args.rounds,
                "precision_rounds": precision_rounds,
                "sizes": sizes,
                "quick": False,
            },
            "construction": construction_rows,
            "rounds": round_rows,
            "peak_rss": {
                "baseline_phase_kb": rss_baseline_kb,
                "final_kb": rss_final_kb,
                "growth_fraction": round(rss_growth, 4),
            },
            "registry_vs_eager_divergence": divergence,
            "precision": precision_rows,
            "float32_vs_float64_divergence": precision_divergence,
        })

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
