"""Command-line interface for the experiment harness.

Usage::

    python -m repro detect  --dataset cifar --split 0.9 --seeds 3
    python -m repro table1  --dataset cifar --seeds 2
    python -m repro fig3    --dataset femnist
    python -m repro fig4    --dataset cifar
    python -m repro table2
    python -m repro fig2
    python -m repro lint    src benchmarks examples
    python -m repro trace   traces/run.jsonl [other.jsonl]

Each experiment subcommand prints the corresponding paper artefact as
text (the same renderers the benchmark suite uses).  ``--workers``,
``--seed-workers`` and ``--cohort-size`` change only how fast the report
comes; ``--dtype float32`` runs its own trajectory.  Every scenario holds
every client's shard, because each honest client also validates (the
paper's feedback loop); :mod:`repro.fl.registry` is the library API for
populations whose clients can be built on selection.  Each subcommand
also accepts ``--sanitize`` to run under the runtime sanitizer
(:mod:`repro.analysis.sanitize`) and ``--trace <dir>`` (or
``REPRO_TRACE=<dir>``) to record round-lifecycle spans and run metrics
(:mod:`repro.obs`).  ``lint`` runs the static determinism battery
(:mod:`repro.analysis.lint`) and exits nonzero on findings; ``trace``
summarizes one recorded trace or diffs two.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.experiments.configs import (
    CIFAR_SPLITS,
    FEMNIST_SPLITS,
    ExperimentConfig,
)
from repro.experiments.reporting import (
    format_quorum_series,
    format_series,
    format_table1,
    format_table2,
    format_vote_distribution,
)
from repro.experiments.runner import (
    run_adaptive_experiment,
    run_detection_experiment,
    sweep_lookback,
    sweep_quorum,
)
from repro.fl.faults import QUORUM_POLICIES
from repro.nn.precision import DTYPE_POLICIES
from repro.experiments.scenarios import run_early_scenario, run_error_trace


#: Default repetitions per cell (the paper averages over 5).  The parser
#: default is ``None`` so subcommands that ignore --seeds can tell "flag
#: passed" from "default" and warn on any explicit value.
DEFAULT_SEED_COUNT = 2


def _seeds(args: argparse.Namespace) -> tuple[int, ...]:
    count = DEFAULT_SEED_COUNT if args.seeds is None else args.seeds
    return tuple(range(count))


def _splits(dataset: str) -> tuple[float, ...]:
    return CIFAR_SPLITS if dataset == "cifar" else FEMNIST_SPLITS


def _config(args: argparse.Namespace, **fields) -> ExperimentConfig:
    """An ``ExperimentConfig`` from the execution flags every experiment
    subcommand shares, plus the subcommand's own ``fields``."""
    return ExperimentConfig(
        workers=args.workers,
        cohort_size=args.cohort_size,
        sanitize=args.sanitize, trace=args.trace,
        dtype_policy=args.dtype,
        faults=args.faults, task_deadline_s=args.task_deadline,
        quorum_policy=args.quorum_policy, quorum_min=args.quorum_min,
        **fields,
    )


def cmd_detect(args: argparse.Namespace) -> None:
    config = _config(
        args,
        dataset=args.dataset,
        client_share=args.split,
        lookback=args.lookback,
        quorum=args.quorum,
        mode=args.mode,
    )
    stats = run_detection_experiment(
        config, _seeds(args), seed_workers=args.seed_workers
    )
    print(
        f"{args.dataset} split={args.split} l={args.lookback} q={args.quorum} "
        f"mode={args.mode}: {stats}"
    )


def cmd_table1(args: argparse.Namespace) -> None:
    splits = _splits(args.dataset)
    base = _config(args, dataset=args.dataset)
    results = sweep_lookback(
        base, (10, 20, 30), splits, seeds=_seeds(args),
        seed_workers=args.seed_workers,
    )
    print(format_table1(results, (10, 20, 30), splits, args.dataset))


def cmd_fig3(args: argparse.Namespace) -> None:
    splits = _splits(args.dataset)
    quorums = tuple(range(3, 10))
    base = _config(args, dataset=args.dataset, lookback=20)
    results = sweep_quorum(
        base, quorums, splits, seeds=_seeds(args), seed_workers=args.seed_workers
    )
    for split in splits:
        print(format_quorum_series(results, quorums, split, args.dataset))
        print()


def cmd_table2(args: argparse.Namespace) -> None:
    results = {}
    for split in CIFAR_SPLITS:
        config = _config(
            args, dataset="cifar", client_share=split, adaptive_max_trials=8
        )
        results[split] = run_adaptive_experiment(
            config, _seeds(args), seed_workers=args.seed_workers
        )
    print(format_table2(results))
    votes = {s: list(r.adaptive_reject_votes) for s, r in results.items()}
    print()
    print(format_vote_distribution(votes, ExperimentConfig().num_validators + 1))


def cmd_fig2(args: argparse.Namespace) -> None:
    config = _config(args, dataset=args.dataset)
    # fig2 is a single paired clean/poisoned trace, not a seed sweep: a
    # fixed seed matches fig4's convention (--seeds used to leak in as the
    # literal rng seed here).
    if args.seeds is not None:
        print("note: fig2 is a fixed-seed paired trace; --seeds is ignored",
              file=sys.stderr)
    traces = run_error_trace(config, seed=0, rounds=40, injections=(25, 30, 35))
    source = int(traces["source_class"])
    print(
        format_series(
            f"Figure 2: per-class error rate w.r.t. class {source}",
            {
                "clean": traces["clean"][:, source].tolist(),
                "poisoned": traces["poisoned"][:, source].tolist(),
            },
            x=list(range(40)),
        )
    )


def cmd_fig4(args: argparse.Namespace) -> None:
    config = _config(args, dataset=args.dataset)
    undefended = run_early_scenario(config, seed=0, defense_start=None)
    defended = run_early_scenario(config, seed=0, defense_start=106)
    print(
        format_series(
            f"Figure 4 ({args.dataset}): main/backdoor accuracy, "
            f"injections at {undefended.injection_rounds}",
            {
                "main_nodef": undefended.main_accuracy,
                "bd_nodef": undefended.backdoor_accuracy,
                "main_def": defended.main_accuracy,
                "bd_def": defended.backdoor_accuracy,
            },
            x=list(range(len(undefended.main_accuracy))),
        )
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Forward to the static-analysis battery's own CLI.

    Lazy import: the lint battery is self-contained and the experiment
    harness should not pay for it (or its transitive imports) on every
    invocation.
    """
    from repro.analysis.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize one recorded trace or diff two (repro.obs.cli).

    Lazy import for the same reason as ``lint``: inspecting a trace file
    should not load the experiment harness's numeric stack.
    """
    from repro.obs.cli import main as trace_main

    return trace_main(args.files)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BaFFLe reproduction: regenerate the paper's evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, **extra_args):
        p = sub.add_parser(name)
        p.add_argument("--dataset", choices=("cifar", "femnist"), default="cifar")
        p.add_argument("--seeds", type=int, default=None,
                       help=f"repetitions per cell (default "
                            f"{DEFAULT_SEED_COUNT}; paper uses 5; fig2/fig4 "
                            f"are fixed-seed and ignore it)")
        p.add_argument("--workers", type=int, default=0,
                       help="threads for the round engine "
                            "(0/1 = sequential; results are identical)")
        p.add_argument("--seed-workers", type=int, default=0, dest="seed_workers",
                       help="processes fanning out independent seeds "
                            "(0/1 = serial; results are identical)")
        p.add_argument("--cohort-size", type=int, default=None,
                       dest="cohort_size",
                       help="stack up to this many of a round's honest "
                            "clients into one batched training cohort "
                            "(0/1 = one model at a time; default: every "
                            "engine stacks everything eligible; results "
                            "are identical)")
        p.add_argument("--dtype", choices=DTYPE_POLICIES, default="float64",
                       help="execution precision policy (repro.nn.precision): "
                            "float64 commits bit-identically to the seed "
                            "baseline; float32 halves memory with "
                            "its own cross-engine bit-identity contract")
        p.add_argument("--sanitize", action="store_true",
                       help="run under the runtime sanitizer "
                            "(repro.analysis.sanitize): dtype assertions "
                            "on forward/backward/aggregation plus "
                            "per-round/per-layer state hashing; equivalent "
                            "to REPRO_SANITIZE=1")
        p.add_argument("--trace", metavar="DIR",
                       default=os.environ.get("REPRO_TRACE") or None,
                       help="record round-lifecycle spans + run metrics "
                            "(repro.obs) and write a JSONL event log and a "
                            "Perfetto-loadable Chrome trace per run into "
                            "DIR; pure instrumentation, results are "
                            "identical (equivalent to REPRO_TRACE=DIR)")
        p.add_argument("--faults", metavar="SPEC",
                       default=os.environ.get("REPRO_FAULTS") or None,
                       help="deterministic fault plan (repro.fl.faults): "
                            "','/';'-separated kind@round.phase[.index]"
                            "[=param] entries, e.g. 'crash@3.train;"
                            "delay@4.validate.1=0.3;drop@5.vote.7'; "
                            "recovery replays to bit-identical results "
                            "(equivalent to REPRO_FAULTS=SPEC)")
        p.add_argument("--task-deadline", type=float, default=None,
                       dest="task_deadline",
                       help="per-task straggler deadline in seconds: a "
                            "dispatched task exceeding it is reassigned "
                            "and recomputed from its keyed RNG streams "
                            "(default: no deadline)")
        p.add_argument("--quorum-policy", choices=QUORUM_POLICIES,
                       default="strict", dest="quorum_policy",
                       help="what a round does when validator votes go "
                            "missing: strict stalls it, degrade proceeds "
                            "over the shrunken quorum once --quorum-min "
                            "votes arrived")
        p.add_argument("--quorum-min", type=int, default=1,
                       dest="quorum_min",
                       help="minimum arrived votes a degraded quorum "
                            "needs before deciding (>= 1)")
        for flag, kwargs in extra_args.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add(
        "detect",
        cmd_detect,
        **{
            "--split": {"type": float, "default": 0.9},
            "--lookback": {"type": int, "default": 20},
            "--quorum": {"type": int, "default": 5},
            "--mode": {"choices": ("clients", "server", "both"), "default": "both"},
        },
    )
    add("table1", cmd_table1)
    add("fig3", cmd_fig3)
    add("table2", cmd_table2)
    add("fig2", cmd_fig2)
    add("fig4", cmd_fig4)

    lint = sub.add_parser(
        "lint",
        add_help=False,
        help="static determinism lint (repro.analysis); exits nonzero "
             "on findings",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(fn=cmd_lint)

    trace = sub.add_parser(
        "trace",
        help="summarize one recorded trace JSONL, or diff two "
             "(structural first-divergence + per-phase timing deltas)",
    )
    trace.add_argument("files", nargs="+", metavar="TRACE")
    trace.set_defaults(fn=cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Dispatch ``lint`` before argparse: its flags belong to the lint
    # battery's own parser, and argparse.REMAINDER refuses option-like
    # leading tokens (e.g. ``repro lint --list-checks``).
    if argv[:1] == ["lint"]:
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    code = args.fn(args)
    return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
