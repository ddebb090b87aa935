"""Ablations of the validation function (our additions; see the README's
"Scale and deviations from the paper").

Three axes the paper fixes by fiat, probed here:

1. **Feature set**: the paper's feature vector concatenates source-focused
   and target-focused error variations (v = [v_s | v_t]); we ablate to
   each half alone.
2. **Threshold slack**: the paper's literal rule is LOF > tau; our
   scaled-down substrate defaults to LOF > 1.15 tau (see the
   MisclassificationValidator docstring).  The sweep quantifies the trade.
3. **Error normalisation**: dataset-relative (the paper's literal
   definition) vs class-conditional error rates.
"""

from __future__ import annotations

from benchmarks._common import bench_seeds, once, write_result
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_detection_experiment

BASE = ExperimentConfig(dataset="cifar", client_share=0.90)


def _sweep(seeds):
    rows = {}
    for label, overrides in (
        ("features=both (paper)", {}),
        ("features=source-only", {"validator_features": "source"}),
        ("features=target-only", {"validator_features": "target"}),
        ("slack=1.0 (paper-literal)", {"validator_slack": 1.0}),
        ("slack=1.3", {"validator_slack": 1.3}),
        ("normalize=class", {"validator_normalize": "class"}),
    ):
        rows[label] = run_detection_experiment(BASE.with_updates(**overrides), seeds)
    return rows


def test_ablation_validation(benchmark):
    seeds = bench_seeds()
    rows = once(benchmark, lambda: _sweep(seeds))
    lines = ["Ablation: validation-function variants (CIFAR-like, 90-10, C+S)"]
    for label, stats in rows.items():
        lines.append(f"{label:>28}: {stats}")
    write_result("ablation_validation", "\n".join(lines))

    # Every variant must still catch the blatant model-replacement attack;
    # the interesting differences are on the FP side.
    for label, stats in rows.items():
        assert stats.fn_mean <= 0.35, f"{label} missed too many injections"
    # The combined feature set should not be worse than either half alone.
    assert rows["features=both (paper)"].fn_mean <= min(
        rows["features=source-only"].fn_mean,
        rows["features=target-only"].fn_mean,
    ) + 0.2
