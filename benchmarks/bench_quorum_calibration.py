"""Paper Sec. IV-B / VI-C: calibrating rho, q, and the tolerable n_M.

From the vote traces on known-poisoned rounds we estimate rho (worst-case
fraction of honest validators judging correctly), then evaluate the
paper's bounds: the valid quorum range and the tolerable number of
malicious validators n_M < (1 - rho) n / (2 - rho).
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import bench_seeds, once, write_result
from repro.core.quorum import (
    estimate_rho_from_votes,
    max_tolerable_malicious,
    quorum_bounds,
    recommended_quorum,
)
from repro.experiments import ExperimentConfig
from repro.experiments.scenarios import run_stable_scenario


def _collect(seeds):
    config = ExperimentConfig(dataset="cifar", client_share=0.90)
    votes = []
    for seed in seeds:
        result = run_stable_scenario(config, seed)
        votes.extend(result.reject_votes_on_injections())
    return votes


def test_quorum_calibration(benchmark):
    seeds = bench_seeds()
    votes = once(benchmark, lambda: _collect(seeds))
    n = ExperimentConfig().num_validators
    # client votes only (exclude the server's) for the rho estimate
    client_votes = [min(v, n) for v in votes]
    rho = estimate_rho_from_votes(client_votes, n)

    lines = [
        "Sec. IV-B / VI-C: quorum calibration from injection vote traces",
        f"observed reject votes on injections: {sorted(votes)}",
        f"estimated rho (min reject share): {rho:.2f}",
        f"tolerable malicious validators: n_M < "
        f"{max_tolerable_malicious(n, rho):.2f} of n={n}",
    ]
    for n_m in (0, 1, 2, 3):
        lower, upper = quorum_bounds(n, n_m, rho)
        try:
            status = f"valid, q={recommended_quorum(n, n_m, rho)}"
        except ValueError:
            # A non-empty range can still hold no integer quorum.
            status = "empty" if lower >= upper else "no integer quorum"
        lines.append(
            f"  n_M={n_m}: quorum range ({lower:.2f}, {upper:.2f}] ({status})"
        )
    write_result("quorum_calibration", "\n".join(lines))

    # Paper: most injections rejected by at least half the validators.
    assert np.median(client_votes) >= n / 2
