"""Tier-1 replay of the benchmark's committed decision digests.

``perfbench/digests.json`` holds one hash per workload and seed over every
round's verdict and votes.  The benchmark checks them, but only when it
runs; replaying seed 0 of each workload here makes a change that flips a
single accept/reject fail the test suite too.  The workloads, the digest
function and the committed table are read from ``perfbench/run.py`` by
path, so the test and the benchmark cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.environment import clear_environment_cache
from repro.experiments.scenarios import run_stable_scenario

PERFBENCH_RUN = Path(__file__).resolve().parents[2] / "perfbench" / "run.py"
SEED = 0


def _load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while building.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


perfbench = _load_perfbench()


@pytest.mark.parametrize("workload", sorted(perfbench.WORKLOADS))
def test_seed_replays_committed_digest(workload):
    expected = perfbench.load_digests(workload)[SEED]
    config = ExperimentConfig(**perfbench.WORKLOADS[workload].config)
    try:
        result = run_stable_scenario(config, SEED)
    finally:
        clear_environment_cache()
    digest = perfbench.decision_digest(result.records)
    assert digest == expected, (
        f"workload {workload!r}, seed {SEED}: decision digest {digest} != "
        f"committed {expected}; a round's verdict or votes changed"
    )
