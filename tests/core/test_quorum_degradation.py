"""Quorum policies under vote loss: ``strict`` stalls, ``degrade`` shrinks.

BaFFLe's feedback loop aggregates votes from remote client validators;
a dropped vote is a deployment fact, not a corner case.  These tests pin
the two explicit policies: ``strict`` refuses to decide over a partial
quorum (:class:`~repro.fl.faults.QuorumStallError`), ``degrade``
recomputes the accept/reject decision over the votes that arrived — once
at least ``quorum_min`` of them did — and stamps the decision as
degraded so the shrink can never pass as a full quorum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baffle import BaffleConfig
from repro.fl.faults import QuorumStallError
from repro.fl.parallel import SequentialExecutor, make_executor
from tests.fl.test_faults import (
    DROPPED_ROUND,
    DROPPED_VALIDATOR,
    build_policy_sim,
)

DROP = f"drop@{DROPPED_ROUND}.vote.{DROPPED_VALIDATOR}"


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="quorum_policy"):
            BaffleConfig(lookback=4, quorum=2, num_validators=3,
                         quorum_policy="hope")

    def test_quorum_min_floor(self):
        with pytest.raises(ValueError, match="quorum_min"):
            BaffleConfig(lookback=4, quorum=2, num_validators=3,
                         quorum_min=0)

    def test_quorum_min_cannot_exceed_the_validator_panel(self):
        with pytest.raises(ValueError, match="quorum_min"):
            BaffleConfig(lookback=4, quorum=2, num_validators=3,
                         mode="both", quorum_min=4)


class TestStrictPolicy:
    def test_dropped_vote_stalls_the_round(self):
        with SequentialExecutor() as executor:
            executor.bind_faults(plan=DROP)
            sim = build_policy_sim(executor, policy="strict")
            with pytest.raises(QuorumStallError, match="strict"):
                sim.run(8)

    def test_no_loss_means_no_stall(self):
        with SequentialExecutor() as executor:
            sim = build_policy_sim(executor, policy="strict")
            records = sim.run(8)
        assert all(r.quorum_size == 3 for r in records)
        assert not any(r.decision.quorum_degraded for r in records)


class TestDegradePolicy:
    def test_dropped_vote_shrinks_the_quorum(self):
        with SequentialExecutor() as executor:
            executor.bind_faults(plan=DROP)
            sim = build_policy_sim(executor, policy="degrade")
            records = sim.run(8)
            stats = executor.resilience.as_dict()
        degraded = records[DROPPED_ROUND]
        assert degraded.decision.quorum_degraded
        assert degraded.quorum_size == 2
        assert DROPPED_VALIDATOR not in degraded.decision.client_votes
        # Every other round decided over the full panel.
        assert all(
            r.quorum_size == 3 for r in records
            if r.round_idx != DROPPED_ROUND
        )
        assert stats["dropped_votes"] == 1
        assert stats["quorum_degradations"] == 1

    def test_quorum_min_boundary(self):
        """3 validators, 1 dropped: quorum_min=2 decides, quorum_min=3
        stalls even under ``degrade``."""
        with SequentialExecutor() as executor:
            executor.bind_faults(plan=DROP)
            sim = build_policy_sim(executor, policy="degrade", quorum_min=2)
            records = sim.run(8)
        assert records[DROPPED_ROUND].decision.quorum_degraded

        with SequentialExecutor() as executor:
            executor.bind_faults(plan=DROP)
            sim = build_policy_sim(executor, policy="degrade", quorum_min=3)
            with pytest.raises(QuorumStallError, match="quorum_min"):
                sim.run(8)

    def test_drop_commits_identical_models_when_quorum_accepts(self):
        """A dropped vote whose surviving quorum still accepts changes
        nothing about the committed models, and the ledger counts the
        loss exactly once."""
        with SequentialExecutor(cohort_size=1) as executor:
            sim = build_policy_sim(executor)
            base_records = sim.run(8)
            base_flat = sim.global_model.get_flat()
        assert base_records[DROPPED_ROUND].accepted

        with make_executor(0, faults=DROP) as executor:
            sim = build_policy_sim(executor, policy="degrade")
            records = sim.run(8)
            flat = sim.global_model.get_flat()
            stats = executor.resilience.as_dict()
        np.testing.assert_array_equal(base_flat, flat)
        assert [r.accepted for r in records] == [
            r.accepted for r in base_records
        ]
        assert records[DROPPED_ROUND].decision.quorum_degraded
        assert stats["dropped_votes"] == 1
        assert stats["quorum_degradations"] == 1
