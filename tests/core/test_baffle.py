"""Unit tests for the BaFFLe feedback loop (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.baffle import (
    BaffleConfig,
    BaffleDefense,
    ForcedRejectDefense,
    ValidatorPool,
)
from repro.core.validation import ConstantVoteValidator
from repro.data.dataset import Dataset
from repro.nn.models import make_mlp


@pytest.fixture
def model(rng):
    return make_mlp(2, 2, rng, hidden=(4,))


def constant_pool(votes: dict[int, int]) -> ValidatorPool:
    return ValidatorPool({cid: ConstantVoteValidator(v) for cid, v in votes.items()})


class TestBaffleConfig:
    def test_defaults_valid(self):
        BaffleConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lookback": 2},
            {"mode": "bogus"},
            {"quorum": 0},
            {"quorum": 12, "num_validators": 10, "mode": "clients"},
            {"num_validators": 0, "mode": "clients"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BaffleConfig(**kwargs)

    def test_server_mode_ignores_quorum_bounds(self):
        BaffleConfig(mode="server", quorum=99)


class TestConstructionRequirements:
    def test_clients_mode_needs_pool(self):
        with pytest.raises(ValueError):
            BaffleDefense(BaffleConfig(mode="clients"), validator_pool=None)

    def test_server_mode_needs_server_validator(self):
        pool = constant_pool({0: 0})
        with pytest.raises(ValueError):
            BaffleDefense(BaffleConfig(mode="server"), pool, server_validator=None)


class TestQuorumRule:
    def make_defense(self, votes, quorum, mode="clients", server_vote=None):
        pool = constant_pool(votes)
        server = ConstantVoteValidator(server_vote) if server_vote is not None else None
        config = BaffleConfig(
            lookback=5,
            quorum=quorum,
            num_validators=len(votes),
            mode=mode,
        )
        return BaffleDefense(config, pool, server)

    def test_rejects_at_quorum(self, model, rng):
        defense = self.make_defense({i: 1 for i in range(5)}, quorum=5)
        decision = defense.review(model, 0, rng)
        assert not decision.accepted
        assert decision.reject_votes == 5

    def test_accepts_below_quorum(self, model, rng):
        votes = {0: 1, 1: 1, 2: 0, 3: 0, 4: 0}
        defense = self.make_defense(votes, quorum=3)
        assert defense.review(model, 0, rng).accepted

    def test_server_vote_counts_in_both_mode(self, model, rng):
        votes = {i: 1 if i < 4 else 0 for i in range(5)}  # 4 rejects
        defense = self.make_defense(votes, quorum=5, mode="both", server_vote=1)
        decision = defense.review(model, 0, rng)
        assert not decision.accepted  # 4 + server = 5 >= q
        assert decision.server_vote == 1

    def test_server_only_mode_single_vote_decides(self, model, rng):
        defense = self.make_defense({0: 0}, quorum=1, mode="server", server_vote=1)
        assert not defense.review(model, 0, rng).accepted
        defense = self.make_defense({0: 1}, quorum=1, mode="server", server_vote=0)
        assert defense.review(model, 0, rng).accepted

    def test_start_round_auto_accepts(self, model, rng):
        pool = constant_pool({i: 1 for i in range(5)})
        config = BaffleConfig(
            lookback=5, quorum=1, num_validators=5, mode="clients", start_round=10
        )
        defense = BaffleDefense(config, pool)
        assert defense.review(model, 9, rng).accepted
        assert not defense.review(model, 10, rng).accepted

    def test_decision_reports_client_votes(self, model, rng):
        votes = {0: 1, 1: 0, 2: 1}
        defense = self.make_defense(votes, quorum=3)
        decision = defense.review(model, 0, rng)
        assert decision.client_votes == votes


class TestHistoryMaintenance:
    def test_accepted_models_extend_history(self, model, rng):
        pool = constant_pool({0: 0, 1: 0})
        config = BaffleConfig(lookback=4, quorum=2, num_validators=2, mode="clients")
        defense = BaffleDefense(config, pool)
        defense.record_outcome(model, accepted=True)
        assert len(defense.history) == 1

    def test_rejected_models_do_not_extend_history(self, model, rng):
        pool = constant_pool({0: 0, 1: 0})
        config = BaffleConfig(lookback=4, quorum=2, num_validators=2, mode="clients")
        defense = BaffleDefense(config, pool)
        defense.record_outcome(model, accepted=False)
        assert len(defense.history) == 0

    def test_history_bounded_by_lookback(self, model, rng):
        pool = constant_pool({0: 0})
        config = BaffleConfig(lookback=4, quorum=1, num_validators=1, mode="clients")
        defense = BaffleDefense(config, pool)
        for _ in range(10):
            defense.record_outcome(model, accepted=True)
        assert len(defense.history) == 5  # lookback + 1

    def test_prime_seeds_history(self, model):
        pool = constant_pool({0: 0})
        config = BaffleConfig(lookback=4, quorum=1, num_validators=1, mode="clients")
        defense = BaffleDefense(config, pool)
        defense.prime(model)
        assert len(defense.history) == 1


class _RecordingValidator(ConstantVoteValidator):
    """A constant voter that logs the commits it is told about."""

    def __init__(self, vote_value: int) -> None:
        super().__init__(vote_value)
        self.committed: list[tuple[object, int]] = []

    def note_committed(self, candidate, version: int) -> None:
        self.committed.append((candidate, version))


class TestReviewCommitCycle:
    """One review path: ``review`` stages the candidate in the store and
    ``record_outcome`` commits or discards exactly that staged version."""

    def make_defense(self, model, votes=None, **config):
        votes = votes or {0: 0, 1: 0}
        validators = {cid: _RecordingValidator(v) for cid, v in votes.items()}
        defense = BaffleDefense(
            BaffleConfig(
                lookback=4, quorum=2, num_validators=len(validators),
                mode="clients", **config,
            ),
            ValidatorPool(validators),
        )
        defense.prime(model)
        return defense, validators

    def test_review_stages_without_committing(self, model, rng):
        defense, _ = self.make_defense(model)
        defense.review(model.clone(), 0, rng)
        staged = defense.history.staged_version
        assert staged is not None
        assert staged in defense.history.store
        assert defense.history.versions() == [0]

    def test_acceptance_commits_the_staged_version(self, model, rng):
        defense, _ = self.make_defense(model)
        candidate = model.clone()
        defense.review(candidate, 0, rng)
        staged = defense.history.staged_version
        defense.record_outcome(candidate, accepted=True)
        assert defense.history.versions() == [0, staged]
        assert defense.history.staged_version is None

    def test_rejection_releases_the_staged_version(self, model, rng):
        defense, _ = self.make_defense(model)
        candidate = model.clone()
        defense.review(candidate, 0, rng)
        staged = defense.history.staged_version
        defense.record_outcome(candidate, accepted=False)
        assert defense.history.versions() == [0]
        assert defense.history.staged_version is None
        assert staged not in defense.history.store

    def test_pre_start_rounds_accept_without_staging(self, model, rng):
        defense, _ = self.make_defense(model, votes={0: 1, 1: 1}, start_round=3)
        decision = defense.review(model.clone(), 0, rng)
        assert decision.accepted and decision.num_validators == 0
        assert defense.history.staged_version is None
        defense.record_outcome(model.clone(), accepted=True)
        assert len(defense.history) == 2  # appended without a review

    def test_acceptance_files_the_staged_profiles(self, model, rng):
        defense, _ = self.make_defense(model)
        candidate = model.clone()
        defense.review(candidate, 0, rng)
        staged = defense.history.staged_version
        defense.profile_table.stage(0, staged, "profile")  # a worker's result
        defense.record_outcome(candidate, accepted=True)
        assert defense.profile_table.get(0, staged) == "profile"
        assert defense.profile_table.staged_count == 0

    def test_rejection_drops_the_staged_profiles(self, model, rng):
        defense, _ = self.make_defense(model)
        candidate = model.clone()
        defense.review(candidate, 0, rng)
        staged = defense.history.staged_version
        defense.profile_table.stage(0, staged, "profile")
        defense.record_outcome(candidate, accepted=False)
        assert defense.profile_table.get(0, staged) is None
        assert defense.profile_table.staged_count == 0

    def test_acceptance_tells_every_validator_the_committed_version(
        self, model, rng
    ):
        defense, validators = self.make_defense(model)
        candidate = model.clone()
        defense.review(candidate, 0, rng)
        staged = defense.history.staged_version
        defense.record_outcome(candidate, accepted=True)
        for validator in validators.values():
            assert validator.committed == [(candidate, staged)]

    def test_rejection_tells_no_validator(self, model, rng):
        defense, validators = self.make_defense(model)
        candidate = model.clone()
        defense.review(candidate, 0, rng)
        defense.record_outcome(candidate, accepted=False)
        assert all(v.committed == [] for v in validators.values())


class TestForcedRejectDefense:
    """The scripted-rejection defense the engine tests and the parallel
    benchmark's audit rely on: scripted rounds are rejected whatever the
    votes, every other round follows the quorum rule."""

    @staticmethod
    def make_defense(model, votes, reject_rounds):
        defense = ForcedRejectDefense(
            BaffleConfig(
                lookback=4, quorum=2, num_validators=len(votes), mode="clients"
            ),
            constant_pool(votes),
            reject_rounds=reject_rounds,
        )
        defense.prime(model)
        return defense

    def test_scripted_round_rejected_despite_accepting_votes(self, model, rng):
        votes = {0: 0, 1: 0, 2: 0}
        defense = self.make_defense(model, votes, reject_rounds=(1,))
        decision = defense.review(model.clone(), 1, rng)
        assert not decision.accepted
        assert decision.reject_votes == 0
        assert decision.client_votes == votes  # the votes still flowed

    def test_other_rounds_follow_the_quorum_rule(self, model, rng):
        accepting = self.make_defense(model, {0: 0, 1: 0, 2: 1}, reject_rounds=(1,))
        assert accepting.review(model.clone(), 0, rng).accepted
        rejecting = self.make_defense(model, {0: 1, 1: 1, 2: 0}, reject_rounds=(1,))
        assert not rejecting.review(model.clone(), 2, rng).accepted

    def test_forced_rejection_leaves_history_and_store_as_before(self, model, rng):
        defense = self.make_defense(model, {0: 0, 1: 0}, reject_rounds=(0,))
        candidate = model.clone()
        decision = defense.review(candidate, 0, rng)
        defense.record_outcome(candidate, decision.accepted)
        assert defense.history.versions() == [0]
        assert defense.history.store.versions() == [0]


class TestValidatorPool:
    def test_sample_ids_distinct(self, rng):
        pool = constant_pool({i: 0 for i in range(20)})
        ids = pool.sample_ids(10, rng)
        assert len(set(ids)) == 10

    def test_sample_too_many_rejected(self, rng):
        pool = constant_pool({0: 0})
        with pytest.raises(ValueError):
            pool.sample_ids(2, rng)

    def test_from_datasets_builds_misclassification_validators(self, rng):
        from repro.core.validation import MisclassificationValidator

        data = Dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), 2)
        pool = ValidatorPool.from_datasets({0: data})
        assert isinstance(pool.get(0), MisclassificationValidator)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ValidatorPool({})

    def test_contains(self):
        pool = constant_pool({3: 0})
        assert 3 in pool
        assert 4 not in pool
