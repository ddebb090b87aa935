"""The BaFFLe defense: feedback loop + quorum decision (Algorithm 1).

Every round the server:

1. selects ``num_validators`` validating clients uniformly at random;
2. ships them the candidate global model and the history of the latest
   ``lookback + 1`` accepted models;
3. collects their binary verdicts (1 = "poisoned");
4. in the ``server`` and ``both`` configurations, additionally runs the
   validation function on its own held-out data;
5. rejects the candidate iff at least ``quorum`` reject verdicts arrived
   (the server's own vote counts towards the quorum in the ``both``
   configuration, per paper Sec. VI-A).

On rejection the simulation keeps the previous global model (Algorithm 1:
``G_{r+1} <- G_{r-1}``) and the candidate is **not** added to the history.

The three paper configurations map to ``mode``:

- ``"clients"``  -> BaFFLe-C  (feedback loop only),
- ``"server"``   -> BaFFLe-S  (server-only validation; the quorum is
  irrelevant — the server's single vote decides),
- ``"both"``     -> BaFFLe    (feedback loop + server vote).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.history import ModelHistory
from repro.core.validation import (
    MisclassificationValidator,
    ValidationContext,
    Validator,
)
from repro.data.dataset import Dataset
from repro.fl.faults import QUORUM_POLICIES, QuorumStallError
from repro.fl.parallel import RoundExecutor
from repro.fl.rng import RngStreams
from repro.fl.simulation import DefenseDecision
from repro.nn.network import Network
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

_MODES = ("clients", "server", "both")


@dataclass(frozen=True)
class BaffleConfig:
    """BaFFLe hyper-parameters (paper Sec. IV-B, VI-A).

    Attributes
    ----------
    lookback:
        The look-back window size ``l``; the history holds ``l + 1`` models.
        The paper sweeps 10/20/30 and settles on 20.
    quorum:
        Reject threshold ``q``: minimum number of "poisoned" verdicts that
        reject the round.  The paper sweeps 3..9 and recommends 5..7.
    num_validators:
        Validating clients ``n`` consulted per round (paper: 10).
    mode:
        ``"clients"`` (BaFFLe-C), ``"server"`` (BaFFLe-S) or ``"both"``.
    start_round:
        Rounds before this index are auto-accepted (but still extend the
        trusted history) — the paper's "we enable the defense after the
        first 20 rounds in order to build a look-back window of decent
        size" (Sec. VI-B).
    dropout_rate:
        Probability that a selected validating client never responds.
        Footnote 1 of the paper: the server "accepts the model by default
        unless q many clients suggest rejection", so silent validators
        simply contribute no vote.
    quorum_policy:
        What to do when a *requested* vote goes missing (a dropped-vote
        fault, a validator that died after sampling): ``"strict"`` stalls
        the round (raises :class:`~repro.fl.faults.QuorumStallError`),
        ``"degrade"`` decides over the reduced quorum once at least
        ``quorum_min`` votes arrived.  Server-side dropout drawn by
        ``dropout_rate`` is *not* a missing vote — those validators were
        never asked (paper footnote 1).
    quorum_min:
        Minimum arrived client votes the ``degrade`` policy accepts as a
        decidable quorum.
    """

    lookback: int = 20
    quorum: int = 5
    num_validators: int = 10
    mode: str = "both"
    start_round: int = 0
    dropout_rate: float = 0.0
    quorum_policy: str = "strict"
    quorum_min: int = 1

    def __post_init__(self) -> None:
        if self.lookback < 4:
            raise ValueError(f"lookback must be >= 4, got {self.lookback}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.quorum_policy not in QUORUM_POLICIES:
            raise ValueError(
                f"quorum_policy must be one of {QUORUM_POLICIES}, "
                f"got {self.quorum_policy!r}"
            )
        if self.quorum_min < 1:
            raise ValueError(
                f"quorum_min must be >= 1, got {self.quorum_min}"
            )
        if self.mode != "server" and self.quorum_min > self.num_validators:
            raise ValueError(
                f"quorum_min must be <= num_validators "
                f"({self.num_validators}), got {self.quorum_min}"
            )
        if self.mode != "server":
            if self.num_validators < 1:
                raise ValueError("need at least one validating client")
            max_votes = self.num_validators + (1 if self.mode == "both" else 0)
            if not 1 <= self.quorum <= max_votes:
                raise ValueError(
                    f"quorum must be in [1, {max_votes}], got {self.quorum}"
                )


class ValidatorPool:
    """The population of validation-capable clients, indexed by client id."""

    def __init__(self, validators: dict[int, Validator]) -> None:
        if not validators:
            raise ValueError("validator pool cannot be empty")
        self._validators = dict(validators)
        self._ids = sorted(self._validators)

    @classmethod
    def from_datasets(
        cls, datasets: dict[int, Dataset], **validator_kwargs
    ) -> "ValidatorPool":
        """Build a pool of honest misclassification validators from data shards.

        ``validator_kwargs`` are forwarded to every
        :class:`~repro.core.validation.MisclassificationValidator`
        (``normalize``, ``threshold_slack``, ``features``, ...).
        """
        return cls(
            {
                cid: MisclassificationValidator(ds, **validator_kwargs)
                for cid, ds in datasets.items()
            }
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._validators

    def sample_ids(self, count: int, rng: np.random.Generator) -> list[int]:
        """Choose ``count`` distinct validating clients uniformly at random."""
        if count > len(self._ids):
            raise ValueError(f"cannot sample {count} validators from {len(self._ids)}")
        chosen = rng.choice(len(self._ids), size=count, replace=False)
        return [self._ids[i] for i in chosen]

    def get(self, client_id: int) -> Validator:
        return self._validators[client_id]

    def as_dict(self) -> dict[int, Validator]:
        """The ``{client_id: validator}`` population (a copy)."""
        return dict(self._validators)


class BaffleDefense:
    """Implements :class:`repro.fl.simulation.Defense` with Algorithm 1.

    Parameters
    ----------
    config:
        Quorum / look-back / mode settings.
    validator_pool:
        The client-side validators (ignored in ``server`` mode but still
        accepted, so experiments can switch modes over one setup).
    server_validator:
        The server's own validator (required for ``server`` and ``both``).
    """

    def __init__(
        self,
        config: BaffleConfig,
        validator_pool: ValidatorPool | None = None,
        server_validator: Validator | None = None,
    ) -> None:
        if config.mode in ("clients", "both") and validator_pool is None:
            raise ValueError(f"mode {config.mode!r} needs a validator pool")
        if config.mode in ("server", "both") and server_validator is None:
            raise ValueError(f"mode {config.mode!r} needs a server validator")
        self.config = config
        self.validator_pool = validator_pool
        self.server_validator = server_validator
        self.history = ModelHistory(max_models=config.lookback + 1)
        self._executor: RoundExecutor | None = None
        self._streams: RngStreams | None = None
        self._tracer: Tracer | NullTracer = NULL_TRACER

    def bind_tracer(self, tracer: "Tracer | NullTracer") -> None:
        """Attach the run's tracer (pure instrumentation, rebindable).

        Called by :class:`~repro.fl.simulation.FederatedSimulation` when it
        runs traced, so review resolution (vote collection, the server's
        own vote) shows up as spans on the shared timeline.
        """
        self._tracer = tracer

    def bind_runtime(self, executor: RoundExecutor, streams: RngStreams) -> None:
        """Attach the round executor and keyed rng streams.

        :class:`~repro.fl.simulation.FederatedSimulation` calls this at
        construction so validator votes draw from per-``(round, validator)``
        streams and fan out through the same executor as client training.
        Unbound (standalone) defenses fall back to consuming the ``rng``
        passed to :meth:`review` sequentially, preserving the historical
        behavior.
        """
        self._executor = executor
        self._streams = streams

    # ------------------------------------------------------------------
    # Defense protocol
    # ------------------------------------------------------------------
    def review(
        self, candidate: Network, round_idx: int, rng: np.random.Generator
    ) -> DefenseDecision:
        """Algorithm 1: collect verdicts and apply the quorum rule."""
        if round_idx < self.config.start_round:
            return DefenseDecision(accepted=True)
        # Stage the candidate in the history's store: an accepting commit
        # adopts the stored vector instead of copying the weights again.
        self.history.stage_candidate(candidate)
        context = ValidationContext(
            candidate=candidate, history=self.history.entries()
        )

        client_votes: dict[int, int] = {}
        active: list[int] = []
        if self.config.mode in ("clients", "both"):
            assert self.validator_pool is not None
            active = self._sample_active(rng)
            with self._tracer.span(
                "validate.collect", round_idx=round_idx,
                validators=len(active),
            ):
                if self._streams is not None:
                    assert self._executor is not None  # set with _streams in bind_runtime
                    client_votes = self._executor.run_validators(
                        self.validator_pool, active, context, round_idx,
                        self._streams,
                    )
                else:  # standalone defense: classic sequential stream
                    for cid in active:
                        client_votes[cid] = self.validator_pool.get(cid).vote(
                            context, rng
                        )

        server_vote: int | None = None
        if self.config.mode in ("server", "both"):
            assert self.server_validator is not None
            server_rng = (
                self._streams.server_rng(round_idx)
                if self._streams is not None
                else rng
            )
            with self._tracer.span(
                "validate.server_vote", round_idx=round_idx
            ):
                server_vote = self.server_validator.vote(context, server_rng)
        return self._decide(
            client_votes, server_vote, expected=len(active),
            round_idx=round_idx,
        )

    def _sample_active(self, rng: np.random.Generator) -> list[int]:
        """Draw this round's validating clients (sampling + dropout).

        Sampling and dropout are server-side decisions drawn from the
        sequential rng; the votes themselves are order-independent.
        """
        assert self.validator_pool is not None
        active: list[int] = []
        for cid in self.validator_pool.sample_ids(self.config.num_validators, rng):
            if (
                self.config.dropout_rate
                and rng.random() < self.config.dropout_rate
            ):
                continue  # silent validator: no vote (paper footnote 1)
            active.append(cid)
        return active

    def _decide(
        self,
        client_votes: dict[int, int],
        server_vote: int | None,
        expected: int | None = None,
        round_idx: int | None = None,
    ) -> DefenseDecision:
        """Apply the quorum rule to the collected votes.

        ``expected`` is how many client votes were *requested* this round
        (the post-dropout active sample).  Fewer arriving — a dropped-vote
        fault, a validator that died after sampling — triggers the
        configured quorum policy: ``strict`` stalls the round with
        :class:`~repro.fl.faults.QuorumStallError`; ``degrade`` shrinks
        the quorum and decides over the votes that did arrive, provided
        at least ``quorum_min`` of them did.
        """
        degraded = False
        if expected is not None and len(client_votes) < expected:
            arrived = len(client_votes)
            if self.config.quorum_policy == "strict":
                raise QuorumStallError(
                    f"round {round_idx}: {expected - arrived} of {expected} "
                    "validator votes missing and quorum_policy='strict'; "
                    "use quorum_policy='degrade' to decide over the "
                    "reduced quorum"
                )
            if arrived < self.config.quorum_min:
                raise QuorumStallError(
                    f"round {round_idx}: only {arrived} of {expected} votes "
                    f"arrived, below quorum_min={self.config.quorum_min}"
                )
            degraded = True
            self._note_degradation(round_idx, expected, arrived)
        reject_votes = sum(client_votes.values()) + (server_vote or 0)
        if self.config.mode == "server":
            accepted = server_vote == 0
        else:
            accepted = reject_votes < self.config.quorum
        return DefenseDecision(
            accepted=accepted,
            reject_votes=reject_votes,
            num_validators=len(client_votes) + (0 if server_vote is None else 1),
            client_votes=client_votes,
            server_vote=server_vote,
            quorum_degraded=degraded,
        )

    def _note_degradation(
        self, round_idx: int | None, expected: int, arrived: int
    ) -> None:
        """Record one reduced-quorum decision (ledger + traced mirror)."""
        if self._executor is not None:
            self._executor.resilience.inc("quorum_degradations")
        if self._tracer.enabled:
            self._tracer.metrics.counter(
                "resilience.quorum_degradations"
            ).inc()
            self._tracer.event(
                "resilience.quorum_degradations", cat="resilience",
                round_idx=round_idx, expected=expected, arrived=arrived,
            )

    def record_outcome(self, candidate: Network, accepted: bool) -> None:
        """Accepted models extend the trusted history; rejected ones do not.

        On acceptance every validator that just profiled this candidate is
        told its committed history version, so the profile computed during
        :meth:`review` is reused instead of recomputed next round.
        """
        if not accepted:
            self.history.discard_staged()
            return
        if self.history.staged_version is not None:
            version = self.history.commit_staged()
        else:  # pre-``start_round`` rounds are accepted without review
            version = self.history.append(candidate)
        self._note_committed(candidate, version)

    def _validators(self) -> list[Validator]:
        validators: list[Validator] = []
        if self.validator_pool is not None:
            validators.extend(self.validator_pool.as_dict().values())
        if self.server_validator is not None:
            validators.append(self.server_validator)
        return validators

    def _note_committed(self, candidate: Network, version: int) -> None:
        for validator in self._validators():
            note = getattr(validator, "note_committed", None)
            if callable(note):
                note(candidate, version)

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------
    def prime(self, model: Network) -> None:
        """Seed the history with a model accepted before the defense started.

        The paper enables the defense only once the global model has
        stabilised ("we enable the defense after the first 20 rounds in
        order to build a look-back window of decent size"); priming lets
        experiments replay those pre-defense models into the history.
        """
        self.history.append(model)


class ForcedRejectDefense(BaffleDefense):
    """A :class:`BaffleDefense` whose quorum outcome is scripted per round.

    Fault injection for rejection testing and the parallel benchmark's
    refcount audit: rounds in ``reject_rounds`` are rejected regardless of
    the collected votes (the votes still flow — sampling, staging and
    profile bookkeeping are exercised unchanged), so a rejection can be
    forced at a known round on every engine and the resulting trajectories
    compared.
    """

    def __init__(self, *args, reject_rounds: Sequence[int] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reject_rounds = frozenset(reject_rounds)

    def review(
        self, candidate: Network, round_idx: int, rng: np.random.Generator
    ) -> DefenseDecision:
        decision = super().review(candidate, round_idx, rng)
        if round_idx in self.reject_rounds:
            return replace(decision, accepted=False)
        return decision
