"""The federated round loop with attack and defense hooks.

:class:`FederatedSimulation` drives the process of the paper's Sec. II-B
and Fig. 1: select contributors, collect updates (optionally through the
secure-aggregation simulation), derive the candidate global model, let the
defense accept or reject it, and commit or roll back.

Rejection semantics follow Algorithm 1: a rejected round leaves the global
model unchanged (``G_r <- G_{r-1}``) and the rejected candidate is *not*
added to any history of accepted models.

Execution modes
---------------
Two round loops share the same per-round machinery:

- **sync** (default): each round blocks on its validator quorum before
  committing — validation latency sits on the training critical path.
- **pipelined** (an executor with ``pipeline_depth`` set): the
  server commits the aggregated candidate *optimistically*, immediately
  starts round ``r + 1`` client training, and collects round ``r``'s votes
  concurrently — up to ``pipeline_depth`` rounds run ahead of their open
  quorums.  If a quorum later rejects, the provisional history suffix is
  rolled back and the invalidated rounds are *replayed* from the restored
  state.

Replay makes the pipeline exact, not approximate: per-entity randomness is
keyed by ``(round, entity)`` (:mod:`repro.fl.rng`), and each speculative
round snapshots the sequential server RNG state after contributor
selection, so a replayed round re-derives the aggregation and
validator-sampling draws from a detached generator instead of consuming
fresh randomness.  Committed models and round records are therefore
**bit-identical** to a synchronous run — for every ``pipeline_depth``, not
just the degenerate ``pipeline_depth = 0``.  (Sole caveat: a speculative
candidate whose *finiteness* differs between the speculative and the
replayed base model would shift the sequential stream; non-finite updates
come from diverged or faulty clients, which produce them independently of
the base model, so this does not arise in practice.)
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.fl.aggregation import Aggregator, FedAvgAggregator, apply_global_update
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.config import FLConfig
from repro.fl.model_store import InProcessModelStore, ModelStore
from repro.fl.parallel import RoundExecutor, SequentialExecutor, _is_parallel_safe
from repro.fl.registry import ClientRegistry
from repro.fl.rng import RngStreams
from repro.fl.secure_agg import SecureAggregator
from repro.fl.selection import Selector, UniformSelector
from repro.nn.network import Network
from repro.nn.precision import active_dtype
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


def _peak_rss_kb() -> int:
    """Parent-process peak RSS in KiB (0 where unobservable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        rss //= 1024
    return int(rss)


@dataclass(frozen=True)
class DefenseDecision:
    """Outcome of a defense's review of one candidate global model.

    ``reject_votes``/``votes`` carry the feedback-loop detail needed by the
    vote-distribution analysis (paper Fig. 5); a trivial always-accept
    decision uses the defaults.
    """

    accepted: bool
    reject_votes: int = 0
    num_validators: int = 0
    client_votes: Mapping[int, int] = field(default_factory=dict)
    server_vote: int | None = None
    #: Whether this decision was made over a reduced quorum (requested
    #: votes went missing and the defense's ``quorum_policy="degrade"``
    #: proceeded once ``quorum_min`` arrived).
    quorum_degraded: bool = False


@runtime_checkable
class Defense(Protocol):
    """Interface the simulation uses to consult a defense.

    ``review`` judges a candidate global model; ``record_outcome`` tells the
    defense whether the server committed it (so history-based defenses can
    update their trusted-model history).
    """

    def review(
        self, candidate: Network, round_idx: int, rng: np.random.Generator
    ) -> DefenseDecision: ...

    def record_outcome(self, candidate: Network, accepted: bool) -> None: ...


@dataclass
class RoundRecord:
    """Everything the experiments need to know about one round."""

    round_idx: int
    contributor_ids: list[int]
    malicious_present: bool
    accepted: bool
    decision: DefenseDecision
    metrics: dict[str, float] = field(default_factory=dict)
    #: Model-weight bytes the executor moved across process boundaries this
    #: round: 0 for in-process execution, pickled blob bytes for the
    #: pipe-transport pool, bytes newly copied into the shared-memory arena
    #: for a store-backed pool (O(1 new model) per round).  Store-path
    #: bytes are codec-*compressed* payload bytes.
    transport_bytes: int = 0
    #: What ``transport_bytes`` would have been uncompressed (equal under
    #: the identity codec; the basis of ``compression_ratio``).
    raw_transport_bytes: int = 0
    #: Name of the weight codec the round's model store ran
    #: (:mod:`repro.fl.compression`).
    codec: str = "identity"
    #: The highest round index already aggregated when this round's quorum
    #: resolved.  Synchronous rounds resolve within themselves
    #: (``accepted_at_round == round_idx``); pipelined rounds resolve up to
    #: ``pipeline_depth`` rounds later.  The name follows the accepting
    #: case; rejected rounds record their rejection point the same way.
    accepted_at_round: int = -1
    #: ``accepted_at_round - round_idx``: how many rounds of training ran
    #: between this round's aggregation and its quorum resolution (0 in
    #: synchronous mode — the paper's Sec. IV feedback is one round late,
    #: the pipeline makes that latency explicit and off the critical path).
    validation_lag: int = 0
    #: How many times this round was re-executed because an earlier
    #: round's late rejection rolled back the speculative suffix it was
    #: part of (always 0 in synchronous mode).
    rollback_count: int = 0
    #: Parent-process peak RSS in KiB when this round's record was built
    #: (monotone within a run — the OS high-water mark — so the *last*
    #: round's value is the run's peak; 0 where unobservable).
    peak_rss_kb: int = 0
    #: Clients resident in the parent when this round's training finished:
    #: the whole population on the eager path, cohort-sized (overrides
    #: included) under a virtual registry — the observable form of the
    #: bounded-memory claim.  Worker processes materialize and discard
    #: their own slices and are not counted here.
    materialized_clients: int = 0
    #: Wall-clock seconds per round phase (``select``/``train``/
    #: ``aggregate``/``validate``/...), populated only when the simulation
    #: runs with a tracer.  Excluded from equality: timings are
    #: observational and must never break the bit-identity comparisons
    #: the equivalence tests make on records.
    phase_times: dict[str, float] = field(default_factory=dict, compare=False)
    #: Recovery incidents (task retries, pool rebuilds, straggler
    #: reassignments, ...) the executor's resilience ledger accumulated
    #: while this round ran — the per-round delta of
    #: ``executor.resilience.total()``.  Excluded from equality: recovery
    #: effort is observational, the recovered results are bit-identical.
    retries: int = field(default=0, compare=False)
    #: Client votes actually collected for this round's decision (equal to
    #: the requested sample unless votes went missing and the ``degrade``
    #: quorum policy shrank the quorum).  Excluded from equality so
    #: fault-injected runs still compare clean against fault-free ones on
    #: the committed trajectory.
    quorum_size: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.accepted_at_round < 0:
            self.accepted_at_round = self.round_idx

    @property
    def compressed_bytes(self) -> int:
        """The round's transport volume after codec encoding (alias of
        ``transport_bytes``, named for the compression telemetry)."""
        return self.transport_bytes

    @property
    def compression_ratio(self) -> float:
        """``raw / compressed`` transport bytes this round (1.0 when the
        round moved nothing)."""
        if not self.transport_bytes:
            return 1.0
        return self.raw_transport_bytes / self.transport_bytes


@dataclass
class _SpeculativeRound:
    """One issued-but-unresolved round of the pipelined loop.

    Holds everything needed to (a) finalize the round when its quorum
    resolves and (b) *replay* it deterministically if an earlier round's
    rejection rolls it back: the recorded contributor selection and the
    sequential-RNG state snapshot taken right after that selection, from
    which a detached generator re-derives the aggregation and
    validator-sampling draws without touching the live stream.
    """

    round_idx: int
    contributor_ids: list[int]
    base_model: Network
    candidate: Network
    post_select_state: dict
    #: The defense's PendingReview (quorum open), or None when the
    #: decision was known at speculation time.
    pending: object | None
    decision: DefenseDecision | None
    transport_bytes: int
    raw_transport_bytes: int = 0
    rollback_count: int = 0
    materialized_clients: int = 0
    #: Partial phase timings gathered at speculation time (tracing only);
    #: the resolve step adds the validate phase and moves the dict onto
    #: the round's record.
    phase_times: dict[str, float] = field(default_factory=dict)


def _restored_generator(
    template_rng: np.random.Generator, state: dict
) -> np.random.Generator:
    """A detached generator replaying ``template_rng`` from ``state``."""
    generator = np.random.Generator(type(template_rng.bit_generator)())
    generator.bit_generator.state = state
    return generator


#: Methods a defense must provide for genuinely asynchronous (overlapped)
#: validation; defenses lacking them still run under a pipelined executor,
#: resolving at the round boundary like the synchronous loop.
_ASYNC_DEFENSE_METHODS = (
    "review_async",
    "commit_optimistic",
    "resolve_review",
    "finalize_review",
    "rollback_review",
    "cancel_review",
)


class FederatedSimulation:
    """Server-side orchestration of federated training.

    Parameters
    ----------
    global_model:
        The initial global model ``G_0`` (mutated in place across rounds).
    clients:
        The full client population, indexed by ``client_id``.
    config:
        FL hyper-parameters.
    rng:
        Source of the server-side randomness (selection, validator
        sampling).  Client training and validator votes draw from
        independent per-``(round, entity)`` streams spawned off this
        generator's seed sequence (see :mod:`repro.fl.rng`), so their
        results do not depend on execution order.
    selector:
        Client-selection policy; defaults to uniform sampling.
    aggregator:
        Update-combination rule; defaults to FedAvg.
    use_secure_agg:
        Route updates through the secure-aggregation simulation.  Only
        sum-based aggregators are compatible (``FedAvgAggregator`` is).
    defense:
        Optional :class:`Defense`; when absent every round is accepted.
    metric_hooks:
        ``{name: fn(model) -> float}`` evaluated on the committed global
        model after every round (used for paper Fig. 4 time series).
    executor:
        The :class:`~repro.fl.parallel.RoundExecutor` that fans out client
        training and validator votes; defaults to in-process sequential
        execution.  The caller owns the executor's lifecycle.
    model_store:
        The :class:`~repro.fl.model_store.ModelStore` holding the round
        loop's weight vectors (global model, candidate, defense history).
        Defaults to an in-process store; pass a
        :class:`~repro.fl.model_store.SharedMemoryModelStore` so a process
        pool ships version keys instead of weight blobs.  The caller owns
        the store's lifecycle (close it after the executor).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` recording phase spans
        and run metrics (see :mod:`repro.obs`).  Defaults to the zero-cost
        :data:`~repro.obs.trace.NULL_TRACER`; tracing is pure
        instrumentation — it draws no randomness and a traced run commits
        bit-identical models to an untraced one.
    """

    def __init__(
        self,
        global_model: Network,
        clients: Sequence[Client],
        config: FLConfig,
        rng: np.random.Generator,
        selector: Selector | None = None,
        aggregator: Aggregator | None = None,
        use_secure_agg: bool = False,
        defense: Defense | None = None,
        metric_hooks: Mapping[str, Callable[[Network], float]] | None = None,
        executor: RoundExecutor | None = None,
        model_store: ModelStore | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        if len(clients) != config.num_clients:
            raise ValueError(
                f"config says {config.num_clients} clients, got {len(clients)}"
            )
        self.registry = clients if isinstance(clients, ClientRegistry) else None
        if self.registry is None:
            ids = [c.client_id for c in clients]
            if ids != list(range(len(clients))):
                raise ValueError("clients must be ordered with client_id == index")
        # A registry guarantees id == index by construction and is kept
        # as-is: materializing a population list would defeat it.
        self.global_model = global_model
        self.clients = self.registry if self.registry is not None else list(clients)
        self.config = config
        self.rng = rng
        self.selector = selector or UniformSelector(
            config.num_clients, config.clients_per_round
        )
        self.aggregator = aggregator or FedAvgAggregator()
        self.use_secure_agg = use_secure_agg
        if use_secure_agg and self.aggregator.requires_individual_updates:
            raise ValueError(
                f"{type(self.aggregator).__name__} inspects individual updates "
                "and cannot run under secure aggregation"
            )
        self.defense = defense
        self.metric_hooks = dict(metric_hooks or {})
        self.streams = RngStreams.from_rng(rng)
        self.executor = executor or SequentialExecutor()
        # A factory-built executor (make_executor / make_engine) arrives
        # with its store already bound; adopt it rather than double-binding
        # — and refuse a conflicting explicit store outright.
        executor_store = self.executor.store
        if (
            model_store is not None
            and executor_store is not None
            and model_store is not executor_store
        ):
            raise ValueError(
                "executor is already bound to a different model store; "
                "build both through make_engine() or pass the same store"
            )
        self.model_store = model_store or executor_store or InProcessModelStore()
        #: The store's transport codec.  Non-transparent codecs project
        #: every vector they are asked to carry onto their exactly
        #: representable domain, so the simulation *canonicalizes* the
        #: initial model and each aggregated candidate through the codec
        #: before review/commit: everything transported then round-trips
        #: bit-exactly for lossless codecs, preserving the cross-engine
        #: equivalence guarantee (see repro.fl.compression).
        self._codec = getattr(self.model_store, "codec", None)
        if self._codec is not None and not self._codec.transparent:
            self.global_model.set_flat(
                self._codec.canonicalize(self.global_model.get_flat())
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        bind_kwargs = {
            "clients": self.clients,
            "template": global_model.clone(),
        }
        if executor_store is None:
            bind_kwargs["store"] = self.model_store
        if self.tracer.enabled:
            bind_kwargs["tracer"] = self.tracer
        self.executor.bind(**bind_kwargs)
        bind_runtime = getattr(defense, "bind_runtime", None)
        if callable(bind_runtime):
            bind_runtime(
                executor=self.executor, streams=self.streams, store=self.model_store
            )
        bind_tracer = getattr(defense, "bind_tracer", None)
        if self.tracer.enabled and callable(bind_tracer):
            bind_tracer(self.tracer)
        #: Resilience-ledger total already attributed to emitted records
        #: (per-round ``retries`` deltas).
        self._resilience_seen = 0
        if self.tracer.enabled:
            stats = getattr(self.executor, "resilience", None)
            if stats is not None:
                # Snapshots then carry a live "resilience" section even if
                # no individual increment was mirrored as a counter yet.
                self.tracer.metrics.bind_resilience(stats.as_dict)
        #: Pipelined mode is selected by the executor: its
        #: ``pipeline_depth`` (None = synchronous) is the speculation depth.
        self._pipeline_depth: int | None = getattr(
            self.executor, "pipeline_depth", None
        )
        self._async_defense = defense is not None and all(
            callable(getattr(defense, method, None))
            for method in _ASYNC_DEFENSE_METHODS
        )
        self._issued_high = -1
        self.round_idx = 0
        self.history: list[RoundRecord] = []
        #: Runtime sanitizer (repro.analysis.sanitize), bound when
        #: REPRO_SANITIZE is truthy at construction.  Imported lazily —
        #: repro.analysis imports back into repro.fl, so a module-level
        #: import would be cyclic.  When active, every aggregated
        #: candidate is dtype-checked and hashed per layer into
        #: ``sanitize_trace`` for cross-engine divergence diffing.
        self._sanitize = None
        self.sanitize_trace = None
        if os.environ.get("REPRO_SANITIZE"):
            from repro.analysis import sanitize

            if sanitize.enabled():
                self._sanitize = sanitize
                self.sanitize_trace = sanitize.HashTrace()

    # ------------------------------------------------------------------
    # Round loop (synchronous)
    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one full round and return its record."""
        if self._pipeline_depth is not None:
            # Single-round stepping through the pipelined engine: issue and
            # drain immediately (equivalent to a depth-0 burst).
            return self._run_pipelined(1)[0]
        round_idx = self.round_idx
        tracer = self.tracer
        transport_before = self.executor.transport_bytes
        raw_before = self.executor.raw_transport_bytes
        with tracer.span("select", round_idx=round_idx) as span_select:
            contributor_ids = self.selector.select(round_idx, self.rng)
        with tracer.span("train", round_idx=round_idx) as span_train:
            updates = self.executor.run_clients(
                self.clients,
                contributor_ids,
                self.global_model,
                self._local_config(),
                round_idx,
                self.streams,
            )
        with tracer.span("aggregate", round_idx=round_idx) as span_aggregate:
            candidate, candidate_flat = self._aggregate(
                contributor_ids, updates, round_idx, self.rng
            )
        resident_clients = self._end_client_round()
        if tracer.enabled:
            tracer.event(
                "materialize", round_idx=round_idx, clients=resident_clients
            )

        span_validate = None
        if not np.isfinite(candidate_flat).all():
            # A client produced a non-finite update (diverged training or a
            # crash-faulty participant).  Under secure aggregation the
            # server cannot identify or drop the culprit — the whole round
            # is poisoned by NaN/inf — so the only safe reaction is to
            # discard the round, exactly like a defense rejection.
            decision = DefenseDecision(accepted=False)
        elif self.defense is None:
            decision = DefenseDecision(accepted=True)
        else:
            with tracer.span("validate", round_idx=round_idx) as span_validate:
                decision = self.defense.review(candidate, round_idx, self.rng)
        outcome = "commit" if decision.accepted else "reject"
        with tracer.span(outcome, cat="round", round_idx=round_idx):
            if decision.accepted:
                self.global_model = candidate
            if self.defense is not None:
                self.defense.record_outcome(candidate, decision.accepted)

        record = RoundRecord(
            round_idx=round_idx,
            contributor_ids=contributor_ids,
            malicious_present=any(
                self._client_is_malicious(cid) for cid in contributor_ids
            ),
            accepted=decision.accepted,
            decision=decision,
            metrics={
                name: hook(self.global_model) for name, hook in self.metric_hooks.items()
            },
            transport_bytes=self.executor.transport_bytes - transport_before,
            raw_transport_bytes=self.executor.raw_transport_bytes - raw_before,
            codec=self._codec_name(),
            peak_rss_kb=_peak_rss_kb(),
            materialized_clients=resident_clients,
            retries=self._resilience_delta(),
            quorum_size=len(decision.client_votes),
        )
        if tracer.enabled:
            record.phase_times.update(
                select=span_select.duration_s,
                train=span_train.duration_s,
                aggregate=span_aggregate.duration_s,
            )
            if span_validate is not None:
                record.phase_times["validate"] = span_validate.duration_s
            self._observe_round(record)
        self.history.append(record)
        self.round_idx += 1
        return record

    def _codec_name(self) -> str:
        return self._codec.name if self._codec is not None else "identity"

    def _resilience_delta(self) -> int:
        """Recovery incidents since the last emitted record.

        Pipelined rounds overlap, so the attribution is at-emission (the
        incidents land on the record being resolved when they surfaced) —
        the per-run sum is exact either way.
        """
        stats = getattr(self.executor, "resilience", None)
        if stats is None:
            return 0
        total = stats.total()
        delta = total - self._resilience_seen
        self._resilience_seen = total
        return max(delta, 0)

    def _observe_round(self, record: RoundRecord) -> None:
        """Fold one finished round into the tracer's metrics registry."""
        metrics = self.tracer.metrics
        metrics.counter("rounds_total").inc()
        metrics.counter(
            "rounds_accepted" if record.accepted else "rounds_rejected"
        ).inc()
        if record.rollback_count:
            metrics.counter("rollback_replays").inc(record.rollback_count)
        metrics.histogram("acceptance_lag_rounds").observe(
            record.validation_lag
        )
        metrics.counter("transport_bytes").inc(record.transport_bytes)
        metrics.counter("raw_transport_bytes").inc(record.raw_transport_bytes)
        metrics.gauge("compression_ratio").set(record.compression_ratio)
        metrics.gauge("peak_rss_kb").set(record.peak_rss_kb)
        metrics.gauge("materialized_clients").set(record.materialized_clients)
        rounds = metrics.counter("rounds_total").value
        elapsed = self.tracer.elapsed_s()
        if elapsed > 0:
            metrics.gauge("rounds_per_s").set(rounds / elapsed)
        metrics.gauge("rollback_rate").set(
            metrics.counter("rollback_replays").value / rounds
        )

    def run(self, num_rounds: int) -> list[RoundRecord]:
        """Run ``num_rounds`` rounds and return their records."""
        if self._pipeline_depth is not None:
            return self._run_pipelined(num_rounds)
        return [self.run_round() for _ in range(num_rounds)]

    # ------------------------------------------------------------------
    # Round loop (pipelined)
    # ------------------------------------------------------------------
    def _run_pipelined(self, num_rounds: int) -> list[RoundRecord]:
        """Issue rounds ahead of their quorums, bounded by pipeline_depth.

        The loop keeps a FIFO of speculative rounds.  Issuing a round
        optimistically commits its candidate and submits its votes; before
        speculation may run more than ``pipeline_depth`` rounds ahead, the
        oldest open quorum is resolved (rounds resolve strictly in order —
        a rejection invalidates everything after it, so out-of-order
        resolution could act on withdrawn state).  Each ``run`` call drains
        its pipeline before returning, so callers observe fully committed
        state between calls.
        """
        open_rounds: deque[_SpeculativeRound] = deque()
        records: list[RoundRecord] = []
        end = self.round_idx + num_rounds
        while self.round_idx < end:
            round_idx = self.round_idx
            with self.tracer.span("select", round_idx=round_idx) as span_select:
                contributor_ids = self.selector.select(round_idx, self.rng)
            post_select_state = self.rng.bit_generator.state
            if any(
                not self._client_parallel_safe(cid) for cid in contributor_ids
            ):
                # A stateful contributor (e.g. the adaptive attacker, which
                # reads the live defense history) must observe exactly the
                # committed state a synchronous run would show it — and
                # must never be replayed, since replaying would repeat its
                # observable side effects.  Resolving every open quorum
                # first guarantees both: the history it reads is final, and
                # no earlier rejection can roll this round back.
                while open_rounds:
                    records.append(self._resolve_oldest(open_rounds))
            spec = self._speculate(
                round_idx, contributor_ids, post_select_state, self.rng, 0
            )
            if self.tracer.enabled:
                spec.phase_times["select"] = span_select.duration_s
            self._issued_high = round_idx
            self.round_idx += 1
            open_rounds.append(spec)
            # Rounds whose outcome was known at speculation time (pre-start
            # auto-accepts, non-finite rejections) hold no open quorum:
            # retire them from the queue front immediately, and only count
            # open quorums against the depth bound (a decision-known round
            # queued behind an open quorum merely awaits FIFO record
            # emission, it is not speculation the pipeline must throttle).
            while open_rounds and open_rounds[0].decision is not None:
                records.append(self._resolve_oldest(open_rounds))
            while (
                sum(1 for s in open_rounds if s.pending is not None)
                > self._pipeline_depth
            ):
                records.append(self._resolve_oldest(open_rounds))
        while open_rounds:
            records.append(self._resolve_oldest(open_rounds))
        return records

    def _replay(self, rolled_back: _SpeculativeRound) -> _SpeculativeRound:
        """Re-execute a round whose speculative run was invalidated.

        The recorded contributor selection is reused and all
        post-selection server draws (aggregation, validator sampling,
        dropout) come from a detached generator restored to the recorded
        state, so a replay consumes no fresh randomness and reproduces
        exactly the draws a synchronous run would have made.
        """
        return self._speculate(
            rolled_back.round_idx,
            rolled_back.contributor_ids,
            rolled_back.post_select_state,
            _restored_generator(self.rng, rolled_back.post_select_state),
            rolled_back.rollback_count + 1,
        )

    def _speculate(
        self,
        round_idx: int,
        contributor_ids: list[int],
        post_select_state: dict,
        round_rng: np.random.Generator,
        rollback_count: int,
    ) -> _SpeculativeRound:
        """Run one round up to (and including) its optimistic commit."""
        base_model = self.global_model
        tracer = self.tracer
        transport_before = self.executor.transport_bytes
        raw_before = self.executor.raw_transport_bytes
        with tracer.span("train", round_idx=round_idx) as span_train:
            updates = self.executor.run_clients(
                self.clients,
                contributor_ids,
                base_model,
                self._local_config(),
                round_idx,
                self.streams,
            )
        with tracer.span("aggregate", round_idx=round_idx) as span_aggregate:
            candidate, candidate_flat = self._aggregate(
                contributor_ids, updates, round_idx, round_rng
            )
        resident_clients = self._end_client_round()
        if tracer.enabled:
            tracer.event(
                "materialize", round_idx=round_idx, clients=resident_clients
            )

        pending: object | None = None
        decision: DefenseDecision | None = None
        if not np.isfinite(candidate_flat).all():
            # Known instantly — no quorum to await, nothing committed.  The
            # defense is *not* notified here (unlike the synchronous loop):
            # its record_outcome would discard the staged profiles of every
            # still-open earlier round.  For BaFFLe the synchronous call is
            # a no-op in this branch anyway (nothing of this round was
            # staged), so the behavior is identical.
            decision = DefenseDecision(accepted=False)
            if self.defense is not None and not self._async_defense:
                self.defense.record_outcome(candidate, False)
        elif self.defense is None:
            decision = DefenseDecision(accepted=True)
            self.global_model = candidate
        elif self._async_defense:
            with tracer.span("validate.submit", round_idx=round_idx):
                result = self.defense.review_async(
                    candidate, round_idx, round_rng
                )
            if isinstance(result, DefenseDecision):
                # Pre-start_round auto-accept: decided without validation.
                decision = result
                self.defense.record_outcome(candidate, decision.accepted)
                if decision.accepted:
                    self.global_model = candidate
            else:
                pending = result
                self.defense.commit_optimistic(pending)
                self.global_model = candidate
        else:
            # Defense without the async protocol: resolve at the round
            # boundary, synchronous semantics inside the pipelined loop.
            with tracer.span("validate", round_idx=round_idx):
                decision = self.defense.review(candidate, round_idx, round_rng)
            self.defense.record_outcome(candidate, decision.accepted)
            if decision.accepted:
                self.global_model = candidate
        phase_times = (
            {"train": span_train.duration_s,
             "aggregate": span_aggregate.duration_s}
            if tracer.enabled
            else {}
        )
        return _SpeculativeRound(
            round_idx=round_idx,
            contributor_ids=contributor_ids,
            base_model=base_model,
            candidate=candidate,
            post_select_state=post_select_state,
            pending=pending,
            decision=decision,
            transport_bytes=self.executor.transport_bytes - transport_before,
            raw_transport_bytes=self.executor.raw_transport_bytes - raw_before,
            rollback_count=rollback_count,
            materialized_clients=resident_clients,
            phase_times=phase_times,
        )

    def _resolve_oldest(
        self, open_rounds: deque[_SpeculativeRound]
    ) -> RoundRecord:
        """Resolve the oldest open quorum; roll back and replay on reject."""
        spec = open_rounds.popleft()
        tracer = self.tracer
        if spec.decision is not None:
            decision = spec.decision
            model_after = spec.candidate if decision.accepted else spec.base_model
            outcome = "commit" if decision.accepted else "reject"
            with tracer.span(outcome, cat="round", round_idx=spec.round_idx):
                pass
        else:
            with tracer.span(
                "validate", round_idx=spec.round_idx
            ) as span_validate:
                decision = self.defense.resolve_review(spec.pending)
            if tracer.enabled:
                spec.phase_times["validate"] = span_validate.duration_s
            if decision.accepted:
                with tracer.span(
                    "commit", cat="round", round_idx=spec.round_idx
                ):
                    self.defense.finalize_review(spec.pending)
                model_after = spec.candidate
            else:
                # Late rejection: withdraw this round's optimistic commit
                # and the speculative suffix built on it, restore the
                # pre-round global model, then replay the invalidated
                # rounds against the corrected state.  Replays re-enter the
                # pipeline as fresh speculative rounds (their quorums are
                # open again), so back-to-back rejections unwind correctly.
                with tracer.span(
                    "rollback", round_idx=spec.round_idx,
                    invalidated=len(open_rounds),
                ):
                    self.defense.rollback_review(spec.pending)
                    self.global_model = spec.base_model
                    model_after = spec.base_model
                    invalidated = list(open_rounds)
                    open_rounds.clear()
                    for later in invalidated:
                        if later.pending is not None:
                            self.defense.cancel_review(later.pending)
                if tracer.enabled:
                    tracer.event("reject", cat="round", round_idx=spec.round_idx)
                for later in invalidated:
                    with tracer.span("replay", round_idx=later.round_idx):
                        open_rounds.append(self._replay(later))
        # A round whose decision was known at speculation time resolved at
        # its own aggregation, whenever its record is emitted; only rounds
        # that actually awaited a quorum report acceptance lag.
        resolved_at = (
            spec.round_idx if spec.decision is not None else self._issued_high
        )
        record = RoundRecord(
            round_idx=spec.round_idx,
            contributor_ids=spec.contributor_ids,
            malicious_present=any(
                self._client_is_malicious(cid) for cid in spec.contributor_ids
            ),
            accepted=decision.accepted,
            decision=decision,
            metrics={
                name: hook(model_after) for name, hook in self.metric_hooks.items()
            },
            transport_bytes=spec.transport_bytes,
            raw_transport_bytes=spec.raw_transport_bytes,
            codec=self._codec_name(),
            accepted_at_round=resolved_at,
            validation_lag=resolved_at - spec.round_idx,
            rollback_count=spec.rollback_count,
            peak_rss_kb=_peak_rss_kb(),
            materialized_clients=spec.materialized_clients,
            retries=self._resilience_delta(),
            quorum_size=len(decision.client_votes),
        )
        if tracer.enabled:
            record.phase_times.update(spec.phase_times)
            self._observe_round(record)
        self.history.append(record)
        return record

    # ------------------------------------------------------------------
    # Shared per-round machinery
    # ------------------------------------------------------------------
    def _local_config(self) -> LocalTrainingConfig:
        return LocalTrainingConfig(
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            lr=self.config.client_lr,
            momentum=self.config.client_momentum,
            weight_decay=self.config.weight_decay,
        )

    def _client_is_malicious(self, cid: int) -> bool:
        """Metadata query — never materializes a registry client."""
        if self.registry is not None:
            return self.registry.is_malicious(cid)
        return bool(self.clients[cid].is_malicious)

    def _client_parallel_safe(self, cid: int) -> bool:
        """Metadata query — never materializes a registry client."""
        if self.registry is not None:
            return self.registry.is_parallel_safe(cid)
        return _is_parallel_safe(self.clients[cid])

    def _end_client_round(self) -> int:
        """Release the round's materialized clients; report how many were
        resident (the whole population on the eager path)."""
        if self.registry is not None:
            return self.registry.end_round()
        return len(self.clients)

    def _aggregate(
        self,
        contributor_ids: list[int],
        updates: list[np.ndarray],
        round_idx: int,
        rng: np.random.Generator,
    ) -> tuple[Network, np.ndarray]:
        """Combine updates into the candidate global model.

        With a non-transparent codec the candidate is canonicalized here —
        the single point every downstream consumer (defense review,
        history commit, next round's training base) inherits from — so the
        committed trajectory is the codec's exactly-representable one and
        identical across executors and stores.
        """
        mean_update = self._combine(contributor_ids, updates, round_idx, rng)
        candidate_flat = apply_global_update(
            self.global_model.get_flat(),
            mean_update,
            num_selected=len(contributor_ids),
            global_lr=self.config.effective_global_lr,
            num_clients=self.config.num_clients,
        )
        if self._codec is not None and not self._codec.transparent:
            candidate_flat = self._codec.canonicalize(candidate_flat)
        # The secure-aggregation simulation and the lossy codecs compute in
        # float64 internally; under a float32 policy the committed
        # trajectory must still be policy-dtype everywhere (no-op under
        # float64, and under float32 every value is float64-exact so the
        # cast loses nothing on the lossless paths).
        candidate_flat = np.ascontiguousarray(candidate_flat, dtype=active_dtype())
        candidate = self.global_model.clone()
        candidate.set_flat(candidate_flat)
        if self._sanitize is not None:
            self._sanitize.assert_dtype(
                candidate_flat, f"aggregate[round {round_idx}]"
            )
            self.sanitize_trace.record_model(round_idx, candidate)
        return candidate, candidate_flat

    def _combine(
        self,
        contributor_ids: list[int],
        updates: list[np.ndarray],
        round_idx: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self.use_secure_agg:
            protocol = SecureAggregator(
                contributor_ids, dim=len(updates[0]), round_seed=round_idx
            )
            submissions = [
                protocol.blind(cid, update)
                for cid, update in zip(contributor_ids, updates)
            ]
            # The server-side view: only the unmasked *sum* exists here.
            return protocol.unmask_sum(submissions) / len(submissions)
        return self.aggregator.aggregate(updates, rng)
