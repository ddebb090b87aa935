"""The federated round loop with attack and defense hooks.

:class:`FederatedSimulation` drives the process of the paper's Sec. II-B
and Fig. 1: select contributors, collect updates (optionally through the
secure-aggregation simulation), derive the candidate global model, let the
defense accept or reject it, and commit it or keep the previous model.

Rejection semantics follow Algorithm 1: a rejected round leaves the global
model unchanged (``G_r <- G_{r-1}``) and the rejected candidate is *not*
added to any history of accepted models.  Each round blocks on its
validator quorum before committing.  The paper's validators report in the
next round (Sec. IV); that is a latency property of the deployed protocol,
and this loop commits the decisions that protocol would.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.fl.aggregation import Aggregator, FedAvgAggregator, apply_global_update
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.config import FLConfig
from repro.fl.parallel import RoundExecutor, SequentialExecutor
from repro.fl.registry import ClientRegistry
from repro.fl.rng import RngStreams
from repro.fl.secure_agg import SecureAggregator
from repro.fl.selection import Selector, UniformSelector
from repro.nn import blas
from repro.nn.network import Network
from repro.nn.precision import active_dtype
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB (0 where unobservable)."""
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
    #: Peak RSS in KiB when this round's record was built
    #: (monotone within a run — the OS high-water mark — so the *last*
    #: round's value is the run's peak; 0 where unobservable).
    peak_rss_kb: int = 0
    #: Clients resident in the parent when this round's training finished:
    #: the whole population on the eager path, cohort-sized (overrides
    #: included) under a virtual registry — the observable form of the
    #: bounded-memory claim.
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
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            self.executor.bind(tracer=self.tracer)
        bind_runtime = getattr(defense, "bind_runtime", None)
        if callable(bind_runtime):
            bind_runtime(executor=self.executor, streams=self.streams)
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
    # Round loop
    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one full round and return its record.

        The whole round runs at one BLAS thread (:mod:`repro.nn.blas`):
        training on every engine, every vote, the server's vote and the
        metric hooks.  The caller's count comes back when it returns.
        """
        with blas.limit(1):
            round_idx = self.round_idx
            tracer = self.tracer
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

    def _resilience_delta(self) -> int:
        """Recovery incidents since the last emitted record."""
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
        metrics.gauge("peak_rss_kb").set(record.peak_rss_kb)
        metrics.gauge("materialized_clients").set(record.materialized_clients)
        rounds = metrics.counter("rounds_total").value
        elapsed = self.tracer.elapsed_s()
        if elapsed > 0:
            metrics.gauge("rounds_per_s").set(rounds / elapsed)

    def run(self, num_rounds: int) -> list[RoundRecord]:
        """Run ``num_rounds`` rounds and return their records."""
        return [self.run_round() for _ in range(num_rounds)]

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

        The candidate is cast to the precision-policy dtype here — the
        single point every downstream consumer (defense review, history
        commit, next round's training base) inherits from — so the
        committed trajectory is policy-dtype on every engine.
        """
        mean_update = self._combine(contributor_ids, updates, round_idx, rng)
        candidate_flat = apply_global_update(
            self.global_model.get_flat(),
            mean_update,
            num_selected=len(contributor_ids),
            global_lr=self.config.effective_global_lr,
            num_clients=self.config.num_clients,
        )
        # The secure-aggregation simulation computes in float64 internally;
        # under a float32 policy the committed trajectory must still be
        # policy-dtype everywhere (a no-op under float64).
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
