"""The round-execution engine: one executor over three dispatchers.

Every BaFFLe round fans out twice: the selected clients' local training
(``produce_update``), then the validators' votes.  Both dominate the
round's cost — BackFed (Dao et al., 2025) names sequential client
execution *the* bottleneck of FL-backdoor benchmarking.  One
:class:`RoundExecutor` owns both fan-outs and writes each step once:

- **Round plan.**  Requested entities split into *remote* ones
  (``parallel_safe = True``), which run as slices, and parent-side ones,
  which run in the calling thread (e.g. the adaptive attacker, which reads
  the live defense history).  Remote cohortable clients are grouped into
  stacked chunks (:func:`~repro.fl.cohort.plan_cohorts`).  Chunks,
  per-model clients and validators are the *units* the dispatcher packs
  into slices; each slice carries the keyed
  :class:`~repro.fl.rng.RngStreams` seed sequences of its entities, so
  running it anywhere, any number of times, returns the same rows.
- **Dispatch.**  Remote slices are submitted first; parent-side entities
  then run while the slices execute; results are gathered in request
  order, whatever the completion order.
- **Recovery.**  A crashed slice is re-dispatched from its pristine seeds
  (retry-by-replay).  A slice past ``task_deadline_s`` is written off as a
  straggler and replayed on the parent's live objects.  A dead pool is
  rebuilt; once ``DEFAULT_POOL_REBUILDS`` is spent the executor swaps in
  the next dispatcher down the ladder *process → thread → inline* for the
  rest of the run, and the slices of the failing phase replay on the
  parent.  A slice that fails more than ``DEFAULT_TASK_RETRIES`` times also
  replays on the parent.  Every incident lands in one
  :class:`~repro.fl.faults.ResilienceStats` ledger.

The three dispatchers differ only in where a slice runs and how units pack
into slices (which is also what a fault plan's slot index counts, see
:mod:`repro.fl.faults`):

==========  ======================================  ======================
dispatcher  slices per phase                        runs on
==========  ======================================  ======================
inline      one per unit, in order                  the calling thread
thread      one per unit                            pool threads, zero IPC
process     one per worker, greedy least-loaded     worker processes
==========  ======================================  ======================

:class:`SequentialExecutor` runs inline and keeps the classic per-model
loop unless a ``cohort_size`` is requested; :class:`ThreadPoolRoundExecutor`
and :class:`ProcessPoolRoundExecutor` stack the whole eligible fan-out by
default (``cohort_size=None``), the process pool spreading the stack over
its workers.  Threads share the live clients and validators (the kernels
are BLAS-bound and release the GIL); a per-validator lock serializes votes
of one validator across overlapping pipelined rounds.

Pipelined rounds
----------------
:meth:`RoundExecutor.submit_validators` returns a :class:`PendingVotes`
handle instead of blocking.  An executor whose ``pipeline_depth`` is set
(``make_executor(mode="pipelined")``) makes
:class:`~repro.fl.simulation.FederatedSimulation` run round ``r + 1``'s
client slices while round ``r``'s votes are still in flight.  A handle
released while any of its tasks still runs (a rolled-back round, a
written-off straggler) moves to a deferred-release list, reaped at the
next fan-out and drained on :meth:`RoundExecutor.close`.

Process transport
-----------------
Process-only concerns live in the process dispatcher.  Workers receive the
parallel-safe populations, a template network and the store's attachment
handle once, at pool start.  Per phase, weights travel as
:data:`ModelRef`\\ s: integer version keys into a shareable store's
shared-memory arena (O(1 new model) per round), or codec-encoded blobs
through the pipes (the bound store's codec).  Every version shipped by key
is held in the store until the phase's last task finished, so a rollback
can never unlink a segment a straggler still reads.  Workers return the
validator error profiles they computed; the server files them in its
:class:`~repro.fl.model_store.ValidatorProfileTable` and ships them back as
hints, so each profile is computed once process-wide.  Closing or rebuilding
the pool unlinks ``/dev/shm`` segments stranded by dead processes.

Because every slice draws from keyed streams and weights travel losslessly
in the precision-policy dtype, every engine/store/mode combination commits
**bit-identical** models and round records for the same seed and policy.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import warnings
from collections.abc import Mapping, Sequence
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import wait as _wait_futures
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.cohort import cohort_updates, plan_cohorts
from repro.fl.compression import CompressedSegment, IdentityCodec, decode_segment
from repro.fl.faults import (
    DEFAULT_POOL_REBUILDS,
    DEFAULT_TASK_RETRIES,
    FaultPlan,
    InjectedWorkerCrash,
    ResilienceStats,
)
from repro.fl.model_store import (
    ModelStore,
    ShmWorkerView,
    ValidatorProfileTable,
    make_model_store,
    reap_orphan_segments,
)
from repro.fl.registry import ClientRegistry
from repro.fl.rng import RngStreams
from repro.nn.network import Network
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard: this module is
    # imported by repro.fl.simulation, which repro.core.baffle imports, so
    # importing repro.core here at runtime would close a circle.
    from repro.core.baffle import ValidatorPool
    from repro.core.validation import ValidationContext, Validator


#: Round-loop execution modes accepted by :func:`make_executor` /
#: :func:`make_engine` (also the config validation set and the CLI
#: ``--exec-mode`` choices).
EXECUTION_MODES = ("sync", "pipelined")

#: Multi-worker engine kinds accepted by :func:`make_executor` /
#: :func:`make_engine` (and the CLI ``--engine`` choices): ``"process"``
#: fans out over worker processes, ``"thread"`` over in-process threads,
#: ``"auto"`` resolves to ``"process"``.
ENGINE_KINDS = ("auto", "process", "thread")

#: Default speculation depth of the pipelined mode: how many rounds may
#: run ahead of their unresolved validator quorums (0 = synchronous).
DEFAULT_PIPELINE_DEPTH = 1

#: A picklable reference to one model's weights: ``(version, blob)`` where
#: a ``None`` blob means "resolve ``version`` from the shared arena" and a
#: present blob carries the serialized weights through the pipe (version
#: ``None`` for unversioned one-shot models like blob-path candidates).
ModelRef = tuple[int | None, bytes | None]

#: Failures the recovery loop absorbs: an in-process task crash, and a
#: pool that died or refused work (its pending futures break or cancel).
_LOST = (InjectedWorkerCrash, BrokenExecutor, CancelledError)

_NO_LOCK = contextlib.nullcontext()


def _is_parallel_safe(obj: object) -> bool:
    """Whether an entity may run off the calling thread (opt-in attribute)."""
    return bool(getattr(obj, "parallel_safe", False))


# ----------------------------------------------------------------------
# Slice bodies: what every dispatcher, and every replay, runs
# ----------------------------------------------------------------------
def _train_body(span, clients, model, config, round_idx, units, seeds):
    """Train one slice: stacked cohort chunks and per-model clients.

    ``clients`` maps ids to client objects, ``units`` are the slice's id
    runs (a run of two or more is a cohort chunk) and ``seeds`` their
    keyed seed sequences.  Returns ``[(client_id, update), ...]``.
    """
    rows = []
    for ids, seqs in zip(units, seeds):
        rngs = [np.random.default_rng(seq) for seq in seqs]
        if len(ids) > 1:
            with span("train.cohort", round_idx=round_idx, clients=len(ids)):
                updates = cohort_updates(
                    model, [clients[cid].dataset for cid in ids], config, rngs
                )
        else:
            with span("train.client", round_idx=round_idx, client=ids[0]):
                updates = [clients[ids[0]].produce_update(
                    model, config, round_idx, rngs[0]
                )]
        rows.extend(zip(ids, updates))
    return rows


def _vote_body(span, validators, context, round_idx, validator_ids, seeds,
               hints, locks):
    """Vote one slice of validators.

    Returns ``[(validator_id, vote, new_profiles, candidate_profile), ...]``.
    ``hints`` (process slices only; ``None`` skips the exchange) seeds
    each validator's profile cache from the server's shared table; the
    history profiles computed beyond the hints and the candidate's profile
    then ride back in the row.
    """
    rows = []
    for vid, seq in zip(validator_ids, seeds):
        validator = validators[vid]
        new_profiles, candidate_profile = {}, None
        with locks.get(vid, _NO_LOCK), span(
            "validate.vote", round_idx=round_idx, validator=vid
        ):
            known = None if hints is None else hints.get(vid, {})
            seed_cache = getattr(validator, "seed_profile_cache", None)
            if known and callable(seed_cache):
                seed_cache(known)
            vote = validator.vote(context, np.random.default_rng(seq))
            if known is not None:
                cached = getattr(validator, "cached_profiles", None)
                if callable(cached):
                    new_profiles = cached(
                        [v for v, _ in context.history if v not in known]
                    )
                take_pending = getattr(validator, "take_pending_profile", None)
                if callable(take_pending):
                    candidate_profile = take_pending()
        rows.append((vid, vote, new_profiles, candidate_profile))
    return rows


def _apply_fault(directive: tuple[str, float] | None) -> None:
    """Execute one injected-fault directive at task start.

    ``("delay", s)`` sleeps (a straggler); ``("crash", _)`` raises
    :class:`InjectedWorkerCrash`; ``("exit", _)`` hard-kills a worker
    process, so the parent observes a genuine ``BrokenProcessPool`` like a
    segfault or an OOM kill.  Directives fire before any slice work and
    before any seed is used, which is what makes replay bit-identical.
    """
    if directive is None:
        return
    kind, param = directive
    if kind == "delay":
        time.sleep(param)
    elif kind == "crash":
        raise InjectedWorkerCrash("planned task crash (fault plan)")
    elif kind == "exit":  # pragma: no cover - dies before coverage flushes
        os._exit(13)


def _local_task(fault, body, *args):
    """An in-process slice task (inline and thread dispatchers)."""
    _apply_fault(fault)
    return body(*args), None


# ----------------------------------------------------------------------
# Worker-process side of the process dispatcher
# ----------------------------------------------------------------------
_W_CLIENTS: dict[int, Client] = {}
_W_VALIDATORS: dict[int, Validator] = {}
_W_TEMPLATE: Network | None = None
_W_MODELS: dict[int, Network] = {}
_W_STORE: ShmWorkerView | None = None
_W_REGISTRY: ClientRegistry | None = None
_W_TRACING = False
#: Locally recorded span rows, drained into each task's return payload:
#: ``(name, cat, start_ns, dur_ns, tid, round_idx, attrs)`` on the
#: worker's own monotonic clock.
_W_SPANS: list[tuple] = []
#: ``(attach_count, cache_hits)`` of the worker store view already
#: reported to the server (deltas ship with each drain).
_W_STORE_STATS = [0, 0]


def _init_worker(
    clients: dict[int, Client],
    validators: dict[int, Validator],
    template: Network | None,
    store_handle,
    registry: ClientRegistry | None = None,
    trace_enabled: bool = False,
) -> None:
    global _W_TEMPLATE, _W_STORE, _W_REGISTRY, _W_TRACING
    _W_CLIENTS.clear()
    _W_CLIENTS.update(clients)
    _W_VALIDATORS.clear()
    _W_VALIDATORS.update(validators)
    _W_MODELS.clear()
    _W_TEMPLATE = template
    _W_STORE = store_handle.attach() if store_handle is not None else None
    _W_REGISTRY = registry
    _W_TRACING = bool(trace_enabled)
    _W_SPANS.clear()
    _W_STORE_STATS[0] = _W_STORE_STATS[1] = 0


class _WorkerSpan:
    """Worker-local span context: appends a row to :data:`_W_SPANS`."""

    __slots__ = ("name", "round_idx", "attrs", "_start_ns")

    def __init__(self, name, round_idx, attrs):
        self.name = name
        self.round_idx = round_idx
        self.attrs = attrs
        self._start_ns = 0

    def __enter__(self) -> "_WorkerSpan":
        self._start_ns = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        _W_SPANS.append((
            self.name, "worker", self._start_ns,
            time.monotonic_ns() - self._start_ns, threading.get_ident(),
            self.round_idx, self.attrs,
        ))
        return False


def _wspan(name: str, round_idx: int | None = None, **attrs):
    """A worker-side span when tracing is on, else the shared no-op."""
    if not _W_TRACING:
        return NULL_TRACER.span(name)
    return _WorkerSpan(name, round_idx, attrs)


def _drain_worker_trace():
    """Pack this worker's recorded spans for the task result payload.

    ``None`` when tracing is off.  Otherwise ``(pid, sent_ns, rows,
    store_stats)``: ``sent_ns`` is this worker's monotonic clock at packing
    time (the server's offset estimator), ``store_stats`` the ``(attaches,
    cache_hits)`` delta of the arena view since the previous drain.
    """
    if not _W_TRACING:
        return None
    rows = list(_W_SPANS)
    _W_SPANS.clear()
    store_stats = None
    if _W_STORE is not None:
        store_stats = (
            _W_STORE.attach_count - _W_STORE_STATS[0],
            _W_STORE.cache_hits - _W_STORE_STATS[1],
        )
        _W_STORE_STATS[0] = _W_STORE.attach_count
        _W_STORE_STATS[1] = _W_STORE.cache_hits
    return (os.getpid(), time.monotonic_ns(), rows, store_stats)


def _materialize(ref: ModelRef) -> Network:
    """A fresh ``Network`` carrying the referenced weights.

    Arena attachments are cached in the worker view keyed by version and
    dropped on the server's release path (the eviction floor travels with
    every task), so a version read twice never re-opens its segment.
    """
    assert _W_TEMPLATE is not None, "worker used before initialization"
    model = _W_TEMPLATE.clone()
    version, blob = ref
    if blob is not None:
        model.set_flat(decode_segment(CompressedSegment.from_buffer(blob)))
    else:
        assert _W_STORE is not None, "version ref without an attached store"
        assert version is not None
        model.set_flat(_W_STORE.get(version, _W_TEMPLATE.num_parameters))
    return model


def _evict_retired(live_floor: int | None) -> None:
    """Drop cached attachments for versions the server has retired."""
    if _W_STORE is not None:
        _W_STORE.evict_below(live_floor)


def _resolve_history(history_refs: Sequence[ModelRef]) -> list[int]:
    """Materialize history models into the per-version worker cache.

    Across rounds the history shifts by one entry, so all but one model
    are already cached; entries older than the oldest live history version
    are dropped.  An empty history resolves to an empty list, on which the
    validator abstains — exactly like the in-process path.
    """
    history_versions = [version for version, _ in history_refs]
    for ref in history_refs:
        version = ref[0]
        assert version is not None  # history entries are always versioned
        if version not in _W_MODELS:
            _W_MODELS[version] = _materialize(ref)
    if history_versions:
        oldest = min(history_versions)
        for version in [v for v in _W_MODELS if v < oldest]:
            del _W_MODELS[version]
    return history_versions


def _materialize_candidate(candidate_ref: ModelRef) -> Network:
    """The round's candidate, warm-cached under its version when it has one.

    An accepted candidate becomes the next round's newest history entry,
    so caching it makes the steady-state per-round materialization cost
    exactly one new model; rejected versions age out when the eviction
    floor passes them.
    """
    version = candidate_ref[0]
    if version is not None and version in _W_MODELS:
        return _W_MODELS[version]
    model = _materialize(candidate_ref)
    if version is not None:
        _W_MODELS[version] = model
    return model


def _client_slice_task(units, seeds, model_ref: ModelRef, config, round_idx,
                       live_floor, fault=None):
    """A training slice in a worker: one global-model materialization for
    the whole slice, then :func:`_train_body`.  Returns ``(rows,
    trace_payload)``."""
    _apply_fault(fault)
    _evict_retired(live_floor)
    with _wspan("materialize", round_idx):
        model = _materialize(model_ref)
    try:
        # Registry-backed workers materialize their own shards, held only
        # for the slice's lifetime.
        clients = {
            cid: _W_CLIENTS[cid] if cid in _W_CLIENTS else _W_REGISTRY[cid]
            for unit in units for cid in unit
        }
        rows = _train_body(_wspan, clients, model, config, round_idx, units, seeds)
    finally:
        if _W_REGISTRY is not None:
            _W_REGISTRY.end_round()
    return rows, _drain_worker_trace()


def _validator_slice_task(
    validator_ids: Sequence[int],
    candidate_ref: ModelRef,
    history_refs: Sequence[ModelRef],
    round_idx: int,
    seed_seqs: Sequence[np.random.SeedSequence],
    profile_hints: Mapping[int, Mapping[int, object]],
    live_floor: int | None,
    fault: tuple[str, float] | None = None,
):
    """A vote slice in a worker: candidate and history materialize once
    per slice (validators only read them), then :func:`_vote_body` runs
    with the profile exchange on.  Returns ``(rows, trace_payload)``."""
    from repro.core.validation import ValidationContext

    _apply_fault(fault)
    _evict_retired(live_floor)
    with _wspan("materialize", round_idx):
        history_versions = _resolve_history(history_refs)
        candidate = _materialize_candidate(candidate_ref)
    context = ValidationContext(
        candidate=candidate,
        history=[(v, _W_MODELS[v]) for v in history_versions],
    )
    rows = _vote_body(
        _wspan, _W_VALIDATORS, context, round_idx, validator_ids, seed_seqs,
        profile_hints, {},
    )
    return rows, _drain_worker_trace()


# ----------------------------------------------------------------------
# Dispatchers: run slices, report each as a future
# ----------------------------------------------------------------------
class _Slice(NamedTuple):
    """One dispatch slot of a round phase."""

    slot: int
    #: ``(body, *args)``: the slice on the parent's live objects.
    local: tuple
    #: ``(task, *args)``: the same slice as a picklable worker task
    #: (process dispatcher only).
    remote: tuple | None


def _failed(error: BaseException) -> Future:
    future: Future = Future()
    future.set_exception(error)
    return future


class _InlineDispatcher:
    """Runs each slice on the calling thread, at submit, in slot order.

    Dispatchers own their pool only; the executor whose state they need is
    passed in, so the two never form a reference cycle.
    """

    kind = "inline"
    #: Whether slices cross a process boundary (weights ship as refs).
    remote = False
    #: ``plan_cohorts`` spread: cap chunk sizes to spread over workers.
    spread: int | None = None

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def pack(self, units: list[list[int]]) -> list[list[list[int]]]:
        """One slice per unit."""
        return [[unit] for unit in units]

    def start(self, ex: "RoundExecutor") -> None:
        pass

    def submit(self, slice_: _Slice, fault) -> Future:
        future: Future = Future()
        try:
            future.set_result(_local_task(fault, *slice_.local))
        except Exception as error:  # classified by the settle loop, like a pool's
            future.set_exception(error)
        return future

    def close(self, ex: "RoundExecutor", cancel: bool = False) -> None:
        pass


class _ThreadDispatcher(_InlineDispatcher):
    """Runs each slice on a pool thread; a pool refusing work is broken."""

    kind = "thread"
    below = _InlineDispatcher

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._pool = None

    def start(self, ex: "RoundExecutor") -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-round"
            )

    def submit(self, slice_: _Slice, fault) -> Future:
        try:
            return self._pool.submit(_local_task, fault, *slice_.local)
        except RuntimeError as error:  # shut down / interpreter teardown
            return _failed(BrokenExecutor(f"thread pool refused work: {error}"))

    def close(self, ex: "RoundExecutor", cancel: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not cancel, cancel_futures=cancel)


class _ProcessDispatcher(_ThreadDispatcher):
    """Runs each slice as a task in a worker process, one per worker."""

    kind = "process"
    remote = True
    below = _ThreadDispatcher

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self.spread = workers

    def pack(self, units: list[list[int]]) -> list[list[list[int]]]:
        """Greedy least-loaded packing into <= ``workers`` slices (ties go
        to the lowest slot), so dispatch costs O(workers) per phase."""
        slices: list[list[list[int]]] = [
            [] for _ in range(min(self.spread, len(units)))
        ]
        loads = [0] * len(slices)
        for unit in units:
            index = loads.index(min(loads))
            slices[index].append(unit)
            loads[index] += len(unit)
        return slices

    def start(self, ex: "RoundExecutor") -> None:
        if self._pool is None:
            if ex._template is None:
                raise RuntimeError(
                    "executor needs a template network; bind(template=...) "
                    "first (FederatedSimulation does this automatically)"
                )
            self._pool = ProcessPoolExecutor(
                max_workers=ex.workers,
                initializer=_init_worker,
                initargs=(
                    ex._clients,
                    ex._validators,
                    ex._template,
                    ex._store.worker_handle() if ex._use_store else None,
                    ex._registry.worker_view() if ex._registry is not None else None,
                    ex._tracer.enabled,
                ),
            )

    def submit(self, slice_: _Slice, fault) -> Future:
        task, *args = slice_.remote
        if fault is not None and fault[0] == "crash":
            fault = ("exit", 0.0)  # a planned crash kills the worker process
        try:
            return self._pool.submit(task, *args, fault)
        except BrokenExecutor as error:
            return _failed(error)

    def close(self, ex: "RoundExecutor", cancel: bool = False) -> None:
        super().close(ex, cancel)
        # Crash hygiene: segments pinned by processes that died must not
        # leak tmpfs pages.  This run's own arenas are kept by prefix.
        prefix = getattr(ex._store, "name_prefix", None)
        reaped = reap_orphan_segments((prefix,) if prefix else ())
        if reaped:
            ex._note("orphans_reaped", n=len(reaped))

    @staticmethod
    def _blob(ex: "RoundExecutor", model: Network, copies: int) -> bytes:
        """A pipe blob of ``model`` in the bound store's codec (delta codecs
        fall back to their dense form), accounted as ``copies`` transfers."""
        codec = getattr(ex._store, "codec", None)
        flat = model.get_flat()
        blob = (codec if codec is not None else IdentityCodec()).encode(flat).to_bytes()
        ex._pipe[0] += copies * len(blob)
        ex._pipe[1] += copies * flat.nbytes
        return blob

    def ship_model(self, ex, model, copies, holds) -> tuple[ModelRef, int | None]:
        """The global model's ref and the worker eviction floor."""
        store = ex._store
        if not ex._use_store:
            return (None, self._blob(ex, model, copies)), None
        # Content-deduplicated: right after a committed round the global
        # model *is* the newest history entry, so this ships zero bytes.
        holds.append(store.publish(model.get_flat()))
        return (holds[-1], None), store.min_live_version()

    def ship_context(self, ex, context, copies, holds):
        """Refs for a vote phase's candidate and history, and the floor.

        Arena-resolvable versions travel as held keys.  A standalone
        context's candidate is published here (its publish reference is
        the hold); a history version the arena cannot resolve travels as a
        blob keyed by that version, so worker caches stay correct.
        """
        store = ex._store
        if not ex._use_store:
            history = [(v, self._blob(ex, m, copies)) for v, m in context.history]
            return (None, self._blob(ex, context.candidate, copies)), history, None
        candidate = context.candidate_version
        if candidate is None or candidate not in store:
            candidate = store.publish_new(context.candidate.get_flat())
        else:
            store.acquire(candidate)
        holds.append(candidate)
        history = []
        for version, model in context.history:
            if version in store:
                store.acquire(version)
                holds.append(version)
                history.append((version, None))
            else:
                history.append((version, self._blob(ex, model, copies)))
        return (candidate, None), history, store.min_live_version()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class PendingVotes:
    """Handle for one phase's in-flight slices (a round's votes, usually).

    ``collect()`` blocks until every result is in and returns it (for
    votes, ``{validator_id: vote}``).  ``abandon()`` discards a handle
    whose round was rolled back.  Either way the handle's store holds
    drop only once no task of it runs any more: until then the handle
    waits on the executor's deferred-release list, and the errors of its
    written-off tasks are counted (``abandoned_task_errors``) when it is
    finally released.
    """

    def __init__(self, gather, futures, cleanup, on_defer, on_error) -> None:
        self._gather = gather
        #: Every future submitted for this phase that may still run; the
        #: executor appends retries and drops futures it saw fail.
        self._futures = futures
        self._cleanup = cleanup
        self._on_defer = on_defer
        self._on_error = on_error
        self._votes = None
        self._deferred = False
        self._released = False
        self.abandoned = False

    def done(self) -> bool:
        """Whether no task of this handle is still executing."""
        return all(future.done() for future in self._futures)

    def collect(self):
        """The phase's result (blocks; idempotent)."""
        if self.abandoned:
            raise RuntimeError("cannot collect abandoned votes")
        if self._votes is None:
            try:
                self._votes = self._gather()
            finally:
                self._release()
        return self._votes

    def abandon(self) -> None:
        """Discard the result; defer the release until tasks finish."""
        if not self.abandoned:
            self.abandoned = True
            if self._votes is None:
                self._release()

    def reap(self) -> bool:
        """Release a deferred handle if its tasks finished."""
        if not self.done():
            return False
        self._release()
        return True

    def wait(self) -> None:
        """Block until every task finished, then release."""
        _wait_futures(self._futures)
        self._release()

    def _release(self) -> None:
        if self._released:
            return
        if not self.done():
            if not self._deferred:
                self._deferred = True
                self._on_defer(self)
            return
        self._released = True
        if self.abandoned or self._deferred:
            for future in self._futures:
                if not future.cancelled() and future.exception() is not None:
                    self._on_error(future.exception())
        self._cleanup()


class RoundExecutor:
    """One round executor over a dispatcher (see the module docstring).

    ``bind`` hands the executor the static populations before the first
    fan-out; ``run_clients`` and ``run_validators`` (or
    ``submit_validators``) execute one round phase and return results in
    request order.  ``bind_faults`` arms the resilience layer: a
    :class:`~repro.fl.faults.FaultPlan` to replay failures from and a
    per-task straggler deadline; :attr:`resilience` records what recovery
    did.  ``pipeline_depth`` (``None`` = synchronous) selects the pipelined
    round loop of :class:`~repro.fl.simulation.FederatedSimulation`.
    """

    #: Whether the workers read weights from the shared arena, making
    #: every byte copied into it transport.
    _reads_arena = False

    def __init__(self, workers: int, cohort_size: int | None, dispatcher) -> None:
        if dispatcher is not _InlineDispatcher and workers < 2:
            raise ValueError(
                f"{type(self).__name__} needs >= 2 workers, got {workers}; "
                "use make_executor() for an automatic sequential fallback"
            )
        if cohort_size is not None and cohort_size < 0:
            raise ValueError(f"cohort_size must be >= 0, got {cohort_size}")
        self.workers = workers
        self.cohort_size = cohort_size
        #: Rounds the pipelined loop may run ahead of their open quorums
        #: (``None`` = synchronous round loop).
        self.pipeline_depth: int | None = None
        #: Injected-failure schedule (empty = fault-free).
        self.fault_plan: FaultPlan = FaultPlan.empty()
        #: Per-task deadline in seconds (``None`` = wait forever); a task
        #: exceeding it is written off as a straggler and replayed.
        self.task_deadline_s: float | None = None
        #: Recovery-incident ledger: one per run, whatever the dispatcher.
        self.resilience = ResilienceStats()
        # Vote drops already accounted for, as (round, validator) pairs —
        # a pipelined replay re-submits the round and must not re-count.
        self._counted_drops: set[tuple[int, int]] = set()
        self._dispatcher = dispatcher(workers)
        #: Bumped on every teardown, so the futures of one breakage
        #: trigger exactly one rebuild.
        self._generation = 0
        self._clients: dict[int, Client] = {}
        self._registry: ClientRegistry | None = None
        self._validators: dict[int, Validator] = {}
        self._template: Network | None = None
        self._store: ModelStore | None = None
        self._profile_table: ValidatorProfileTable | None = None
        self._bound: set[str] = set()
        self._started = False
        self._tracer: Tracer | NullTracer = NULL_TRACER
        #: Cumulative pipe bytes (codec payload, raw policy-dtype).
        self._pipe = [0, 0]
        #: Deferred-release list: handles whose tasks still run.
        self._abandoned: list[PendingVotes] = []
        self._vote_locks: dict[int, threading.Lock] = {}
        self._warned = False

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(
        self,
        clients: Sequence[Client] | None = None,
        validator_pool: "ValidatorPool | None" = None,
        template: Network | None = None,
        store: ModelStore | None = None,
        profile_table: ValidatorProfileTable | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        """Register the populations and stores this executor fans out over.

        Each binds once (one executor per simulation) and before the first
        fan-out, when a process pool ships them to its workers.  ``tracer``
        is pure instrumentation and rebindable, but enabling it must also
        precede the first fan-out (worker tracing is decided at pool start).
        """
        if tracer is not None:
            if self._started and tracer.enabled and not self._tracer.enabled:
                raise RuntimeError("cannot enable tracing after the pool started")
            self._tracer = tracer
        given = {
            name: value for name, value in (
                ("clients", clients), ("validator_pool", validator_pool),
                ("template", template), ("store", store),
                ("profile_table", profile_table),
            ) if value is not None
        }
        if given and self._started:
            raise RuntimeError("cannot bind populations after the pool started")
        for name in given:
            if name in self._bound:
                raise RuntimeError(
                    f"executor already has {name} bound; "
                    "use one executor per simulation"
                )
        self._bound.update(given)
        if isinstance(clients, ClientRegistry):
            # Workers receive a picklable view and materialize their shards.
            self._registry = clients
        elif clients is not None:
            self._clients = {c.client_id: c for c in clients if _is_parallel_safe(c)}
        if validator_pool is not None:
            self._validators = {
                vid: validator
                for vid, validator in validator_pool.as_dict().items()
                if _is_parallel_safe(validator)
            }
        self._template = given.get("template", self._template)
        self._store = given.get("store", self._store)
        self._profile_table = given.get("profile_table", self._profile_table)

    def bind_faults(
        self, plan: "FaultPlan | str | None" = None,
        task_deadline_s: float | None = None,
    ) -> None:
        """Attach a fault plan and/or a per-task straggler deadline."""
        if plan is not None:
            self.fault_plan = FaultPlan.parse(plan)
        if task_deadline_s is not None:
            if task_deadline_s <= 0:
                raise ValueError(
                    f"task_deadline_s must be > 0, got {task_deadline_s}"
                )
            self.task_deadline_s = float(task_deadline_s)

    @property
    def store(self) -> ModelStore | None:
        """The model store bound to this executor (None = unbound)."""
        return self._store

    @property
    def _use_store(self) -> bool:
        """Ship version keys (shared arena) instead of pickled blobs?"""
        return self._store is not None and self._store.shareable

    @property
    def transport_bytes(self) -> int:
        """Cumulative model-weight bytes moved across process boundaries
        (codec-compressed payload bytes on the store path)."""
        return self._transport(0, "bytes_published")

    @property
    def raw_transport_bytes(self) -> int:
        """What :attr:`transport_bytes` would be without compression."""
        return self._transport(1, "raw_bytes_published")

    def _transport(self, index: int, published: str) -> int:
        total = self._pipe[index]
        if self._reads_arena and self._use_store:
            total += getattr(self._store, published)
        return total

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def run_clients(
        self,
        clients: Sequence[Client],
        contributor_ids: Sequence[int],
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        streams: RngStreams,
    ) -> list[np.ndarray]:
        """Collect ``produce_update`` results, ordered as ``contributor_ids``."""
        dispatcher = self._begin()
        probe = getattr(clients, "is_parallel_safe", None)  # registry metadata
        remote = [
            cid for cid in contributor_ids
            if (probe(cid) if callable(probe) else _is_parallel_safe(clients[cid]))
        ]
        size = self.cohort_size
        if size is None:  # pools stack the whole eligible fan-out
            size = len(remote) if self.workers > 1 else 1
        chunks = plan_cohorts(
            clients, remote, global_model, size, spread_over=dispatcher.spread
        )
        cohorted = {cid for chunk in chunks for cid in chunk}
        slices = dispatcher.pack(
            chunks + [[cid] for cid in remote if cid not in cohorted]
        )
        holds: list[int] = []
        if dispatcher.remote:
            model_ref, floor = dispatcher.ship_model(
                self, global_model, len(slices), holds
            )
            population = clients  # resolved only by a replay on the parent
        else:
            # Resolved on the calling thread: a registry materializes its
            # clients race-free before any pool thread runs.
            population = {cid: clients[cid] for cid in remote}
        tasks = []
        for slot, units in enumerate(slices):
            seeds = [[streams.client_seq(round_idx, cid) for cid in unit]
                     for unit in units]
            tasks.append(_Slice(
                slot,
                (_train_body, self._span, population, global_model, config,
                 round_idx, units, seeds),
                (_client_slice_task, units, seeds, model_ref, config, round_idx,
                 floor) if dispatcher.remote else None,
            ))
        remote_set = set(remote)

        def parent() -> dict:
            return {
                cid: clients[cid].produce_update(
                    global_model, config, round_idx,
                    streams.client_rng(round_idx, cid),
                )
                for cid in contributor_ids if cid not in remote_set
            }

        def finish(results: dict, rows: list) -> list[np.ndarray]:
            results.update(rows)
            return [results[cid] for cid in contributor_ids]

        return self._launch("train", round_idx, tasks, parent, finish, holds).collect()

    def submit_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> PendingVotes:
        """Launch one round's votes; the handle's ``collect()`` returns
        ``{validator_id: vote}`` for every vote that was not dropped."""
        dispatcher = self._begin()
        dropped = self._dropped_votes(round_idx, validator_ids)
        voters = [vid for vid in validator_ids if vid not in dropped]
        validators = {
            vid: pool.get(vid) for vid in voters if _is_parallel_safe(pool.get(vid))
        }
        locks = {vid: self._vote_locks.setdefault(vid, threading.Lock())
                 for vid in validators}
        slices = [[vid for (vid,) in units]
                  for units in dispatcher.pack([[vid] for vid in validators])]
        table = self._profile_table
        versions = [version for version, _ in context.history]
        holds: list[int] = []
        if dispatcher.remote:
            candidate_ref, history_refs, floor = dispatcher.ship_context(
                self, context, len(slices), holds
            )
        tasks = []
        for slot, vids in enumerate(slices):
            seeds = [streams.validator_seq(round_idx, vid) for vid in vids]
            hints = None
            if dispatcher.remote:
                hints = {vid: table.hints(vid, versions) if table is not None
                         else {} for vid in vids}
            tasks.append(_Slice(
                slot,
                (_vote_body, self._span, validators, context, round_idx, vids,
                 seeds, hints, locks),
                (_validator_slice_task, vids, candidate_ref, history_refs,
                 round_idx, seeds, hints, floor) if dispatcher.remote else None,
            ))

        def parent() -> dict:
            return {
                vid: pool.get(vid).vote(context, streams.validator_rng(round_idx, vid))
                for vid in voters if vid not in validators
            }

        def finish(votes: dict, rows: list) -> dict[int, int]:
            for vid, vote, new_profiles, candidate_profile in rows:
                votes[vid] = vote
                if table is None:
                    continue
                for version, profile in new_profiles.items():
                    table.put(vid, version, profile)
                if candidate_profile is not None and (
                    context.candidate_version is not None
                ):
                    table.stage(vid, context.candidate_version, candidate_profile)
            return {vid: votes[vid] for vid in voters}

        return self._launch("validate", round_idx, tasks, parent, finish, holds)

    def run_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> dict[int, int]:
        """Collect votes ``{validator_id: vote}`` for the given context."""
        return self.submit_validators(
            pool, validator_ids, context, round_idx, streams
        ).collect()

    def close(self) -> None:
        """Release executor resources (idempotent).

        Warns once (``RuntimeWarning``) about crash/delay entries of the
        fault plan whose dispatch slot never existed in the run.
        """
        self._dispatcher.close(self)
        for pending in self._abandoned:  # every task is done after shutdown
            pending.wait()
        self._abandoned.clear()
        unfired = self.fault_plan.unfired()
        if unfired and not self._warned:
            self._warned = True
            warnings.warn(
                "fault plan entries never fired (no such dispatch slot): "
                + ";".join(str(spec) for spec in unfired),
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "RoundExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch and recovery
    # ------------------------------------------------------------------
    def _begin(self):
        """Start a fan-out: reap finished deferred handles, start the pool."""
        self._started = True
        self._abandoned = [p for p in self._abandoned if not p.reap()]
        self._dispatcher.start(self)
        return self._dispatcher

    def _span(self, name: str, round_idx: int | None = None, **attrs):
        """A worker span on the executor's tracer (in-process slices)."""
        return self._tracer.span(name, cat="worker", round_idx=round_idx, **attrs)

    def _launch(self, phase, round_idx, tasks, parent, finish, holds) -> PendingVotes:
        """Submit every slice, then, at gather time, run the parent-side
        entities while the slices execute and settle the slices in order."""
        futures: list[Future] = []
        entries = [self._submit(phase, round_idx, task, futures) for task in tasks]

        def gather():
            results = parent()
            rows = []
            for entry in entries:
                rows.extend(self._settle(phase, round_idx, entry, futures))
            return finish(results, rows)

        def release_holds() -> None:
            if self._store is not None and not self._store.closed:
                for version in holds:
                    self._store.release(version)

        return PendingVotes(
            gather, futures, release_holds, self._abandoned.append,
            self._count_abandoned_error,
        )

    def _submit(self, phase, round_idx, slice_: _Slice, futures: list[Future]):
        """Dispatch one slice; every dispatch consumes the slot's next
        planned crash or delay."""
        dispatcher = self._dispatcher
        dispatcher.start(self)  # again after a rebuild
        future = dispatcher.submit(
            slice_, self._fault_directive(round_idx, phase, slice_.slot)
        )
        futures.append(future)
        return slice_, future, dispatcher, self._generation

    def _settle(self, phase, round_idx, entry, futures: list[Future]) -> list:
        """One slice's rows, surviving crashes, dead pools and stragglers."""
        slice_, future, dispatcher, generation = entry
        attempts = 0
        while True:
            try:
                rows, trace = future.result(timeout=self.task_deadline_s)
            except FuturesTimeout:
                # The straggler's future stays in the handle: store holds
                # outlive it, and its eventual error is counted.
                self._note(
                    "straggler_reassignments", round_idx=round_idx,
                    phase=phase, slot=slice_.slot,
                )
                return self._replay(slice_)
            except _LOST as error:
                futures.remove(future)
                attempts += 1
                self._note("retries", round_idx=round_idx, phase=phase,
                           slot=slice_.slot)
                if not isinstance(error, InjectedWorkerCrash):
                    self._recover(generation, round_idx)
                if attempts > DEFAULT_TASK_RETRIES or self._dispatcher is not dispatcher:
                    return self._replay(slice_)
                _, future, dispatcher, generation = self._submit(
                    phase, round_idx, slice_, futures
                )
                continue
            self._tracer.merge_worker(trace)
            return rows

    def _replay(self, slice_: _Slice) -> list:
        """Run a slice's body on the parent's live objects, fault-free."""
        body, *args = slice_.local
        with self._tracer.span("recover.local_replay", cat="worker"):
            return body(*args)

    def _recover(self, generation: int, round_idx: int) -> None:
        """Tear down a dead pool once per breakage; past the rebuild
        budget, swap in the next dispatcher down the ladder."""
        if generation != self._generation:
            return  # an earlier observer of this breakage handled it
        self._generation += 1
        self._dispatcher.close(self, cancel=True)
        self._note("pool_rebuilds", round_idx=round_idx)
        # The dead workers' futures are done: deferred holds may drop.
        self._abandoned = [p for p in self._abandoned if not p.reap()]
        if self.resilience.pool_rebuilds > DEFAULT_POOL_REBUILDS:
            self._dispatcher = self._dispatcher.below(self.workers)
            self._note("engine_demotions", round_idx=round_idx,
                       to=self._dispatcher.kind)

    def _note(self, name: str, round_idx: int | None = None, n: int = 1,
              **attrs) -> None:
        """Record ``n`` recovery incidents (ledger + traced mirror)."""
        self.resilience.inc(name, n)
        if self._tracer.enabled:
            self._tracer.metrics.counter(f"resilience.{name}").inc(n)
            self._tracer.event(
                f"resilience.{name}", cat="resilience", round_idx=round_idx,
                **attrs,
            )

    def _fault_directive(self, round_idx: int, phase: str, slot: int):
        """Consume this dispatch slot's next planned crash or delay."""
        if not self.fault_plan:
            return None
        if self.fault_plan.take("crash", round_idx, phase, slot) is not None:
            return ("crash", 0.0)
        delay = self.fault_plan.take("delay", round_idx, phase, slot)
        return None if delay is None else ("delay", delay.param)

    def _dropped_votes(self, round_idx: int, validator_ids: Sequence[int]):
        """Requested validators whose votes this round loses."""
        if not self.fault_plan:
            return frozenset()
        dropped = self.fault_plan.dropped(round_idx) & set(validator_ids)
        for vid in sorted(dropped):
            if (round_idx, vid) not in self._counted_drops:
                self._counted_drops.add((round_idx, vid))
                self._note("dropped_votes", round_idx=round_idx, validator=vid)
        return dropped

    def _count_abandoned_error(self, error: BaseException) -> None:
        """A written-off task died after abandonment: count + log it."""
        self._note("abandoned_task_errors", error=repr(error)[:200])


class SequentialExecutor(RoundExecutor):
    """In-process execution in deterministic order (the default).

    The inline dispatcher never crosses a process boundary, but a store
    bound here is still exposed through :attr:`store`, so
    :class:`~repro.fl.simulation.FederatedSimulation` adopts it for the
    defense history.  ``cohort_size >= 2`` stacks cohortable honest
    clients into chunks of at most that many models (bit-identical
    updates); the default keeps the classic per-model loop.
    """

    def __init__(self, cohort_size: int | None = None) -> None:
        super().__init__(1, cohort_size, _InlineDispatcher)

    # Declared on the class so per-engine instrumentation can wrap them.
    run_clients = RoundExecutor.run_clients
    run_validators = RoundExecutor.run_validators


class ThreadPoolRoundExecutor(RoundExecutor):
    """Fan rounds out over ``workers`` in-process threads: zero IPC.

    One task per cohort chunk, per-model client and validator; models and
    live objects are shared by reference, so :attr:`transport_bytes` stays
    zero.  The whole eligible fan-out stacks into one chunk by default:
    the stacked kernels already multithread inside BLAS.
    """

    def __init__(self, workers: int, cohort_size: int | None = None) -> None:
        super().__init__(workers, cohort_size, _ThreadDispatcher)

    # Declared on the class so per-engine instrumentation can wrap them.
    run_clients = RoundExecutor.run_clients
    run_validators = RoundExecutor.run_validators


class ProcessPoolRoundExecutor(RoundExecutor):
    """Fan rounds out over ``workers`` processes, one task per worker per
    phase.  ``cohort_size=None`` stacks the whole eligible fan-out, spread
    evenly over the workers; ``0``/``1`` disables stacking."""

    _reads_arena = True

    def __init__(self, workers: int, cohort_size: int | None = None) -> None:
        super().__init__(workers, cohort_size, _ProcessDispatcher)


def make_executor(
    workers: int,
    store: ModelStore | None = None,
    mode: str = "sync",
    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    cohort_size: int | None = None,
    engine: str = "auto",
    faults: "FaultPlan | str | None" = None,
    task_deadline_s: float | None = None,
) -> RoundExecutor:
    """Executor for a worker count: 0/1 -> sequential, N>=2 -> worker pool.

    ``engine`` picks the multi-worker dispatcher (:data:`ENGINE_KINDS`).
    ``store`` binds the configured model store at construction, so a pool
    can never silently fall back to pipe transport because a caller forgot
    to connect the two.  ``mode="pipelined"`` sets ``pipeline_depth``.
    ``cohort_size`` controls stacked cohort training (:mod:`repro.fl.cohort`):
    ``None`` keeps each executor's default, ``>= 2`` forces that chunk size,
    ``0``/``1`` disables stacking.  ``faults`` and ``task_deadline_s`` arm
    the resilience layer (:meth:`RoundExecutor.bind_faults`).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if mode not in EXECUTION_MODES:
        raise ValueError(f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
    if engine not in ENGINE_KINDS:
        raise ValueError(f"engine must be one of {ENGINE_KINDS}, got {engine!r}")
    if mode == "pipelined" and pipeline_depth < 0:
        raise ValueError(f"pipeline_depth must be >= 0, got {pipeline_depth}")
    executor: RoundExecutor
    if workers <= 1:
        executor = SequentialExecutor(cohort_size=cohort_size)
    elif engine == "thread":
        executor = ThreadPoolRoundExecutor(workers, cohort_size=cohort_size)
    else:
        executor = ProcessPoolRoundExecutor(workers, cohort_size=cohort_size)
    if mode == "pipelined":
        executor.pipeline_depth = pipeline_depth
    if store is not None:
        executor.bind(store=store)
    executor.bind_faults(plan=faults, task_deadline_s=task_deadline_s)
    return executor


class RoundEngine:
    """A matched (executor, store) pair from :func:`make_engine`.

    Context manager closing both in the safe order — executor first (its
    shutdown waits for in-flight tasks and drains the deferred-release
    list), store second (unlinking any remaining segments).
    """

    def __init__(self, executor: RoundExecutor, store: ModelStore) -> None:
        self.executor = executor
        self.store = store

    @property
    def codec(self):
        """The store's transport codec (:mod:`repro.fl.compression`)."""
        return self.store.codec

    def __enter__(self) -> "RoundEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.executor.close()
        finally:
            self.store.close()


def make_engine(
    workers: int,
    store: str = "auto",
    mode: str = "sync",
    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    codec: str | None = None,
    require_lossless: bool = True,
    cohort_size: int | None = None,
    engine: str = "auto",
    faults: "FaultPlan | str | None" = None,
    task_deadline_s: float | None = None,
) -> RoundEngine:
    """The one factory for a round-execution engine.

    Builds the executor (:func:`make_executor`, which validates every
    execution argument) and the model store for the worker count
    (``store`` is a :data:`~repro.fl.model_store.STORE_KINDS` name), and
    binds the two, so the transport path is decided here, in one place.
    The thread engine shares the caller's address space, so
    ``store="auto"`` resolves to the in-process store for it — a
    shared-memory arena would only add copies.

    ``codec`` selects the store's weight-compression codec
    (:mod:`repro.fl.compression`; name or instance, default identity);
    with ``require_lossless=True`` (the default) lossy codecs are rejected
    here — the bit-identical equivalence matrix only holds for lossless
    codecs, so admitting a lossy one is an explicit opt-out.
    """
    executor = make_executor(
        workers,
        mode=mode,
        pipeline_depth=pipeline_depth,
        cohort_size=cohort_size,
        engine=engine,
        faults=faults,
        task_deadline_s=task_deadline_s,
    )
    if store == "auto" and engine == "thread":
        store = "inprocess"
    model_store = make_model_store(
        workers, store, codec=codec, require_lossless=require_lossless
    )
    executor.bind(store=model_store)
    return RoundEngine(executor, model_store)
