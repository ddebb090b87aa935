"""The round-execution engine: one executor over two dispatchers.

Every BaFFLe round fans out twice: the selected clients' local training
(``produce_update``), then the validators' votes.  Both dominate the
round's cost — BackFed (Dao et al., 2025) names sequential client
execution *the* bottleneck of FL-backdoor benchmarking.  One
:class:`RoundExecutor` owns both fan-outs and writes each step once:

- **Round plan.**  Requested entities split into *pooled* ones
  (``parallel_safe = True``), which run as slices, and parent-side ones,
  which run in the calling thread (e.g. the adaptive attacker, which reads
  the live defense history).  Pooled cohortable clients are grouped into
  stacked chunks (:func:`~repro.fl.cohort.plan_cohorts`).  Each chunk,
  per-model client and validator is one slice; it carries the keyed
  :class:`~repro.fl.rng.RngStreams` seed sequences of its entities, so
  running it anywhere, any number of times, returns the same rows.
- **Dispatch.**  Slices are submitted first; parent-side entities then run
  while the slices execute; results are gathered in request order,
  whatever the completion order.
- **Recovery.**  A crashed slice is re-dispatched from its pristine seeds
  (retry-by-replay).  A slice past ``task_deadline_s`` is written off as a
  straggler and replayed on the calling thread.  A broken pool is rebuilt;
  once ``DEFAULT_POOL_REBUILDS`` is spent the executor swaps in the inline
  dispatcher for the rest of the run, and the slices of the failing phase
  replay on the calling thread.  A slice that fails more than
  ``DEFAULT_TASK_RETRIES`` times also replays there.  Every incident lands
  in one :class:`~repro.fl.faults.ResilienceStats` ledger.

The two dispatchers run one slice per unit, in dispatch order (which is
what a fault plan's slot index counts, see :mod:`repro.fl.faults`), and
differ only in where it runs: the *inline* dispatcher on the calling
thread at submit, the *thread* dispatcher on pool threads.  Every round
runs in the caller's address space; independent seeds are what fans out
over processes (``seed_workers``, :mod:`repro.experiments.runner`).

Every engine stacks the whole eligible fan-out by default
(``cohort_size=None``); ``cohort_size=1`` selects the per-model loop.
Threads share the live clients and validators (NumPy releases the GIL
inside its kernels); a per-validator lock serializes a written-off
straggler's vote with its replay, which uses the same validator object.

BLAS threads
------------
The round loop fans out inside
:meth:`~repro.fl.simulation.FederatedSimulation.run_round`, which holds
numpy's OpenBLAS at one thread for the whole round (:mod:`repro.nn.blas`).
The count is process-wide, so that covers the pool threads, the
parent-side entities and the server's own vote.  An executor driven
outside a round runs at its caller's count.

Stragglers
----------
Each phase runs behind a :class:`PendingVotes` handle.  A straggler
written off past ``task_deadline_s`` keeps running after its phase
returned, so a handle with a task still running moves to a
deferred-release list, reaped at the next fan-out and drained on
:meth:`RoundExecutor.close`; the errors of its written-off tasks are
counted then.

Because every slice draws from keyed streams, every engine commits
**bit-identical** models and round records for the same seed and policy.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections.abc import Sequence
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import wait as _wait_futures
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.cohort import cohort_updates, plan_cohorts
from repro.fl.faults import (
    DEFAULT_POOL_REBUILDS,
    DEFAULT_TASK_RETRIES,
    FaultPlan,
    InjectedWorkerCrash,
    ResilienceStats,
)
from repro.fl.rng import RngStreams
from repro.nn.network import Network
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard: this module is
    # imported by repro.fl.simulation, which repro.core.baffle imports, so
    # importing repro.core here at runtime would close a circle.
    from repro.core.baffle import ValidatorPool
    from repro.core.validation import ValidationContext


#: Failures the recovery loop absorbs: an injected task crash, and a pool
#: that refused work (its pending futures break or cancel).
_LOST = (InjectedWorkerCrash, BrokenExecutor, CancelledError)


def _is_parallel_safe(obj: object) -> bool:
    """Whether an entity may run off the calling thread (opt-in attribute)."""
    return bool(getattr(obj, "parallel_safe", False))


# ----------------------------------------------------------------------
# Slice bodies: what every dispatcher, and every replay, runs
# ----------------------------------------------------------------------
def _train_body(span, clients, model, config, round_idx, ids, seqs):
    """Train one slice: a stacked cohort chunk or one per-model client.

    ``clients`` maps ids to client objects and ``seqs`` are the keyed seed
    sequences of ``ids``.  Returns ``[(client_id, update), ...]``.
    """
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
    return list(zip(ids, updates))


def _vote_body(span, validator, context, round_idx, vid, seq, lock):
    """One validator's vote under its lock: ``[(validator_id, vote)]``."""
    with lock, span("validate.vote", round_idx=round_idx, validator=vid):
        return [(vid, validator.vote(context, np.random.default_rng(seq)))]


def _apply_fault(directive: tuple[str, float] | None) -> None:
    """Execute one injected-fault directive at task start.

    ``("delay", s)`` sleeps (a straggler); ``("crash", _)`` raises
    :class:`InjectedWorkerCrash`.  Directives fire before any slice work
    and before any seed is used, which is what makes replay bit-identical.
    """
    if directive is None:
        return
    kind, param = directive
    if kind == "delay":
        time.sleep(param)
    elif kind == "crash":
        raise InjectedWorkerCrash("planned task crash (fault plan)")


def _task(fault, body, *args):
    """One slice task: its fault directive, then its body."""
    _apply_fault(fault)
    return body(*args)


# ----------------------------------------------------------------------
# Dispatchers: run slices, report each as a future
# ----------------------------------------------------------------------
class _Slice(NamedTuple):
    """One dispatch slot of a round phase."""

    slot: int
    #: ``(body, *args)``: the slice on the live objects.
    call: tuple


def _failed(error: BaseException) -> Future:
    future: Future = Future()
    future.set_exception(error)
    return future


class _InlineDispatcher:
    """Runs each slice on the calling thread, at submit, in slot order."""

    kind = "inline"

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def start(self) -> None:
        pass

    def submit(self, slice_: _Slice, fault) -> Future:
        future: Future = Future()
        try:
            future.set_result(_task(fault, *slice_.call))
        except Exception as error:  # classified by the settle loop, like a pool's
            future.set_exception(error)
        return future

    def close(self, cancel: bool = False) -> None:
        pass


class _ThreadDispatcher(_InlineDispatcher):
    """Runs each slice on a pool thread; a pool refusing work is broken."""

    kind = "thread"
    below = _InlineDispatcher

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._pool = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-round"
            )

    def submit(self, slice_: _Slice, fault) -> Future:
        try:
            return self._pool.submit(_task, fault, *slice_.call)
        except RuntimeError as error:  # shut down / interpreter teardown
            return _failed(BrokenExecutor(f"thread pool refused work: {error}"))

    def close(self, cancel: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not cancel, cancel_futures=cancel)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class PendingVotes:
    """Handle for one phase's in-flight slices (a round's votes, usually).

    ``collect()`` blocks until every result is in and returns it (for
    votes, ``{validator_id: vote}``).  A straggler written off past the
    deadline keeps running after ``collect()`` returned, so until it
    finishes the handle waits on the executor's deferred-release list, and
    the errors of its written-off tasks are counted
    (``abandoned_task_errors``) when it is finally released.
    """

    def __init__(self, gather, futures, on_defer, on_error) -> None:
        self._gather = gather
        #: Every future submitted for this phase that may still run; the
        #: executor appends retries and drops futures it saw fail.
        self._futures = futures
        self._on_defer = on_defer
        self._on_error = on_error
        self._votes = None
        self._deferred = False
        self._released = False

    def done(self) -> bool:
        """Whether no task of this handle is still executing."""
        return all(future.done() for future in self._futures)

    def collect(self):
        """The phase's result (blocks; idempotent)."""
        if self._votes is None:
            try:
                self._votes = self._gather()
            finally:
                self._release()
        return self._votes

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
        if self._deferred:
            for future in self._futures:
                if not future.cancelled() and future.exception() is not None:
                    self._on_error(future.exception())


class RoundExecutor:
    """One round executor over a dispatcher (see the module docstring).

    ``run_clients`` and ``run_validators`` execute one round phase and
    return results in request order.  ``bind`` attaches a tracer;
    ``bind_faults`` arms the resilience layer: a
    :class:`~repro.fl.faults.FaultPlan` to replay failures from and a
    per-task straggler deadline; :attr:`resilience` records what recovery
    did.  The executor is a context manager that closes its pool.
    """

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
        #: Injected-failure schedule (empty = fault-free).
        self.fault_plan: FaultPlan = FaultPlan.empty()
        #: Per-task deadline in seconds (``None`` = wait forever); a task
        #: exceeding it is written off as a straggler and replayed.
        self.task_deadline_s: float | None = None
        #: Recovery-incident ledger: one per run, whatever the dispatcher.
        self.resilience = ResilienceStats()
        self._dispatcher = dispatcher(workers)
        #: Bumped on every teardown, so the futures of one breakage
        #: trigger exactly one rebuild.
        self._generation = 0
        self._tracer: Tracer | NullTracer = NULL_TRACER
        #: Deferred-release list: handles whose tasks still run.
        self._abandoned: list[PendingVotes] = []
        self._vote_locks: dict[int, threading.Lock] = {}
        self._warned = False

    def bind(self, tracer: "Tracer | NullTracer") -> None:
        """Record slice spans on ``tracer`` (pure instrumentation,
        rebindable)."""
        self._tracer = tracer

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
        self._begin()
        probe = getattr(clients, "is_parallel_safe", None)  # registry metadata
        pooled = [
            cid for cid in contributor_ids
            if (probe(cid) if callable(probe) else _is_parallel_safe(clients[cid]))
        ]
        size = len(pooled) if self.cohort_size is None else self.cohort_size
        chunks = plan_cohorts(clients, pooled, global_model, size)
        cohorted = {cid for chunk in chunks for cid in chunk}
        units = chunks + [[cid] for cid in pooled if cid not in cohorted]
        # Resolved on the calling thread: a registry materializes its
        # clients race-free before any pool thread runs.
        population = {cid: clients[cid] for cid in pooled}
        tasks = [
            _Slice(slot, (
                _train_body, self._span, population, global_model, config,
                round_idx, ids, [streams.client_seq(round_idx, cid) for cid in ids],
            ))
            for slot, ids in enumerate(units)
        ]
        pooled_set = set(pooled)

        def parent() -> dict:
            return {
                cid: clients[cid].produce_update(
                    global_model, config, round_idx,
                    streams.client_rng(round_idx, cid),
                )
                for cid in contributor_ids if cid not in pooled_set
            }

        def finish(results: dict, rows: list) -> list[np.ndarray]:
            results.update(rows)
            return [results[cid] for cid in contributor_ids]

        return self._launch("train", round_idx, tasks, parent, finish).collect()

    def run_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> dict[int, int]:
        """Collect votes ``{validator_id: vote}`` for the given context,
        one per requested validator whose vote was not dropped."""
        self._begin()
        dropped = self._dropped_votes(round_idx, validator_ids)
        voters = [vid for vid in validator_ids if vid not in dropped]
        pooled = [vid for vid in voters if _is_parallel_safe(pool.get(vid))]
        tasks = [
            _Slice(slot, (
                _vote_body, self._span, pool.get(vid), context, round_idx, vid,
                streams.validator_seq(round_idx, vid),
                self._vote_locks.setdefault(vid, threading.Lock()),
            ))
            for slot, vid in enumerate(pooled)
        ]
        pooled_set = set(pooled)

        def parent() -> dict:
            return {
                vid: pool.get(vid).vote(context, streams.validator_rng(round_idx, vid))
                for vid in voters if vid not in pooled_set
            }

        def finish(votes: dict, rows: list) -> dict[int, int]:
            votes.update(rows)
            return {vid: votes[vid] for vid in voters}

        return self._launch("validate", round_idx, tasks, parent, finish).collect()

    def close(self) -> None:
        """Release executor resources (idempotent).

        Warns once (``RuntimeWarning``) about crash/delay entries of the
        fault plan whose dispatch slot never existed in the run.
        """
        self._dispatcher.close()
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
    def _begin(self) -> None:
        """Start a fan-out: reap finished deferred handles, start the pool."""
        self._abandoned = [p for p in self._abandoned if not p.reap()]
        self._dispatcher.start()

    def _span(self, name: str, round_idx: int | None = None, **attrs):
        """A worker span on the executor's tracer."""
        return self._tracer.span(name, cat="worker", round_idx=round_idx, **attrs)

    def _launch(self, phase, round_idx, tasks, parent, finish) -> PendingVotes:
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

        return PendingVotes(
            gather, futures, self._abandoned.append, self._count_abandoned_error
        )

    def _submit(self, phase, round_idx, slice_: _Slice, futures: list[Future]):
        """Dispatch one slice; every dispatch consumes the slot's next
        planned crash or delay."""
        dispatcher = self._dispatcher
        dispatcher.start()  # again after a rebuild
        future = dispatcher.submit(
            slice_, self._fault_directive(round_idx, phase, slice_.slot)
        )
        futures.append(future)
        return slice_, future, dispatcher, self._generation

    def _settle(self, phase, round_idx, entry, futures: list[Future]) -> list:
        """One slice's rows, surviving crashes, broken pools and stragglers."""
        slice_, future, dispatcher, generation = entry
        attempts = 0
        while True:
            try:
                return future.result(timeout=self.task_deadline_s)
            except FuturesTimeout:
                # The straggler's future stays in the handle: its eventual
                # error is counted when the handle is released.
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

    def _replay(self, slice_: _Slice) -> list:
        """Run a slice's body on the calling thread, fault-free."""
        body, *args = slice_.call
        with self._tracer.span("recover.local_replay", cat="worker"):
            return body(*args)

    def _recover(self, generation: int, round_idx: int) -> None:
        """Tear down a broken pool once per breakage; past the rebuild
        budget, swap in the inline dispatcher."""
        if generation != self._generation:
            return  # an earlier observer of this breakage handled it
        self._generation += 1
        self._dispatcher.close(cancel=True)
        self._note("pool_rebuilds", round_idx=round_idx)
        # The broken pool's futures are done: deferred handles may go.
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
            self._note("dropped_votes", round_idx=round_idx, validator=vid)
        return dropped

    def _count_abandoned_error(self, error: BaseException) -> None:
        """A written-off task died after its phase returned: count + log it."""
        self._note("abandoned_task_errors", error=repr(error)[:200])


class SequentialExecutor(RoundExecutor):
    """In-process execution in deterministic order (the default).

    The round's cohortable honest clients train as one stack by default;
    ``cohort_size >= 2`` caps the chunk size and ``cohort_size=1`` keeps
    the per-model loop (bit-identical updates either way).
    """

    def __init__(self, cohort_size: int | None = None) -> None:
        super().__init__(1, cohort_size, _InlineDispatcher)

    # Declared on the class so per-engine instrumentation can wrap them.
    run_clients = RoundExecutor.run_clients
    run_validators = RoundExecutor.run_validators


class ThreadPoolRoundExecutor(RoundExecutor):
    """Fan rounds out over ``workers`` in-process threads.

    One task per cohort chunk, per-model client and validator; models and
    live objects are shared by reference.  The whole eligible fan-out
    stacks into one chunk by default.  A training stack's GEMMs (``(10,
    32, 192) @ (10, 192, 64)`` on the paper protocol) are too small for
    OpenBLAS to split; the round runs every GEMM at one BLAS thread
    (module docstring), so concurrent votes never start OpenBLAS's helper
    threads on top of the pool's.
    """

    def __init__(self, workers: int, cohort_size: int | None = None) -> None:
        super().__init__(workers, cohort_size, _ThreadDispatcher)

    # Declared on the class so per-engine instrumentation can wrap them.
    run_clients = RoundExecutor.run_clients
    run_validators = RoundExecutor.run_validators


def make_executor(
    workers: int,
    cohort_size: int | None = None,
    faults: "FaultPlan | str | None" = None,
    task_deadline_s: float | None = None,
) -> RoundExecutor:
    """Executor for a worker count: 0/1 -> sequential, N>=2 -> thread pool.

    ``cohort_size`` controls stacked cohort training
    (:mod:`repro.fl.cohort`): ``None`` stacks the whole eligible fan-out,
    ``>= 2`` caps the chunk size, ``0``/``1`` disables stacking.
    ``faults`` and ``task_deadline_s`` arm the resilience layer
    (:meth:`RoundExecutor.bind_faults`).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    executor: RoundExecutor
    if workers <= 1:
        executor = SequentialExecutor(cohort_size=cohort_size)
    else:
        executor = ThreadPoolRoundExecutor(workers, cohort_size=cohort_size)
    executor.bind_faults(plan=faults, task_deadline_s=task_deadline_s)
    return executor
