"""Deterministic fault injection for the round-execution engine.

BaFFLe's deployment model has feedback arriving from *remote client
validators* — machines that crash, stall, and drop offline — so the
executors (:mod:`repro.fl.parallel`) carry a resilience layer: per-task
deadlines, broken-pool detection with pool rebuild, retry by replay, and
graceful engine degradation.  This module supplies the two
things that layer needs to be *testable*: a replayable fault plan and a
ledger of what the recovery machinery actually did.

Fault-spec grammar
------------------
A plan is a ``,``/``;``-separated list of entries::

    kind@round.phase[.index][=param]

========  ============================================================
kind      meaning
========  ============================================================
crash     kill the slice at slot ``index`` when it starts
delay     sleep ``param`` seconds at slice start (a straggler; combined
          with a task deadline this forces a replay on the parent)
drop      the named validator's vote never arrives (phase must be
          ``vote``, ``index`` is the validator id)
========  ============================================================

``phase`` is ``train`` or ``validate`` for crash/delay and ``vote`` for
drop.  Examples::

    crash@3.train            # kill round 3's first training slice
    delay@4.validate.1=0.3   # second validation slice straggles 300 ms
    drop@5.vote.7            # validator 7's round-5 vote is lost

Dispatch slots
--------------
A crash/delay ``index`` names a *dispatch slot*: the position of a slice
in its phase's dispatch order (omitted = slot 0).  Both dispatchers of
:mod:`repro.fl.parallel` (inline and thread) run one slice per unit.
Training units are the phase's stacked cohort chunks, then its per-model
clients in contributor order; validation units are the validators in
request order.

Only ``parallel_safe`` entities are dispatched: parent-side clients and
validators, and dropped votes, occupy no slot.  A crash raises
:class:`InjectedWorkerCrash` in the slice's task.  An entry whose slot
never exists in a run is reported by :meth:`FaultPlan.unfired` and in a
``RuntimeWarning`` when the executor closes.

Crash and delay entries are consumed **one-shot** at dispatch time: each
dispatch of a slot takes that slot's next matching entry, so ``n`` equal
entries fail the slot ``n`` times in a row, and the replay that recovers
from the last one is clean.  Per-``(round, entity)`` RNG streams make every
replay bit-identical.  Drop entries are **pure** functions of the
round (:meth:`FaultPlan.dropped`): a re-collected quorum sees the same
loss, so fault placement never depends on execution order.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass

#: Fault kinds accepted by :meth:`FaultPlan.parse`.
FAULT_KINDS = ("crash", "delay", "drop")

#: Dispatch phases a crash/delay entry may target.
TASK_PHASES = ("train", "validate")

#: Quorum policies for rounds whose votes go missing (config validation
#: set and the CLI ``--quorum-policy`` choices): ``strict`` stalls the
#: round (raises :class:`QuorumStallError`), ``degrade`` recomputes the
#: accept/reject decision over the reduced quorum once ``quorum_min``
#: votes arrived.
QUORUM_POLICIES = ("strict", "degrade")

#: How many times a failed slice is re-dispatched before it replays on
#: the parent instead.
DEFAULT_TASK_RETRIES = 2

#: How many broken pools a run absorbs (rebuilding each time) before the
#: executor swaps in the inline dispatcher.
DEFAULT_POOL_REBUILDS = 2


class InjectedWorkerCrash(RuntimeError):
    """A planned task death (fault plan ``crash`` entry)."""


class QuorumStallError(RuntimeError):
    """A round's validator quorum cannot be decided.

    Raised under the ``strict`` quorum policy whenever a requested vote
    went missing, and under ``degrade`` when fewer than ``quorum_min``
    votes arrived.
    """


_ENTRY_RE = re.compile(
    r"""^(?P<kind>[a-z]+)
        @(?P<round>\d+)
        \.(?P<phase>[a-z]+)
        (?:\.(?P<index>\d+))?
        (?:=(?P<param>[0-9.]+))?$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault-plan entry."""

    kind: str
    round_idx: int
    phase: str
    #: Dispatch slot (crash/delay; ``None`` = slot 0) or validator id
    #: (drop).
    index: int | None = None
    #: Delay seconds (``delay`` only).
    param: float = 0.0

    def __str__(self) -> str:
        text = f"{self.kind}@{self.round_idx}.{self.phase}"
        if self.index is not None:
            text += f".{self.index}"
        if self.kind == "delay":
            text += f"={self.param:g}"
        return text


class FaultPlan:
    """A deterministic, replayable schedule of injected failures.

    Crash/delay entries are handed out one-shot by :meth:`take` (the
    recovery path must not re-trip the fault it recovers from); drop
    entries are answered statelessly by :meth:`dropped` so replays and
    re-collections observe the identical loss.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] = ()) -> None:
        self.specs = tuple(specs)
        self._consumed: set[int] = set()
        # take() may be called from pool threads (the thread engine's
        # submit path); consumption must not double-fire a fault.
        self._lock = threading.Lock()

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def parse(cls, spec: "str | FaultPlan | None") -> "FaultPlan":
        """Parse a fault-spec string (see the module grammar).

        ``None``/empty parses to the empty plan; an existing plan passes
        through unchanged (idempotent config plumbing).
        """
        if spec is None:
            return cls.empty()
        if isinstance(spec, FaultPlan):
            return spec
        entries: list[FaultSpec] = []
        for raw in re.split(r"[,;]", spec):
            raw = raw.strip()
            if not raw:
                continue
            match = _ENTRY_RE.match(raw)
            if match is None:
                raise ValueError(
                    f"bad fault entry {raw!r}; expected "
                    "kind@round.phase[.index][=param], e.g. 'crash@3.train', "
                    "'delay@4.validate.1=0.3', 'drop@5.vote.7'"
                )
            kind = match.group("kind")
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in {raw!r}; "
                    f"known: {FAULT_KINDS}"
                )
            phase = match.group("phase")
            index = match.group("index")
            param = match.group("param")
            if kind == "drop":
                if phase != "vote":
                    raise ValueError(
                        f"drop faults target votes: write 'drop@R.vote.V', "
                        f"got {raw!r}"
                    )
                if index is None:
                    raise ValueError(
                        f"drop fault {raw!r} needs a validator id: "
                        "'drop@R.vote.V'"
                    )
            elif phase not in TASK_PHASES:
                raise ValueError(
                    f"{kind} faults target a task phase {TASK_PHASES}, "
                    f"got {phase!r} in {raw!r}"
                )
            if param is not None and kind != "delay":
                raise ValueError(
                    f"only delay faults take a =param, got {raw!r}"
                )
            entries.append(FaultSpec(
                kind=kind,
                round_idx=int(match.group("round")),
                phase=phase,
                index=None if index is None else int(index),
                param=float(param) if param is not None else 0.0,
            ))
        return cls(tuple(entries))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __str__(self) -> str:
        return ";".join(str(spec) for spec in self.specs)

    def take(
        self, kind: str, round_idx: int, phase: str, index: int
    ) -> FaultSpec | None:
        """Consume the matching crash/delay entry for one dispatch slot.

        An entry without an index matches the phase's slot 0.  Each entry
        fires at most once; a re-dispatch of the slot takes its next
        matching entry, if any.
        """
        with self._lock:
            for position, spec in enumerate(self.specs):
                if position in self._consumed:
                    continue
                if spec.kind != kind or spec.round_idx != round_idx:
                    continue
                if spec.phase != phase:
                    continue
                if (spec.index if spec.index is not None else 0) != index:
                    continue
                self._consumed.add(position)
                return spec
        return None

    def unfired(self) -> tuple[FaultSpec, ...]:
        """Crash/delay entries no dispatch has consumed (drops never are)."""
        with self._lock:
            return tuple(
                spec for position, spec in enumerate(self.specs)
                if spec.kind != "drop" and position not in self._consumed
            )

    def dropped(self, round_idx: int) -> frozenset[int]:
        """Validator ids whose round-``round_idx`` votes are lost.

        Pure (never consumes): every collection of the round's votes
        observes the identical loss, keeping the plan order-independent.
        """
        return frozenset(
            spec.index
            for spec in self.specs
            if spec.kind == "drop" and spec.round_idx == round_idx
            and spec.index is not None
        )


class ResilienceStats:
    """Ledger of what the executors' recovery machinery did.

    Plain integer counters (thread-safe via one lock — the thread engine
    notes incidents from pool threads) so untraced runs still surface
    retries in their round records; traced runs mirror each increment
    into the tracer's :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    FIELDS = (
        "retries",
        "pool_rebuilds",
        "straggler_reassignments",
        "dropped_votes",
        "quorum_degradations",
        "engine_demotions",
        "abandoned_task_errors",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def inc(self, name: str, n: int = 1) -> int:
        """Add ``n`` to a counter; returns the new value."""
        if name not in self.FIELDS:
            raise KeyError(f"unknown resilience counter {name!r}")
        with self._lock:
            value = getattr(self, name) + n
            setattr(self, name, value)
        return value

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}

    def total(self) -> int:
        """Sum of every counter (0 = the run never hit the recovery path)."""
        return sum(self.as_dict().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ResilienceStats({inner})"


__all__ = [
    "DEFAULT_POOL_REBUILDS",
    "DEFAULT_TASK_RETRIES",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedWorkerCrash",
    "QUORUM_POLICIES",
    "QuorumStallError",
    "ResilienceStats",
    "TASK_PHASES",
]
