"""Traced run: spans around each layer's public entry points.

The wrappers live here, in the benchmark, and are patched in where each
caller looks the name up (a class attribute, or the module global the
calling module imported), so nothing under ``src/`` changes.  Spans are
kept in memory, parent-linked, and written to ``perfbench/out/`` when the
run ends; a layer's self time is its span's duration minus the part of it
its child spans cover.

Worker-thread spans of the thread engine have no parent in their own
thread; they are linked to the executor call that dispatched them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import threading
import time
from collections import defaultdict

#: Span names that mark where a span ran: set-up or a traced scenario.
REGIONS = ("build_environment", "scenario")
#: Span names whose descendants are attributed to one training path.
TRAINING = ("local_train", "cohort_updates")


class SpanRecorder:
    """Parent-linked spans: ``[name, parent, start, end, attrs]`` by id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Open executor dispatch spans (``run_clients``/``run_validators``);
        #: the parent of a span opened on a pool thread with nothing open.
        self._dispatch: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, dispatch: bool) -> tuple[list, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._dispatch[-1]
            except IndexError:
                parent = -1
        record = [name, parent, 0.0, 0.0, None]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        stack.append(sid)
        if dispatch:
            self._dispatch.append(sid)
        record[2] = time.perf_counter()
        return record, stack

    def _close(self, record: list, stack: list[int], dispatch: bool) -> None:
        record[3] = time.perf_counter()
        stack.pop()
        if dispatch:
            self._dispatch.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record, stack = self._open(name, False)
        try:
            yield record
        finally:
            self._close(record, stack, False)

    def wrap(self, name, fn, before=None, after=None, dispatch=False):
        """``fn`` inside a span; ``before(args)`` / ``after(args, result,
        state)`` fill the span's attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            record, stack = self._open(name, dispatch)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, stack, dispatch)
            record[4] = after(args, result, state) if after is not None else state
            return result

        return wrapper

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        columns = {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "start": [s[2] for s in self.spans],
            "end": [s[3] for s in self.spans],
            "attrs": [s[4] for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(columns, fh)


# ----------------------------------------------------------------------
# Patch plan
# ----------------------------------------------------------------------
def _store_before(args):
    return args[0].bytes_published


def _store_after(args, result, before):
    store = args[0]
    return (store.bytes_published - before, len(store.versions()))


def _explain_before(args):
    validator, context = args[0], args[1]
    versions = [version for version, _ in context.history]
    if len(versions) < validator.min_history:
        return (0, 0)  # abstains without profiling
    return (len(versions), len(validator.cached_profiles(versions)))


def patch_plan(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every traced entry point."""
    from repro.attacks import model_replacement
    from repro.core import baffle, validation
    from repro.experiments import environment, scenarios
    from repro.fl import aggregation, client, model_store, parallel, selection, simulation
    from repro.nn import network, optim, stacked

    def entry(owner, attr, name=None, **hooks):
        return (owner, attr, rec.wrap(name or attr, getattr(owner, attr), **hooks))

    def retries_before(args):
        return args[0].resilience.total()

    def retries_after(args, result, before):
        return args[0].resilience.total() - before

    plan = [
        entry(environment, "build_environment"),
        entry(scenarios, "build_environment"),
        entry(simulation.FederatedSimulation, "run_round"),
        entry(selection.ScheduledSelector, "select"),
        entry(aggregation.FedAvgAggregator, "aggregate"),
        entry(simulation, "apply_global_update"),
        entry(baffle.BaffleDefense, "review", after=lambda a, r, s: (
            a[2] >= a[0].config.start_round, r.num_validators)),
        entry(baffle.BaffleDefense, "record_outcome"),
        entry(validation.MisclassificationValidator, "explain",
              before=_explain_before),
        entry(validation, "local_outlier_factor"),
        entry(validation, "stacked_error_profiles",
              before=lambda a: len(a[0])),
        entry(validation, "model_error_profile"),
        entry(client, "local_train"),
        entry(model_replacement, "local_train"),
        entry(network.Network, "forward", "Network.forward"),
        entry(network.Network, "backward", "Network.backward"),
        entry(optim.SGD, "step", "SGD.step"),
        entry(parallel, "cohort_updates", before=lambda a: len(a[1])),
        entry(stacked.StackedNetwork, "forward", "StackedNetwork.forward"),
        entry(stacked.StackedNetwork, "backward", "StackedNetwork.backward"),
        entry(stacked.StackedSGD, "step", "StackedSGD.step"),
    ]
    for executor in (parallel.SequentialExecutor, parallel.ThreadPoolRoundExecutor):
        for attr in ("run_clients", "run_validators"):
            plan.append(entry(executor, attr, before=retries_before,
                              after=retries_after, dispatch=True))
    for attr in ("publish", "publish_new", "adopt"):
        plan.append(entry(model_store.ModelStore, attr, "store.publish",
                          before=_store_before, after=_store_after))
    return plan


@contextlib.contextmanager
def installed(plan):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    for owner, attr, wrapper in plan:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def _union(intervals) -> float:
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def layer_metrics(spans, import_s: float) -> dict:
    """The per-layer metrics of ``README.md``, as ``{name: (value, unit)}``."""
    n = len(spans)
    region = [None] * n
    training = [None] * n
    children = defaultdict(list)
    for sid, (name, parent, start, end, _) in enumerate(spans):
        inherited = parent >= 0
        region[sid] = name if name in REGIONS else (region[parent] if inherited else None)
        training[sid] = name if name in TRAINING else (
            training[parent] if inherited else None)
        if inherited:
            children[parent].append(sid)

    def self_time(sid) -> float:
        _, _, start, end, _ = spans[sid]
        return (end - start) - _union(
            (max(start, spans[c][2]), min(end, spans[c][3])) for c in children[sid]
        )

    def dur(sid) -> float:
        return spans[sid][3] - spans[sid][2]

    scen = defaultdict(list)  # name -> span ids inside traced scenarios
    for sid, (name, *_rest) in enumerate(spans):
        if region[sid] == "scenario":
            scen[name].append(sid)

    def total(name, within=None) -> float:
        return sum(dur(s) for s in scen[name] if within is None or training[s] == within)

    rounds = len(scen["run_round"])
    reviews = [spans[s][4] for s in scen["review"]]
    defended = sum(1 for is_defended, _ in reviews if is_defended)
    votes = len(scen["explain"])
    per_round = 1e3 / rounds
    per_defended = 1e3 / defended
    per_vote = 1e3 / votes if votes else 0.0

    builds = [s for s in range(n) if spans[s][0] == "build_environment" and spans[s][1] < 0]
    pretrain = defaultdict(float)
    pretrain_rounds = []
    for sid in range(n):
        if spans[sid][0] == "run_round" and region[sid] == "build_environment":
            pretrain_rounds.append(dur(sid))
            top = sid
            while spans[top][1] >= 0:
                top = spans[top][1]
            pretrain[top] += dur(sid)

    explain_attrs = [spans[s][4] for s in scen["explain"]]
    needed = sum(a[0] for a in explain_attrs)
    stacks = [spans[s][4] for s in scen["cohort_updates"]]
    profiled = sum(spans[s][4] for s in scen["stacked_error_profiles"]) + len(
        scen["model_error_profile"])

    def overlap(dispatch_name, task_names) -> float:
        wall = busy = 0.0
        for sid in scen[dispatch_name]:
            wall += dur(sid)
            busy += sum(dur(c) for c in children[sid] if spans[c][0] in task_names)
        return busy / wall if wall else 0.0

    retries = sum(
        spans[s][4] for name in ("run_clients", "run_validators") for s in scen[name]
    )
    publishes = [spans[s][4] for s in scen["store.publish"]]

    return {
        "import_s": (import_s, "s"),
        "environment.build_s": (statistics.median(dur(s) for s in builds), "s"),
        "environment.pretrain_round_ms": (
            1e3 * sum(pretrain_rounds) / len(pretrain_rounds), "ms"),
        "environment.data_s": (
            statistics.median(dur(s) - pretrain[s] for s in builds), "s"),
        "round.select_ms": (total("select") * per_round, "ms"),
        "round.train_ms": (total("run_clients") * per_round, "ms"),
        "round.aggregate_ms": (
            (total("aggregate") + total("apply_global_update")) * per_round, "ms"),
        "round.validate_ms": (total("review") * per_round, "ms"),
        "round.commit_ms": (total("record_outcome") * per_round, "ms"),
        "round.self_ms": (
            sum(self_time(s) for s in scen["run_round"]) * per_round, "ms"),
        "train.local_train_ms": (total("local_train") * per_round, "ms"),
        "nn.forward_ms": (total("Network.forward", "local_train") * per_round, "ms"),
        "nn.backward_ms": (total("Network.backward", "local_train") * per_round, "ms"),
        "nn.sgd_step_ms": (total("SGD.step", "local_train") * per_round, "ms"),
        "cohort.updates_ms": (total("cohort_updates") * per_round, "ms"),
        "cohort.models_per_stack": (sum(stacks) / len(stacks) if stacks else 0.0, "count"),
        "stacked.forward_ms": (
            total("StackedNetwork.forward", "cohort_updates") * per_round, "ms"),
        "stacked.backward_ms": (
            total("StackedNetwork.backward", "cohort_updates") * per_round, "ms"),
        "stacked.sgd_step_ms": (
            total("StackedSGD.step", "cohort_updates") * per_round, "ms"),
        "validation.votes_per_round": (votes / defended, "count"),
        "validation.explain_ms": (total("explain") * per_defended, "ms"),
        "lof.calls_per_vote": (
            len(scen["local_outlier_factor"]) / votes if votes else 0.0, "count"),
        "lof.ms_per_vote": (total("local_outlier_factor") * per_vote, "ms"),
        "profile.models_per_vote": (profiled / votes if votes else 0.0, "count"),
        "profile.cache_hit_ratio": (
            sum(a[1] for a in explain_attrs) / needed if needed else 0.0, "ratio"),
        "profile.ms_per_vote": (
            (total("stacked_error_profiles") + total("model_error_profile")) * per_vote,
            "ms"),
        "defense.review_self_ms": (
            sum(self_time(s) for s in scen["review"]) * per_defended, "ms"),
        "defense.votes_per_round": (
            sum(v for is_defended, v in reviews if is_defended) / defended, "count"),
        "executor.run_clients_ms": (
            sum(self_time(s) for s in scen["run_clients"]) * per_round, "ms"),
        "executor.run_validators_ms": (
            sum(self_time(s) for s in scen["run_validators"]) * per_defended, "ms"),
        "executor.train_overlap": (
            overlap("run_clients", ("local_train", "cohort_updates")), "ratio"),
        "executor.vote_overlap": (overlap("run_validators", ("explain",)), "ratio"),
        "executor.retries": (retries, "count"),
        "store.published_per_round": (len(publishes) / rounds, "count"),
        "store.bytes_published_per_round": (
            sum(b for b, _ in publishes) / rounds, "bytes"),
        "store.live_versions_max": (max((v for _, v in publishes), default=0), "count"),
    }
