"""The determinism-contract check battery.

Each check is a small AST pass over one file.  They are deliberately
repo-specific: the point is not generic style, it is the handful of
invariants the equivalence matrix (sequential == thread, in bits)
rests on — stated once in prose in ``repro/fl/rng.py`` and
``repro/fl/parallel.py``, enforced here at parse time.

============  ========================================================
check id      guards against
============  ========================================================
global-rng    randomness outside per-``(round, entity)``
              :class:`~repro.fl.rng.RngStreams` keys: module-level
              ``np.random.*`` draws, unseeded ``default_rng()``,
              stdlib ``random``, time-derived seeds (PR 1's contract)
dtype-        ``np.zeros/empty/ones/full/arange`` without ``dtype=``
discipline    in the nn/fl/data hot paths — the dtype leak class
              (a scratch buffer silently widening or narrowing);
              policy-routed allocations (``dtype=active_dtype()``)
              are the sanctioned form under the precision policy
pickle-       lambdas / nested functions submitted to process pools
safety        (the seed pool); pool payloads must be module-level
parallel-     ``parallel_safe=True``/``cohort_safe=True`` classes
safety        writing module globals in hot methods — one object shared
              by every instance, round and pool thread, so hidden racy
              state (the parallel_safe opt-in rule)
thread-       ``parallel_safe=True`` classes mutating class-level
safety        containers in hot methods without a lock: under the
              thread engine a class attribute is one object shared by
              every instance and pool thread (PR 7's opt-in rule)
shm-hygiene   ``SharedMemory(create=True)`` without an ``unlink`` on
              a close/eviction/finally path in the same class (the
              CI ``/dev/shm`` leak gate, moved to parse time; PR 2)
unused-       module hygiene, mirroring the ruff rules CI pins
import        (F401) so the tree stays clean even where ruff is not
              installed (this container, offline dev boxes)
mutable-      shared-default-object aliasing across calls (B006);
default       a mutated default is cross-round hidden state
observ-       tracing must be pure observation (PR 9): ``repro/obs``
ability-      draws no randomness and reads no wall clock (monotonic
safety        only — wall-clock in a span perturbs nothing but makes
              traces non-mergeable), and no instrumentation site may
              capture model weight arrays into span/event attributes
              (attrs live for the whole run and are exported; an array
              there is a silent memory regression)
swallowed-    pass-only bare/``except Exception`` handlers and
exception     unobserved ``future.exception()`` statements in
              ``repro/fl`` and ``repro/core`` — the resilience layer
              (PR 10) counts every absorbed failure; an exception
              eaten silently resurfaces as an unexplainable
              divergence in the equivalence matrix
============  ========================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import ClassVar

from repro.analysis.lint.findings import Finding

#: Constructors that legitimately appear under ``numpy.random``: everything
#: else there is a module-level stream (order-dependent, process-global).
_NP_RANDOM_ALLOWED = {"default_rng", "SeedSequence", "Generator", "BitGenerator",
                      "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}

#: Wall-clock / OS entropy sources that make a seed non-reproducible.
_NONDETERMINISTIC_SEED_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.randbits",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: ``np.*`` array constructors whose dtype defaults are context-dependent
#: (``arange`` infers from arguments, the rest default to float64 — until
#: an upstream default or a caller-supplied operand changes the picture).
_DTYPE_ALLOCATORS = {"zeros", "empty", "ones", "full", "arange"}

#: Methods that ship their function argument across a process boundary.
_POOL_SUBMIT_METHODS = {"submit", "map", "apply_async"}

#: Method names that count as an eviction/close path for ``shm-hygiene``.
_CLEANUP_METHOD_RE = re.compile(
    r"close|evict|destroy|release|cleanup|unlink|reap|delete|__del__|__exit__"
)

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class FileContext:
    """Everything one check invocation sees about one file."""

    path: str  # posix-style path, as reported in findings
    source: str
    tree: ast.Module
    #: Import-alias map: local binding -> fully qualified dotted prefix.
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    ctx.aliases[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    ctx.aliases[bound] = f"{node.module}.{alias.name}"
        return ctx

    def qualname(self, node: ast.AST) -> str | None:
        """Alias-resolved dotted name of a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self.aliases.get(parts[0], parts[0])
        return ".".join([root, *parts[1:]])

    def finding(self, check_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            check_id=check_id,
            message=message,
        )


class Check:
    """One static check: an id, a scope, and a pass over a parsed file."""

    check_id: ClassVar[str]
    description: ClassVar[str]
    #: Restrict the check to files whose posix path contains one of these
    #: substrings (``None`` = every file).
    path_scope: ClassVar[tuple[str, ...] | None] = None

    def applies_to(self, path: str) -> bool:
        if self.path_scope is None:
            return True
        return any(fragment in path for fragment in self.path_scope)

    def run(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Check] = {}


def _register(cls: type[Check]) -> type[Check]:
    instance = cls()
    if cls.check_id in _REGISTRY:
        raise ValueError(f"duplicate check id {cls.check_id!r}")
    _REGISTRY[cls.check_id] = instance
    return cls


def all_checks() -> list[Check]:
    """Every registered check, in registration (documentation) order."""
    return list(_REGISTRY.values())


def get_check(check_id: str) -> Check:
    try:
        return _REGISTRY[check_id]
    except KeyError:
        raise KeyError(
            f"unknown check {check_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# global-rng
# ----------------------------------------------------------------------
@_register
class GlobalRngCheck(Check):
    check_id = "global-rng"
    description = (
        "randomness must flow from RngStreams (round, entity) keys: no "
        "module-level np.random draws, unseeded default_rng(), stdlib "
        "random, or time-derived seeds"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            if qual is None:
                continue
            if qual.startswith("numpy.random."):
                tail = qual.removeprefix("numpy.random.").split(".")[0]
                if tail not in _NP_RANDOM_ALLOWED:
                    findings.append(ctx.finding(
                        self.check_id, node,
                        f"module-level RNG call {qual}(): draws from the "
                        "process-global stream are order-dependent; derive a "
                        "generator from RngStreams (repro/fl/rng.py) instead",
                    ))
                elif tail == "default_rng" and self._unseeded(node):
                    findings.append(ctx.finding(
                        self.check_id, node,
                        "unseeded default_rng(): seeds from OS entropy, so "
                        "runs are not reproducible; pass a seed or a "
                        "SeedSequence spawned from RngStreams",
                    ))
            elif qual == "random" or qual.startswith("random."):
                findings.append(ctx.finding(
                    self.check_id, node,
                    f"stdlib random call {qual}(): the random module is a "
                    "process-global, unkeyed stream; use a numpy Generator "
                    "derived from RngStreams",
                ))
            if qual in {"numpy.random.default_rng", "numpy.random.SeedSequence"} or (
                qual.endswith(".from_seed")
            ):
                findings.extend(self._time_seeds(ctx, node))
        return findings

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
            return node.args[0].value is None
        return False

    def _time_seeds(self, ctx: FileContext, call: ast.Call) -> list[Finding]:
        findings = []
        for arg in [*call.args, *[kw.value for kw in call.keywords]]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    qual = ctx.qualname(sub.func)
                    if qual in _NONDETERMINISTIC_SEED_CALLS:
                        findings.append(ctx.finding(
                            self.check_id, sub,
                            f"time/OS-entropy-derived seed ({qual}()): the "
                            "seed must be a pure function of the experiment "
                            "config so reruns reproduce bit-identically",
                        ))
        return findings


# ----------------------------------------------------------------------
# dtype-discipline
# ----------------------------------------------------------------------
@_register
class DtypeDisciplineCheck(Check):
    check_id = "dtype-discipline"
    description = (
        "np.zeros/empty/ones/full/arange in nn/fl/data hot paths must pass "
        "an explicit dtype= — a bare allocation silently pins the numpy "
        "default instead of the execution precision policy; routing through "
        "dtype=active_dtype() (repro.nn.precision) or another explicit "
        "dtype resolves it"
    )
    path_scope = ("repro/nn", "repro/fl", "repro/data")

    def run(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            if qual is None or not qual.startswith("numpy."):
                continue
            tail = qual.removeprefix("numpy.")
            if tail not in _DTYPE_ALLOCATORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            findings.append(ctx.finding(
                self.check_id, node,
                f"np.{tail}() without explicit dtype=: allocation dtype must "
                "be stated where weights/activations are built — route "
                "policy-dtype arrays through dtype=active_dtype() "
                "(repro.nn.precision); a bare allocation silently widens or "
                "narrows and breaks bit-identity under a float32 policy",
            ))
        return findings


# ----------------------------------------------------------------------
# pickle-safety
# ----------------------------------------------------------------------
@_register
class PickleSafetyCheck(Check):
    check_id = "pickle-safety"
    description = (
        "functions shipped to pool workers (submit/map/apply_async, pool "
        "initializers) must be module-level: lambdas and closures do not "
        "pickle"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        self._visit(ctx, ctx.tree.body, nested_defs=[], findings=findings)
        return findings

    def _visit(self, ctx, body, nested_defs: list[set[str]], findings) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested_defs:
                    # ``node`` is itself a local def inside a function: its
                    # name is a closure candidate for the enclosing scopes.
                    nested_defs[-1].add(node.name)
                self._visit(ctx, node.body, nested_defs + [set()], findings)
            elif isinstance(node, ast.ClassDef):
                self._visit(ctx, node.body, nested_defs, findings)
            else:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        self._inspect_call(ctx, sub, nested_defs, findings)
                    elif isinstance(sub, ast.Lambda):
                        # Lambdas nested in non-call positions are handled
                        # where they are submitted; nothing to do here.
                        pass

    def _inspect_call(self, ctx, call: ast.Call, nested_defs, findings) -> None:
        local_names = set().union(*nested_defs) if nested_defs else set()
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _POOL_SUBMIT_METHODS
            and call.args
        ):
            task = call.args[0]
            if isinstance(task, ast.Lambda):
                findings.append(ctx.finding(
                    self.check_id, task,
                    f"lambda passed to .{call.func.attr}(): pool task "
                    "payloads must be picklable module-level functions",
                ))
            elif isinstance(task, ast.Name) and task.id in local_names:
                findings.append(ctx.finding(
                    self.check_id, task,
                    f"nested function {task.id!r} passed to "
                    f".{call.func.attr}(): closures do not pickle; hoist it "
                    "to module level",
                ))
        for kw in call.keywords:
            if kw.arg == "initializer" and isinstance(kw.value, ast.Lambda):
                findings.append(ctx.finding(
                    self.check_id, kw.value,
                    "lambda as pool initializer: worker initializers must "
                    "be picklable module-level functions",
                ))


# ----------------------------------------------------------------------
# parallel-safety
# ----------------------------------------------------------------------
@_register
class ParallelSafetyCheck(Check):
    check_id = "parallel-safety"
    description = (
        "classes declaring parallel_safe=True / cohort_safe=True must not "
        "write module-level state in their methods: a module global is one "
        "object shared by every instance, round and pool thread"
    )

    _FLAGS = {"parallel_safe", "cohort_safe"}

    def run(self, ctx: FileContext) -> list[Finding]:
        module_names = self._module_level_names(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._declares_safe(node):
                findings.extend(
                    self._check_class(ctx, node, module_names)
                )
        return findings

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Import):
                names.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.update(
                    a.asname or a.name for a in node.names if a.name != "*"
                )
        return names

    def _declares_safe(self, cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            targets: list[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in self._FLAGS
                    and isinstance(value, ast.Constant)
                    and value.value is True
                ):
                    return True
        return False

    def _check_class(self, ctx, cls: ast.ClassDef, module_names) -> list[Finding]:
        findings = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction happens parent-side, before pickling
            for node in ast.walk(method):
                if isinstance(node, ast.Global):
                    findings.append(ctx.finding(
                        self.check_id, node,
                        f"{cls.name}.{method.name} declares "
                        f"'global {', '.join(node.names)}': a parallel-safe "
                        "entity runs on pool threads, where a module global "
                        "is hidden state every thread and round shares",
                    ))
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        root = self._attribute_root(target)
                        if root is not None and root in module_names:
                            findings.append(ctx.finding(
                                self.check_id, node,
                                f"{cls.name}.{method.name} writes "
                                f"module-level object {root!r}: every pool "
                                "thread and round shares it; keep hot-"
                                "method state on self",
                            ))
        return findings

    @staticmethod
    def _attribute_root(target: ast.expr) -> str | None:
        """Root Name of an attribute/subscript write target (not plain Name)."""
        node = target
        seen_container = False
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            seen_container = True
            node = node.value
        if seen_container and isinstance(node, ast.Name):
            return node.id
        return None


# ----------------------------------------------------------------------
# thread-safety
# ----------------------------------------------------------------------
@_register
class ThreadSafetyCheck(Check):
    check_id = "thread-safety"
    description = (
        "parallel_safe classes must not mutate class-level shared "
        "containers in hot methods without holding a lock: under the "
        "thread engine those methods run concurrently on pool threads, "
        "and a class attribute is one object shared by every instance"
    )

    #: Only ``parallel_safe`` matters here: it is the flag the thread
    #: engine consults before moving an entity's hot methods onto pool
    #: threads.  (``cohort_safe`` batching never runs methods
    #: concurrently, so class-level state is fine there.)
    _FLAGS = {"parallel_safe"}

    #: In-place mutators on list/dict/set: calling one on a class-level
    #: container is a cross-thread write.
    _MUTATORS = {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear",
    }

    #: Class attributes initialised to one of these are shared mutable
    #: containers (literals or the bare factory calls).
    _CONTAINER_FACTORIES = {"list", "dict", "set"}

    _LOCK_ATTR_RE = re.compile(r"lock|mutex|guard", re.IGNORECASE)

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._declares_safe(node):
                findings.extend(self._check_class(ctx, node))
        return findings

    def _declares_safe(self, cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            targets: list[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in self._FLAGS
                    and isinstance(value, ast.Constant)
                    and value.value is True
                ):
                    return True
        return False

    def _check_class(self, ctx, cls: ast.ClassDef) -> list[Finding]:
        class_attrs = self._class_level_names(cls)
        shadowed = self._init_shadowed_names(cls)
        # Containers every instance aliases: class-level mutables the
        # constructor does not replace with a per-instance object.
        shared = {
            name for name, mutable in class_attrs.items()
            if mutable and name not in shadowed
        }
        findings: list[Finding] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # runs once per instance, before any fan-out
            if self._holds_lock(method):
                continue
            self_name = self._self_name(method)
            for node in ast.walk(method):
                hit = self._mutation(ctx, node, cls.name, self_name,
                                     shared, set(class_attrs))
                if hit is not None:
                    attr, how = hit
                    findings.append(ctx.finding(
                        self.check_id, node,
                        f"{cls.name}.{method.name} {how} class-level "
                        f"attribute {attr!r} without a lock: under the "
                        "thread engine this object is shared by every "
                        "instance and pool thread; guard it with "
                        "'with self.<lock>:' or move it to per-instance "
                        "state in __init__",
                    ))
        return findings

    def _class_level_names(self, cls: ast.ClassDef) -> dict[str, bool]:
        """Class-body attribute names -> "bound to a mutable container"."""
        attrs: dict[str, bool] = {}
        for stmt in cls.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    attrs[target.id] = self._is_container(value)
        return attrs

    def _is_container(self, value: ast.expr | None) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in self._CONTAINER_FACTORIES
        )

    @staticmethod
    def _init_shadowed_names(cls: ast.ClassDef) -> set[str]:
        """Attributes ``__init__`` rebinds on ``self`` (per-instance state)."""
        shadowed: set[str] = set()
        for method in cls.body:
            if not (
                isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name == "__init__"
            ):
                continue
            self_name = ThreadSafetyCheck._self_name(method)
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        shadowed.add(target.attr)
        return shadowed

    @staticmethod
    def _self_name(method: ast.AST) -> str | None:
        args = method.args.args
        return args[0].arg if args else None

    def _holds_lock(self, method: ast.AST) -> bool:
        """A ``with`` whose context expression names a lock-ish attribute."""
        for node in ast.walk(method):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    name = None
                    if isinstance(sub, ast.Attribute):
                        name = sub.attr
                    elif isinstance(sub, ast.Name):
                        name = sub.id
                    if name is not None and self._LOCK_ATTR_RE.search(name):
                        return True
        return False

    def _mutation(self, ctx, node, cls_name, self_name, shared, class_attrs):
        """(attr, verb) if ``node`` mutates class-level state, else None."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                # ClassName.attr = ... / type(self).attr += ... rebinds the
                # class attribute itself — shared regardless of mutability.
                attr = self._class_attr(target, cls_name, self_name)
                if attr is not None and attr in class_attrs:
                    return attr, "rebinds"
                # self.attr[k] = ... mutates the aliased class container.
                root = target
                seen_sub = False
                while isinstance(root, ast.Subscript):
                    seen_sub = True
                    root = root.value
                if seen_sub:
                    attr = self._owned_attr(root, cls_name, self_name)
                    if attr in shared:
                        return attr, "writes into"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in self._MUTATORS:
                attr = self._owned_attr(node.func.value, cls_name, self_name)
                if attr in shared:
                    return attr, f"calls .{node.func.attr}() on"
        return None

    def _owned_attr(self, node, cls_name, self_name) -> str | None:
        """Attr name if ``node`` is self.X, ClassName.X or type(self).X."""
        attr = self._class_attr(node, cls_name, self_name)
        if attr is not None:
            return attr
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            return node.attr
        return None

    @staticmethod
    def _class_attr(node, cls_name, self_name) -> str | None:
        """Attr name if ``node`` is ClassName.X or type(self).X."""
        if not isinstance(node, ast.Attribute):
            return None
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == cls_name:
            return node.attr
        if (
            isinstance(owner, ast.Call)
            and isinstance(owner.func, ast.Name)
            and owner.func.id == "type"
            and len(owner.args) == 1
            and isinstance(owner.args[0], ast.Name)
            and owner.args[0].id == self_name
        ):
            return node.attr
        return None


# ----------------------------------------------------------------------
# shm-hygiene
# ----------------------------------------------------------------------
@_register
class ShmHygieneCheck(Check):
    check_id = "shm-hygiene"
    description = (
        "every SharedMemory(create=True) needs a paired .unlink() on a "
        "close/eviction/finally path in the same class, or /dev/shm leaks "
        "survive the process"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        self._scan(ctx, ctx.tree.body, owner=None, findings=findings)
        return findings

    def _scan(self, ctx, body, owner, findings) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._scan(ctx, node.body, owner=node, findings=findings)
            else:
                for sub in ast.walk(node):
                    if self._creates_segment(ctx, sub):
                        scope = owner if owner is not None else ctx.tree
                        if not self._has_cleanup_unlink(scope):
                            where = (
                                f"class {owner.name}" if owner is not None
                                else "this module"
                            )
                            findings.append(ctx.finding(
                                self.check_id, sub,
                                "SharedMemory(create=True) without a "
                                f".unlink() on a cleanup path in {where}: "
                                "the segment outlives the process in "
                                "/dev/shm",
                            ))

    @staticmethod
    def _creates_segment(ctx, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        qual = ctx.qualname(node.func)
        if qual is None or not qual.split(".")[-1] == "SharedMemory":
            return False
        return any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )

    @staticmethod
    def _has_cleanup_unlink(scope: ast.AST) -> bool:
        """An ``.unlink()`` call inside a cleanup method or finally block."""
        for node in ast.walk(scope):
            method_ok = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _CLEANUP_METHOD_RE.search(node.name)
            final_ok = isinstance(node, ast.Try) and node.finalbody
            search_bodies: list = []
            if method_ok:
                search_bodies.append(node)
            elif final_ok:
                search_bodies.extend(node.finalbody)
            for body in search_bodies:
                for sub in ast.walk(body):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "unlink"
                    ):
                        return True
        return False


# ----------------------------------------------------------------------
# unused-import (ruff F401 mirror)
# ----------------------------------------------------------------------
@_register
class UnusedImportCheck(Check):
    check_id = "unused-import"
    description = (
        "imports never referenced in the file (F401); __init__.py re-export "
        "files are exempt"
    )

    def run(self, ctx: FileContext) -> list[Finding]:
        if ctx.path.endswith("__init__.py"):
            return []
        imported: dict[str, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.asname == alias.name:
                        continue  # `import x as x`: explicit re-export
                    imported.setdefault(alias.asname or alias.name, node)
        if not imported:
            return []
        used = self._used_names(ctx.tree)
        return [
            ctx.finding(
                self.check_id, node,
                f"unused import {name!r}",
            )
            for name, node in sorted(imported.items(), key=lambda kv: kv[0])
            if name not in used
        ]

    @staticmethod
    def _used_names(tree: ast.Module) -> set[str]:
        used: set[str] = set()
        annotation_roots: list[ast.AST] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                annotation_roots.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    annotation_roots.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotation_roots.append(node.annotation)
            elif isinstance(node, ast.Assign):
                # ``__all__`` strings are references (re-export by name).
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        for sub in ast.walk(node.value):
                            if isinstance(sub, ast.Constant) and isinstance(
                                sub.value, str
                            ):
                                used.add(sub.value)
        # Under ``from __future__ import annotations`` (and in TYPE_CHECKING
        # blocks) annotations may be string literals: their identifiers are
        # genuine references.
        for root in annotation_roots:
            for sub in ast.walk(root):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used.update(_IDENTIFIER_RE.findall(sub.value))
        return used


# ----------------------------------------------------------------------
# mutable-default (ruff B006 mirror)
# ----------------------------------------------------------------------
@_register
class MutableDefaultCheck(Check):
    check_id = "mutable-default"
    description = (
        "mutable default arguments (B006): the default is one shared object "
        "across calls — cross-call hidden state, exactly what the "
        "determinism contract forbids"
    )

    _FACTORY_CALLS = {"list", "dict", "set"}

    def run(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [
                *node.args.defaults,
                *[d for d in node.args.kw_defaults if d is not None],
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    findings.append(ctx.finding(
                        self.check_id, default,
                        f"mutable default argument in {name}(): defaults are "
                        "evaluated once and shared across calls",
                    ))
        return findings

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._FACTORY_CALLS
        )


# ----------------------------------------------------------------------
# observability-safety
# ----------------------------------------------------------------------
@_register
class ObservabilitySafetyCheck(Check):
    check_id = "observability-safety"
    description = (
        "tracing is pure observation: repro/obs must not draw randomness "
        "or read the wall clock (the span clock is time.monotonic_ns), and "
        "span()/event() attributes anywhere must not capture weight arrays "
        "(get_flat/asarray/copy/... results live as long as the trace)"
    )

    #: Wall-clock sources banned inside ``repro/obs``: span timestamps on
    #: different hosts/processes only merge on the monotonic clock, and a
    #: wall-clock read is exactly the kind of hidden environmental input
    #: the determinism contract exists to keep out of the round loop.
    _WALL_CLOCK = {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }

    #: Call leaf names that produce (copies of) model weight arrays.  A
    #: span attribute lives as long as the trace and is exported with it,
    #: so an array-valued attr silently multiplies the memory tracing
    #: claims merely to observe — and ``check_attrs`` would reject it at
    #: runtime anyway.  Catch it at parse time, at the instrumentation
    #: site.
    _ARRAY_LEAVES = {
        "get_flat", "get_weights", "asarray", "array", "ascontiguousarray",
        "copy", "ravel", "flatten", "tolist",
    }

    _TRACE_METHODS = {"span", "event"}

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        in_obs = "repro/obs" in ctx.path
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            if in_obs and qual is not None:
                if qual in self._WALL_CLOCK:
                    findings.append(ctx.finding(
                        self.check_id, node,
                        f"wall-clock call {qual}() in repro/obs: span "
                        "timing must use the monotonic clock "
                        "(time.monotonic_ns) — wall-clock stamps from "
                        "different processes do not merge",
                    ))
                elif qual == "random" or qual.startswith("random.") or (
                    qual.startswith("numpy.random.")
                ):
                    findings.append(ctx.finding(
                        self.check_id, node,
                        f"RNG call {qual}() in repro/obs: tracing must draw "
                        "no randomness — a draw here would shift every "
                        "downstream stream and break the traced==untraced "
                        "bit-identity contract",
                    ))
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._TRACE_METHODS
            ):
                findings.extend(self._check_attrs(ctx, node))
        return findings

    def _check_attrs(self, ctx: FileContext, call: ast.Call) -> list[Finding]:
        findings = []
        for value in [*call.args, *[kw.value for kw in call.keywords]]:
            for sub in ast.walk(value):
                if not isinstance(sub, ast.Call):
                    continue
                leaf = None
                if isinstance(sub.func, ast.Attribute):
                    leaf = sub.func.attr
                elif isinstance(sub.func, ast.Name):
                    leaf = sub.func.id
                if leaf in self._ARRAY_LEAVES:
                    findings.append(ctx.finding(
                        self.check_id, sub,
                        f"span/event attribute captures {leaf}(): weight "
                        "arrays must never enter span attributes — attrs "
                        "ride the pool result payloads and must stay "
                        "scalar (check_attrs enforces this at runtime; "
                        "record a length or a hash instead)",
                    ))
        return findings


# ----------------------------------------------------------------------
# swallowed-exception
# ----------------------------------------------------------------------
@_register
class SwallowedExceptionCheck(Check):
    check_id = "swallowed-exception"
    description = (
        "the execution layer (repro/fl, repro/core) must not silently "
        "discard failures: no pass-only bare/Exception handlers, and no "
        "unobserved future.exception() — a worker crash that vanishes "
        "here reappears as a silent divergence the equivalence matrix "
        "cannot explain"
    )
    path_scope = ("repro/fl", "repro/core")

    #: Handler types broad enough to eat a worker crash.  A narrow
    #: handler (KeyError, FuturesTimeout, ...) states what it absorbs;
    #: these absorb everything.
    _BROAD = {"Exception", "BaseException"}

    def run(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if self._broad(node) and self._body_discards(node.body):
                    caught = (
                        "bare except" if node.type is None
                        else f"except {ast.unparse(node.type)}"
                    )
                    findings.append(ctx.finding(
                        self.check_id, node,
                        f"{caught} with a pass-only body swallows every "
                        "failure, including worker crashes the resilience "
                        "layer must observe; narrow the handler, or "
                        "count/trace the error before discarding it",
                    ))
            elif isinstance(node, ast.Expr):
                call = node.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "exception"
                    and not call.args
                ):
                    # ``fut.exception()`` as a bare statement retrieves
                    # the error only to drop it.  (``log.exception(msg)``
                    # takes arguments and is not matched.)
                    findings.append(ctx.finding(
                        self.check_id, call,
                        "future.exception() result is discarded: the "
                        "retrieved error must be counted, traced, or "
                        "re-raised — dropping it hides worker failures",
                    ))
        return findings

    def _broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        return (
            isinstance(handler.type, ast.Name)
            and handler.type.id in self._BROAD
        )

    @staticmethod
    def _body_discards(body: list[ast.stmt]) -> bool:
        """True when the handler body observes nothing: only pass/``...``."""
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        )


#: Stable id list, exported for --list-checks and the test battery.
ALL_CHECK_IDS = tuple(_REGISTRY)
