"""Fixture battery for the static determinism lint.

Every check gets three snippets: one that violates it (the check must
fire), one that is clean (it must stay silent), and one where the
violation carries a ``repro: allow[...]`` suppression with a reason (it
must stay silent too).  A reasonless suppression is itself a finding.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint.checks import ALL_CHECK_IDS, all_checks, get_check
from repro.analysis.lint.engine import analyze_source
from repro.analysis.lint.findings import Suppression, parse_suppressions

#: Path under which scoped checks (dtype-discipline) apply.
SCOPED_PATH = "src/repro/fl/example.py"


def run_check(source: str, check_id: str, path: str = SCOPED_PATH):
    return analyze_source(
        textwrap.dedent(source), path, checks=[get_check(check_id)]
    )


def check_ids(findings):
    return [f.check_id for f in findings]


def test_registry_covers_the_documented_battery():
    assert set(ALL_CHECK_IDS) == {
        "global-rng",
        "dtype-discipline",
        "pickle-safety",
        "parallel-safety",
        "thread-safety",
        "shm-hygiene",
        "unused-import",
        "mutable-default",
        "observability-safety",
        "swallowed-exception",
    }
    assert [c.check_id for c in all_checks()] == list(ALL_CHECK_IDS)


class TestGlobalRng:
    def test_violations_fire(self):
        findings = run_check(
            """\
            import random
            import time
            import numpy as np

            x = np.random.rand(3)
            rng = np.random.default_rng()
            y = random.random()
            r2 = np.random.default_rng(time.time_ns())
            """,
            "global-rng",
        )
        assert check_ids(findings) == ["global-rng"] * 4
        assert "process-global stream" in findings[0].message
        assert "unseeded" in findings[1].message
        assert "stdlib random" in findings[2].message
        assert "time/OS-entropy" in findings[3].message

    def test_keyed_randomness_is_clean(self):
        findings = run_check(
            """\
            import numpy as np

            def train(seed_seq):
                rng = np.random.default_rng(seed_seq)
                return rng.normal(size=3)
            """,
            "global-rng",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            import numpy as np

            x = np.random.rand(3)  # repro: allow[global-rng] -- fixture data only
            """,
            "global-rng",
        )
        assert findings == []

    def test_reasonless_suppression_is_a_finding(self):
        findings = run_check(
            """\
            import numpy as np

            x = np.random.rand(3)  # repro: allow[global-rng]
            """,
            "global-rng",
        )
        assert check_ids(findings) == ["bad-suppression"]


class TestDtypeDiscipline:
    def test_missing_dtype_fires(self):
        findings = run_check(
            """\
            import numpy as np

            a = np.zeros(3)
            b = np.arange(7)
            """,
            "dtype-discipline",
        )
        assert check_ids(findings) == ["dtype-discipline"] * 2

    def test_explicit_dtype_is_clean(self):
        findings = run_check(
            """\
            import numpy as np

            a = np.zeros(3, dtype=np.float64)
            b = np.arange(7, dtype=np.intp)
            """,
            "dtype-discipline",
        )
        assert findings == []

    def test_scope_excludes_non_hot_paths(self):
        findings = run_check(
            "import numpy as np\n\na = np.zeros(3)\n",
            "dtype-discipline",
            path="src/repro/experiments/report_tool.py",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            import numpy as np

            a = np.zeros(3)  # repro: allow[dtype-discipline] -- dtype set by caller contract
            """,
            "dtype-discipline",
        )
        assert findings == []


class TestPickleSafety:
    def test_lambda_and_closure_submissions_fire(self):
        findings = run_check(
            """\
            def run(pool, items):
                pool.map(lambda x: x + 1, items)

            def outer(pool):
                def task(x):
                    return x
                pool.submit(task, 1)

            def make_pool(executor_cls):
                return executor_cls(initializer=lambda: None)
            """,
            "pickle-safety",
        )
        assert check_ids(findings) == ["pickle-safety"] * 3
        assert "lambda" in findings[0].message
        assert "nested function 'task'" in findings[1].message
        assert "initializer" in findings[2].message

    def test_module_level_task_is_clean(self):
        findings = run_check(
            """\
            def task(x):
                return x

            def run(pool):
                pool.submit(task, 1)
                pool.map(task, range(3))
            """,
            "pickle-safety",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            def run(pool, items):
                pool.map(lambda x: x + 1, items)  # repro: allow[pickle-safety] -- thread pool, no pickling
            """,
            "pickle-safety",
        )
        assert findings == []


class TestParallelSafety:
    def test_module_global_writes_in_safe_class_fire(self):
        findings = run_check(
            """\
            CACHE = {}

            class Thing:
                parallel_safe = True

                def hot(self, key, value):
                    CACHE[key] = value

                def hotter(self):
                    global COUNT
                    COUNT = 1
            """,
            "parallel-safety",
        )
        assert [f.check_id for f in findings].count("parallel-safety") >= 2
        assert any("CACHE" in f.message for f in findings)
        assert any("global COUNT" in f.message for f in findings)

    def test_unflagged_class_and_self_state_are_clean(self):
        findings = run_check(
            """\
            CACHE = {}

            class Unflagged:
                def hot(self, key, value):
                    CACHE[key] = value

            class Safe:
                parallel_safe = True

                def __init__(self):
                    CACHE["init"] = 1

                def hot(self, value):
                    self.state = value
            """,
            "parallel-safety",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            CACHE = {}

            class Thing:
                cohort_safe = True

                def hot(self, key):
                    CACHE[key] = 1  # repro: allow[parallel-safety] -- read-through cache, values identical per key
            """,
            "parallel-safety",
        )
        assert findings == []


class TestThreadSafety:
    def test_unlocked_class_container_mutation_fires(self):
        findings = run_check(
            """\
            class Validator:
                parallel_safe = True
                _CACHE = {}
                _SEEN = []

                def vote(self, key, value):
                    self._CACHE[key] = value
                    self._SEEN.append(key)

                def reset(self):
                    Validator._CACHE = {}

                def bump(self):
                    type(self)._CACHE.update(done=True)
            """,
            "thread-safety",
        )
        assert check_ids(findings) == ["thread-safety"] * 4
        assert "writes into class-level attribute '_CACHE'" in findings[0].message
        assert "calls .append() on class-level attribute '_SEEN'" in findings[1].message
        assert "rebinds class-level attribute '_CACHE'" in findings[2].message
        assert "without a lock" in findings[3].message

    def test_instance_state_and_shadowed_containers_are_clean(self):
        findings = run_check(
            """\
            class Validator:
                parallel_safe = True
                _CACHE = {}

                def __init__(self):
                    self._CACHE = {}
                    self._profiles = {}

                def vote(self, key, value):
                    self._CACHE[key] = value
                    self._profiles[key] = value
                    self._pending = value

            class Unflagged:
                _CACHE = {}

                def hot(self, key):
                    self._CACHE[key] = 1
            """,
            "thread-safety",
        )
        assert findings == []

    def test_lock_guarded_mutation_is_clean(self):
        findings = run_check(
            """\
            import threading

            class Validator:
                parallel_safe = True
                _CACHE = {}
                _lock = threading.Lock()

                def vote(self, key, value):
                    with self._lock:
                        self._CACHE[key] = value
            """,
            "thread-safety",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            class Validator:
                parallel_safe = True
                _CACHE = {}

                def vote(self, key):
                    self._CACHE[key] = 1  # repro: allow[thread-safety] -- idempotent per-key writes
            """,
            "thread-safety",
        )
        assert findings == []


class TestShmHygiene:
    def test_create_without_unlink_fires(self):
        findings = run_check(
            """\
            from multiprocessing.shared_memory import SharedMemory

            class Store:
                def alloc(self):
                    self._shm = SharedMemory(create=True, size=64)
            """,
            "shm-hygiene",
        )
        assert check_ids(findings) == ["shm-hygiene"]
        assert "class Store" in findings[0].message

    def test_cleanup_method_with_unlink_is_clean(self):
        findings = run_check(
            """\
            from multiprocessing.shared_memory import SharedMemory

            class Store:
                def alloc(self):
                    self._shm = SharedMemory(create=True, size=64)

                def close(self):
                    self._shm.close()
                    self._shm.unlink()
            """,
            "shm-hygiene",
        )
        assert findings == []

    def test_finally_block_unlink_is_clean(self):
        findings = run_check(
            """\
            from multiprocessing.shared_memory import SharedMemory

            def scratch():
                shm = SharedMemory(create=True, size=64)
                try:
                    return bytes(shm.buf[:8])
                finally:
                    shm.close()
                    shm.unlink()
            """,
            "shm-hygiene",
        )
        assert findings == []

    def test_attach_only_is_clean(self):
        findings = run_check(
            """\
            from multiprocessing.shared_memory import SharedMemory

            class WorkerView:
                def attach(self, name):
                    self._shm = SharedMemory(name=name)
            """,
            "shm-hygiene",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            from multiprocessing.shared_memory import SharedMemory

            class Store:
                def alloc(self):
                    self._shm = SharedMemory(create=True, size=64)  # repro: allow[shm-hygiene] -- unlinked by the owning registry
            """,
            "shm-hygiene",
        )
        assert findings == []


class TestUnusedImport:
    def test_unused_import_fires(self):
        findings = run_check(
            """\
            import os
            import numpy as np

            print(np.pi)
            """,
            "unused-import",
        )
        assert check_ids(findings) == ["unused-import"]
        assert "'os'" in findings[0].message

    def test_used_string_annotation_and_all_are_clean(self):
        findings = run_check(
            """\
            from __future__ import annotations

            import os
            from pathlib import Path

            __all__ = ["os"]

            def f(p: "Path") -> None:
                del p
            """,
            "unused-import",
        )
        assert findings == []

    def test_init_files_are_exempt(self):
        findings = run_check(
            "import os\n",
            "unused-import",
            path="src/repro/somepkg/__init__.py",
        )
        assert findings == []

    def test_explicit_reexport_alias_is_exempt(self):
        findings = run_check(
            "from os import path as path\n",
            "unused-import",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            import faulthandler  # repro: allow[unused-import] -- import registers a hook
            """,
            "unused-import",
        )
        assert findings == []


class TestMutableDefault:
    def test_mutable_defaults_fire(self):
        findings = run_check(
            """\
            def f(a, b=[]):
                return a, b

            def g(x={}, *, y=set()):
                return x, y
            """,
            "mutable-default",
        )
        assert check_ids(findings) == ["mutable-default"] * 3

    def test_none_sentinel_is_clean(self):
        findings = run_check(
            """\
            def f(a, b=None):
                return a, b or []

            def g(x=(), y="name"):
                return x, y
            """,
            "mutable-default",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            def f(a, b=[]):  # repro: allow[mutable-default] -- default never mutated, doc example
                return a, b
            """,
            "mutable-default",
        )
        assert findings == []


class TestObservabilitySafety:
    OBS_PATH = "src/repro/obs/example.py"

    def test_wall_clock_and_rng_fire_inside_obs(self):
        findings = run_check(
            """\
            import random
            import time
            import numpy as np

            stamp = time.time()
            draw = np.random.rand()
            jitter = random.random()
            """,
            "observability-safety",
            path=self.OBS_PATH,
        )
        assert check_ids(findings) == ["observability-safety"] * 3
        assert "monotonic" in findings[0].message
        assert "no randomness" in findings[1].message

    def test_monotonic_clock_in_obs_is_clean(self):
        findings = run_check(
            """\
            import time

            def now_ns():
                return time.monotonic_ns()
            """,
            "observability-safety",
            path=self.OBS_PATH,
        )
        assert findings == []

    def test_wall_clock_outside_obs_is_not_this_checks_business(self):
        findings = run_check(
            """\
            import time

            stamp = time.time()
            """,
            "observability-safety",
        )
        assert findings == []

    def test_array_capture_into_span_attrs_fires_anywhere(self):
        findings = run_check(
            """\
            def instrument(tracer, model, round_idx):
                with tracer.span("train", round_idx=round_idx, weights=model.get_flat()):
                    pass
                tracer.event("snapshot", flat=model.weights.copy())
            """,
            "observability-safety",
        )
        assert check_ids(findings) == ["observability-safety"] * 2
        assert "get_flat" in findings[0].message
        assert "stay" in findings[0].message and "scalar" in findings[0].message

    def test_scalar_attrs_are_clean(self):
        findings = run_check(
            """\
            def instrument(tracer, chunk, cid, round_idx):
                with tracer.span("train.cohort", round_idx=round_idx, clients=len(chunk)):
                    pass
                tracer.event("materialize", clients=int(cid))
            """,
            "observability-safety",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            import time

            stamp = time.time()  # repro: allow[observability-safety] -- doc example
            """,
            "observability-safety",
            path=self.OBS_PATH,
        )
        assert findings == []


class TestSwallowedException:
    def test_pass_only_broad_handlers_fire(self):
        findings = run_check(
            """\
            def collect(futures):
                try:
                    futures[0].result()
                except Exception:
                    pass
                try:
                    futures[1].result()
                except:
                    ...
            """,
            "swallowed-exception",
        )
        assert check_ids(findings) == ["swallowed-exception"] * 2
        assert "pass-only" in findings[0].message
        assert "bare except" in findings[1].message

    def test_unobserved_future_exception_fires(self):
        findings = run_check(
            """\
            def drain(future):
                future.exception()
            """,
            "swallowed-exception",
        )
        assert check_ids(findings) == ["swallowed-exception"]
        assert "discarded" in findings[0].message

    def test_observed_errors_and_narrow_handlers_are_clean(self):
        findings = run_check(
            """\
            def collect(futures, stats, log):
                try:
                    futures[0].result()
                except KeyError:
                    pass
                except Exception as error:
                    stats.inc("abandoned_task_errors")
                error = futures[1].exception()
                if error is not None:
                    stats.inc("abandoned_task_errors")
                log.exception("context goes to the handler, not the void")
            """,
            "swallowed-exception",
        )
        assert findings == []

    def test_outside_the_execution_layer_is_not_scoped(self):
        findings = run_check(
            """\
            def tidy(path):
                try:
                    path.unlink()
                except Exception:
                    pass
            """,
            "swallowed-exception",
            path="src/repro/experiments/example.py",
        )
        assert findings == []

    def test_suppressed_with_reason_is_silent(self):
        findings = run_check(
            """\
            def teardown(handle):
                try:
                    handle.close()
                except Exception:  # repro: allow[swallowed-exception] -- interpreter teardown
                    pass
            """,
            "swallowed-exception",
        )
        assert findings == []


class TestSuppressionMechanics:
    def test_wildcard_allow_covers_any_check(self):
        findings = run_check(
            """\
            import numpy as np

            a = np.zeros(3)  # repro: allow[*] -- exercising the wildcard
            """,
            "dtype-discipline",
        )
        assert findings == []

    def test_allow_for_a_different_check_does_not_cover(self):
        findings = run_check(
            """\
            import numpy as np

            a = np.zeros(3)  # repro: allow[global-rng] -- wrong id on purpose
            """,
            "dtype-discipline",
        )
        assert check_ids(findings) == ["dtype-discipline"]

    def test_allow_inside_a_string_literal_is_not_a_suppression(self):
        findings = run_check(
            """\
            import numpy as np

            a, doc = np.zeros(3), "# repro: allow[dtype-discipline]"
            """,
            "dtype-discipline",
        )
        # Neither suppressed nor reported as a reasonless allow.
        assert check_ids(findings) == ["dtype-discipline"]

    @pytest.mark.parametrize("literal", [
        "'{}'", '"{}"', "'''{}'''", '"""\n{}\n"""', "f'{}'", "r'{}'", "b'{}'",
        "('a' '{}')",
    ], ids=["single", "double", "triple", "multiline", "f-string", "raw", "bytes",
            "implicit-concat"])
    def test_allow_text_in_any_string_literal_is_ignored(self, literal):
        allow = "# repro: allow[global-rng] -- not a comment"
        assert parse_suppressions(f"x = {literal.format(allow)}\n") == []

    @pytest.mark.parametrize("source, line", [
        ("x = 1  # repro: allow[global-rng] -- why\n", 1),
        ("x = '#'  # repro: allow[global-rng] -- why\n", 1),
        ("def f():\n    return 1  # repro: allow[global-rng] -- why\n", 2),
        ("x = [\n    1,  # repro: allow[global-rng] -- why\n]\n", 2),
    ], ids=["trailing", "after-a-hash-string", "in-a-body", "inside-brackets"])
    def test_allow_in_a_real_comment_is_found(self, source, line):
        assert parse_suppressions(source) == [
            Suppression(line=line, check_ids=("global-rng",), reason="why")
        ]

    def test_ids_are_trimmed_and_a_missing_reason_is_none(self):
        assert parse_suppressions("x = 1  #repro:allow[ a , b ]\n") == [
            Suppression(line=1, check_ids=("a", "b"), reason=None)
        ]

    def test_only_comment_tokens_are_parsed(self):
        source = textwrap.dedent('''\
            fixture = """
            x = 1  # repro: allow[global-rng]
            """
            y = 2  # repro: allow[global-rng, *] -- a real comment
            ''')
        assert parse_suppressions(source) == [
            Suppression(line=4, check_ids=("global-rng", "*"), reason="a real comment")
        ]
