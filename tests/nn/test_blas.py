"""Tests for the OpenBLAS thread-count limit."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.nn import blas

bound = pytest.mark.skipif(
    blas.BOUND is None, reason="no known OpenBLAS thread-count setter found"
)


@bound
class TestLimit:
    def test_lowers_the_count_then_restores_it(self):
        host = blas.thread_count()
        with blas.limit(1) as count:
            assert count == blas.thread_count() == 1
        assert blas.thread_count() == host

    def test_nested_limits_keep_the_smallest_cap(self):
        host = blas.thread_count()
        with blas.limit(1):
            with blas.limit(host) as inner:
                assert inner == blas.thread_count() == 1
            assert blas.thread_count() == 1
        assert blas.thread_count() == host

    def test_never_raises_the_count(self):
        host = blas.thread_count()
        with blas.limit(host + 4) as count:
            assert count == blas.thread_count() == host
        assert blas.thread_count() == host

    def test_restores_the_count_when_the_block_raises(self):
        host = blas.thread_count()
        with pytest.raises(RuntimeError), blas.limit(1):
            raise RuntimeError("boom")
        assert blas.thread_count() == host

    def test_rejects_a_cap_below_one(self):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            with blas.limit(0):
                pass

    def test_a_lower_user_setting_is_kept(self):
        """``OPENBLAS_NUM_THREADS=1`` stays 1 inside a limit of 2 and after it."""
        code = (
            "from repro.nn import blas\n"
            "with blas.limit(2) as count:\n"
            "    inside = blas.thread_count()\n"
            "print(count, inside, blas.thread_count())\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        assert out == ["1", "1", "1"]

    def test_overlapping_limits_from_several_threads(self):
        """Four threads enter and leave overlapping limits with a short
        switch interval: each reads at most its own cap inside, and the
        host count is back once all have left."""
        host = blas.thread_count()
        caps = (1, 2, 1, host + 1)
        errors: list[str] = []
        stop = time.monotonic() + 0.5

        def churn(cap: int) -> None:
            while time.monotonic() < stop:
                with blas.limit(cap):
                    inside = blas.thread_count()
                    if inside > min(cap, host):
                        errors.append(f"cap {cap} read {inside}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(cap,)) for cap in caps]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert blas.thread_count() == host

    def test_holds_combine_by_the_smallest_cap(self):
        """A later hold never raises an earlier one."""
        host = blas.thread_count()
        try:
            blas.hold(1)
            blas.hold(2)
            assert blas.thread_count() == 1
            blas.hold(host)
            assert blas.thread_count() == 1
        finally:
            blas._held.close()
        assert blas.thread_count() == host


def test_limit_is_a_no_op_when_unbound(monkeypatch):
    before = blas.thread_count()
    monkeypatch.setattr(blas, "_get", None)
    monkeypatch.setattr(blas, "_set", None)
    assert blas.thread_count() is None
    with blas.limit(1) as count:
        assert count is None
    monkeypatch.undo()
    assert blas.thread_count() == before


class TestL2Norm:
    def test_matches_numpy(self):
        vector = np.random.default_rng(0).normal(size=1000)
        assert blas.l2_norm(vector) == pytest.approx(np.linalg.norm(vector), rel=1e-12)

    @bound
    def test_same_bits_at_any_thread_count(self):
        """Above 10 000 elements OpenBLAS splits ``dot`` across threads; the
        numpy reduction does not depend on the count."""
        rng = np.random.default_rng(1)
        for _ in range(5):
            vector = rng.normal(size=13_002)
            at_host = blas.l2_norm(vector)
            with blas.limit(1):
                assert blas.l2_norm(vector) == at_host
