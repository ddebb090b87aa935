"""Tests for the paired block-ratio estimator of ``benchmarks/_common.py``.

``paired_ratio`` decides the speedup rows and gates of the parallel-engine
and population-scale benchmarks.  A fake clock makes every block's timing
exact, so the tests pin the alternation, the block sizes and the median.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from benchmarks import _common


class FakeHost:
    """A clock that advances only while a fake benchmark run works.

    ``ref_costs``/``row_costs`` give the per-round cost of each block in
    turn; every call is logged as ``(side, rounds)``.
    """

    def __init__(self, ref_costs, row_costs):
        self.now = 0.0
        self.calls: list[tuple[str, int]] = []
        self._costs = {"ref": list(ref_costs), "row": list(row_costs)}

    def perf_counter(self) -> float:
        return self.now

    def runner(self, side: str):
        def run(rounds: int) -> None:
            self.calls.append((side, rounds))
            self.now += rounds * self._costs[side].pop(0)

        return run


@pytest.fixture
def host(monkeypatch):
    def make(ref_costs, row_costs):
        fake = FakeHost(ref_costs, row_costs)
        monkeypatch.setattr(
            _common, "time", SimpleNamespace(perf_counter=fake.perf_counter)
        )
        return fake

    return make


def _run(fake: FakeHost, rounds: int, block: int):
    return _common.paired_ratio(fake.runner("ref"), fake.runner("row"), rounds, block)


@pytest.mark.parametrize("rounds, block, sizes", [
    (7, 3, [3, 3, 1]),  # the last block is short
    (2, 5, [2]),        # fewer rounds than one block
    (4, 2, [2, 2]),     # the tracing-overhead loop's blocks of 2
])
def test_blocks_alternate_reference_first(host, rounds, block, sizes):
    fake = host([1.0] * len(sizes), [1.0] * len(sizes))
    _run(fake, rounds, block)
    assert fake.calls == [
        call for n in sizes for call in (("ref", n), ("row", n))
    ]


def test_constant_speedup_is_recovered_exactly(host):
    fake = host([3.0] * 4, [1.0] * 4)
    ratio, elapsed = _run(fake, rounds=8, block=2)
    assert ratio == 3.0
    assert elapsed == 8.0  # row time only


def test_odd_block_count_takes_the_middle_ratio(host):
    fake = host([1.0, 5.0, 2.0], [1.0, 1.0, 1.0])
    ratio, _ = _run(fake, rounds=3, block=1)
    assert ratio == 2.0


def test_even_block_count_averages_the_middle_pair(host):
    fake = host([1.0, 4.0, 2.0, 8.0], [1.0] * 4)
    ratio, _ = _run(fake, rounds=4, block=1)
    assert ratio == 3.0


def test_one_disturbed_block_does_not_move_the_estimate(host):
    """Host drift between blocks and one block whose row half ran 10x
    slower: the ratio of totals reads 30/42 = 0.71, the paired median
    reads the true 2x."""
    drift = [1.0, 2.0, 3.0, 4.0, 5.0]
    row = [s * (10.0 if k == 2 else 1.0) for k, s in enumerate(drift)]
    fake = host([2.0 * s for s in drift], row)
    ratio, elapsed = _run(fake, rounds=5, block=1)
    assert ratio == 2.0
    assert elapsed == sum(row)
