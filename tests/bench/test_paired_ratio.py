"""Tests for the paired block-ratio estimator of ``benchmarks/_common.py``.

``paired_ratio`` decides the speedup rows and gates of the parallel-engine
and population-scale benchmarks.  A fake clock makes every block's timing
exact, so the tests pin the alternation, the block sizes, the median, and
the block-bootstrap interval a gate decides from.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from benchmarks import _common


class FakeHost:
    """A clock that advances only while a fake benchmark run works.

    ``ref_costs``/``row_costs`` (and ``other_costs`` for further named
    references) give the per-round cost of each block in turn; every call
    is logged as ``(side, rounds)``.
    """

    def __init__(self, ref_costs, row_costs, **other_costs):
        self.now = 0.0
        self.calls: list[tuple[str, int]] = []
        self._costs = {"ref": list(ref_costs), "row": list(row_costs)}
        self._costs.update({side: list(c) for side, c in other_costs.items()})

    def perf_counter(self) -> float:
        return self.now

    def runner(self, side: str):
        def run(rounds: int) -> None:
            self.calls.append((side, rounds))
            self.now += rounds * self._costs[side].pop(0)

        return run


@pytest.fixture
def host(monkeypatch):
    def make(ref_costs, row_costs, **other_costs):
        fake = FakeHost(ref_costs, row_costs, **other_costs)
        monkeypatch.setattr(
            _common, "time", SimpleNamespace(perf_counter=fake.perf_counter)
        )
        return fake

    return make


def _run(fake: FakeHost, rounds: int, block: int, **gate):
    return _common.paired_ratio(
        fake.runner("ref"), fake.runner("row"), rounds, block, **gate
    )


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
    result = _run(fake, rounds=8, block=2)
    assert result.ratio == result.low == result.high == 3.0
    assert result.elapsed == 8.0  # row time only
    assert (result.rounds, result.blocks) == (8, 4)


def test_odd_block_count_takes_the_middle_ratio(host):
    fake = host([1.0, 5.0, 2.0], [1.0, 1.0, 1.0])
    assert _run(fake, rounds=3, block=1).ratio == 2.0


def test_even_block_count_averages_the_middle_pair(host):
    fake = host([1.0, 4.0, 2.0, 8.0], [1.0] * 4)
    assert _run(fake, rounds=4, block=1).ratio == 3.0


def test_one_disturbed_block_does_not_move_the_estimate(host):
    """Host drift between blocks and one block whose row half ran 10x
    slower: the ratio of totals reads 30/42 = 0.71, the paired median
    reads the true 2x."""
    drift = [1.0, 2.0, 3.0, 4.0, 5.0]
    row = [s * (10.0 if k == 2 else 1.0) for k, s in enumerate(drift)]
    fake = host([2.0 * s for s in drift], row)
    result = _run(fake, rounds=5, block=1)
    assert result.ratio == 2.0
    assert result.elapsed == sum(row)


def test_interval_covers_the_true_ratio(host):
    """Blocks scattered around a true 2x: the seeded interval is a real
    interval around the median, covers 2x, and is reproducible."""
    noise = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.02, 0.97]
    results = []
    for _ in range(2):
        fake = host([2.0 * k for k in noise], [1.0] * len(noise))
        results.append(_run(fake, rounds=len(noise), block=1))
    result = results[0]
    assert result.low < result.ratio < result.high
    assert result.low <= 2.0 <= result.high
    assert 1.6 <= result.low and result.high <= 2.4  # within the block range
    assert results[1] == result


def test_straddling_interval_adds_blocks_until_it_decides(host):
    """Three blocks that straddle the floor do not decide; more blocks run
    until the interval clears it, well before the cap."""
    ref = [0.9, 1.1, 1.05] + [1.3] * 9
    fake = host(ref, [1.0] * len(ref))
    result = _run(fake, rounds=6, block=2, floor=1.0, max_rounds=24)
    assert 3 < result.blocks < 12
    assert result.rounds == 2 * result.blocks
    assert len(fake.calls) == 2 * result.blocks
    assert result.verdict(1.0) == "pass"
    assert result.low >= 1.0


def test_straddling_interval_never_reads_pass(host):
    """A row whose blocks keep landing on both sides of the floor runs to
    the cap and stays inconclusive; it never reads "pass"."""
    ref = [0.8, 1.2] * 6
    fake = host(ref, [1.0] * len(ref))
    result = _run(fake, rounds=6, block=2, floor=1.0, max_rounds=24)
    assert result.blocks == 12 and result.rounds == 24
    assert result.low < 1.0 <= result.high
    assert result.verdict(1.0) == "inconclusive"


def test_an_interval_below_the_floor_fails_without_more_blocks(host):
    fake = host([0.5, 0.6, 0.55], [1.0] * 3)
    result = _run(fake, rounds=3, block=1, floor=1.0, max_rounds=30)
    assert result.blocks == 3
    assert result.verdict(1.0) == "fail"


def test_no_floor_runs_the_nominal_blocks_only(host):
    fake = host([0.8, 1.2, 0.8], [1.0] * 3)
    result = _run(fake, rounds=3, block=1)
    assert result.blocks == 3
    assert result.verdict(1.0) == "inconclusive"


def _run_two(fake: FakeHost, rounds: int, block: int, **gate):
    return _common.paired_ratios(
        fake.runner("row"),
        {"ref": fake.runner("ref"), "stack": fake.runner("stack")},
        rounds, block, **gate,
    )


def test_several_references_share_each_block(host):
    """A block runs the first reference, the row, then the others; each
    ratio reads its own reference against the same row time."""
    fake = host([2.0] * 3, [1.0] * 3, stack=[1.5] * 3)
    results = _run_two(fake, rounds=6, block=2)
    assert fake.calls == [
        call for _ in range(3) for call in (("ref", 2), ("row", 2), ("stack", 2))
    ]
    assert (results["ref"].ratio, results["stack"].ratio) == (2.0, 1.5)
    assert results["ref"].elapsed == results["stack"].elapsed == 6.0


def test_only_the_first_reference_gates(host):
    """Blocks are added while the first reference's interval straddles the
    floor and stop once it decides; the second reference rides along in
    the same blocks whatever its own interval reads."""
    ref = [0.9, 1.1, 1.05] + [1.3] * 9
    fake = host(ref, [1.0] * len(ref), stack=[0.8, 1.2] * 6)
    results = _run_two(fake, rounds=6, block=2, floor=1.0, max_rounds=24)
    assert results["ref"].verdict(1.0) == "pass"
    assert 3 < results["ref"].blocks < 12
    assert results["stack"].blocks == results["ref"].blocks
    assert results["stack"].verdict(1.0) == "inconclusive"
