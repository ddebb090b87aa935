"""Unit tests for the quorum-robustness analysis (paper Sec. IV-B)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quorum import (
    estimate_rho_from_votes,
    max_tolerable_malicious,
    quorum_bounds,
    recommended_quorum,
)


class TestQuorumBounds:
    def test_paper_formula(self):
        # n=10, n_M=2, rho=0.9: lower = 2 + 0.1*8 = 2.8, upper = 0.9*8 = 7.2
        lower, upper = quorum_bounds(10, 2, 0.9)
        assert lower == pytest.approx(2.8)
        assert upper == pytest.approx(7.2)

    def test_perfect_validators_reduce_to_simple_bounds(self):
        # rho=1: lower = n_M, upper = n - n_M
        lower, upper = quorum_bounds(10, 3, 1.0)
        assert lower == 3.0
        assert upper == 7.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            quorum_bounds(0, 0, 0.5)
        with pytest.raises(ValueError):
            quorum_bounds(10, 10, 0.5)
        with pytest.raises(ValueError):
            quorum_bounds(10, 2, 1.5)


class TestRecommendedQuorum:
    def test_matches_upper_bound_floor(self):
        assert recommended_quorum(10, 2, 0.9) == 7

    @pytest.mark.parametrize(
        "n, n_malicious, rho, expected",
        [
            (10, 0, 1.0, 10),   # (0, 10]
            (10, 1, 0.8, 7),    # (2.8, 7.2]
            (20, 2, 0.75, 13),  # (6.5, 13.5]
        ],
    )
    def test_floors_the_upper_bound_inside_the_range(
        self, n, n_malicious, rho, expected
    ):
        lower, _ = quorum_bounds(n, n_malicious, rho)
        assert recommended_quorum(n, n_malicious, rho) == expected > lower

    def test_single_point_range_rejected(self):
        # rho = 0.5, n_M = 0: lower = upper = 5, so (5, 5] is empty
        with pytest.raises(ValueError):
            recommended_quorum(10, 0, 0.5)

    def test_empty_range_rejected(self):
        # rho = 0.5, n_M = 3: lower = 3 + 0.5*7 = 6.5, upper = 3.5 -> empty
        with pytest.raises(ValueError):
            recommended_quorum(10, 3, 0.5)

    @pytest.mark.parametrize(
        "n, n_malicious, rho",
        [(7, 0, 0.55), (11, 0, 0.536)],  # (3.15, 3.85] and (5.10, 5.90]
    )
    def test_range_without_an_integer_rejected(self, n, n_malicious, rho):
        """A non-empty range that holds no integer has no valid quorum:
        flooring its upper end lands at or below the lower bound, where the
        erring honest voters alone could reject a clean model."""
        lower, upper = quorum_bounds(n, n_malicious, rho)
        assert lower < upper
        with pytest.raises(ValueError, match="no integer"):
            recommended_quorum(n, n_malicious, rho)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        malicious_share=st.floats(min_value=0.0, max_value=0.99),
        rho=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_returned_quorum_lies_in_the_valid_range(
        self, n, malicious_share, rho
    ):
        """q satisfies ``lower < q <= upper``, and the call raises exactly
        when no integer lies in ``(lower, upper]``."""
        n_malicious = int(malicious_share * n)
        lower, upper = quorum_bounds(n, n_malicious, rho)
        # Every candidate quorum is a vote count in [0, n].
        has_integer = any(lower < q <= upper for q in range(n + 1))
        if not has_integer:
            with pytest.raises(ValueError):
                recommended_quorum(n, n_malicious, rho)
            return
        q = recommended_quorum(n, n_malicious, rho)
        assert lower < q <= upper


class TestMaxTolerableMalicious:
    def test_paper_examples(self):
        """Sec. VI-C: rho=0.4 -> n_M < 3.75; rho=0.5 -> n_M < 3.33 (wait:
        the paper plugs 1-rho as the correct fraction; we follow the printed
        formula (1-rho)n/(2-rho) with its rho convention)."""
        assert max_tolerable_malicious(10, 0.4) == pytest.approx(3.75)
        assert max_tolerable_malicious(10, 0.5) == pytest.approx(10 / 3, rel=1e-3)

    def test_perfect_rho_tolerates_none_by_formula(self):
        assert max_tolerable_malicious(10, 1.0) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            max_tolerable_malicious(0, 0.5)
        with pytest.raises(ValueError):
            max_tolerable_malicious(10, -0.1)


class TestRhoEstimation:
    def test_minimum_reject_share(self):
        # worst observed injection got 5 of 10 votes -> rho = 0.5
        assert estimate_rho_from_votes([9, 7, 5, 10], 10) == 0.5

    def test_all_detected_by_everyone(self):
        assert estimate_rho_from_votes([10, 10], 10) == 1.0

    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError):
            estimate_rho_from_votes([], 10)

    def test_out_of_range_votes_rejected(self):
        with pytest.raises(ValueError):
            estimate_rho_from_votes([11], 10)
        with pytest.raises(ValueError):
            estimate_rho_from_votes([-1], 10)
