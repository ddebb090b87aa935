"""Unit + property tests for the from-scratch Local Outlier Factor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lof import local_outlier_factor, lof_scores

_EPS = 1e-12


# ----------------------------------------------------------------------
# Reference oracle: the single-query kernel as it stood before queries
# were batched, verbatim (helpers included, so a change to the kernel's
# own helpers cannot reach it).
# ----------------------------------------------------------------------
def _oracle_pairwise_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _oracle_k_distance_and_neighbors(dists, k):
    order = np.argsort(dists, axis=1)
    neighbors = order[:, :k]
    k_dist = np.take_along_axis(dists, neighbors, axis=1)[:, -1]
    return k_dist, neighbors


def oracle_lof(query, reference, k):
    """One window's LOF, computed on its own distance matrix."""
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    n = len(reference)
    k = min(k, n - 1)

    ref_dists = _oracle_pairwise_distances(reference, reference)
    np.fill_diagonal(ref_dists, np.inf)
    ref_k_dist, ref_neighbors = _oracle_k_distance_and_neighbors(ref_dists, k)
    ref_reach = np.maximum(
        ref_k_dist[ref_neighbors], np.take_along_axis(ref_dists, ref_neighbors, axis=1)
    )
    ref_lrd = 1.0 / np.maximum(ref_reach.mean(axis=1), _EPS)

    q_dists = _oracle_pairwise_distances(query[None, :], reference)[0]
    q_neighbors = np.argsort(q_dists)[:k]
    q_reach = np.maximum(ref_k_dist[q_neighbors], q_dists[q_neighbors])
    q_mean_reach = q_reach.mean()
    if q_mean_reach <= _EPS:
        return 1.0
    q_lrd = 1.0 / q_mean_reach
    return float(ref_lrd[q_neighbors].mean() / q_lrd)


def oracle_windows(query, reference, k):
    """The batched contract, one oracle call per trailing window."""
    points = np.concatenate([reference, query])
    n = len(reference)
    return np.array(
        [oracle_lof(points[n + t], points[t : t + n], k) for t in range(len(query))]
    )


#: Point sets Algorithm 2 meets: generic, a few repeated vectors (stable
#: models with identical predictions), one vector throughout, coarse
#: quantised error rates, and queries repeating an earlier point.
GEOMETRIES = ("generic", "tie_pool", "all_duplicate", "quantised", "repeats")


def draw_points(seed, geometry, count, dim):
    rng = np.random.default_rng(seed)
    if geometry == "generic":
        return rng.normal(size=(count, dim))
    if geometry == "tie_pool":
        pool = rng.normal(size=(int(rng.integers(1, 4)), dim))
        return pool[rng.integers(0, len(pool), size=count)]
    if geometry == "all_duplicate":
        return np.tile(rng.normal(size=dim), (count, 1))
    if geometry == "quantised":
        return rng.integers(-2, 3, size=(count, dim)) / 7.0
    points = rng.normal(size=(count, dim))
    for i in range(1, count):
        if rng.random() < 0.5:
            points[i] = points[int(rng.integers(0, i))]
    return points


def gaussian_cluster(rng, n=30, dim=3, scale=1.0):
    return rng.normal(0.0, scale, size=(n, dim))


class TestLofScores:
    def test_uniform_cluster_scores_near_one(self, rng):
        points = gaussian_cluster(rng, n=60)
        scores = lof_scores(points, k=10)
        assert 0.8 < np.median(scores) < 1.3

    def test_planted_outlier_has_max_score(self, rng):
        points = gaussian_cluster(rng, n=40)
        points[0] = 50.0  # far outlier
        scores = lof_scores(points, k=5)
        assert scores.argmax() == 0
        assert scores[0] > 3.0

    def test_invalid_k_rejected(self, rng):
        points = gaussian_cluster(rng, n=10)
        with pytest.raises(ValueError):
            lof_scores(points, k=0)
        with pytest.raises(ValueError):
            lof_scores(points, k=10)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            lof_scores(np.zeros(5), k=2)

    def test_duplicate_cluster_scores_are_finite(self):
        points = np.zeros((10, 2))
        scores = lof_scores(points, k=3)
        assert np.all(np.isfinite(scores))
        np.testing.assert_allclose(scores, 1.0)


class TestLocalOutlierFactor:
    def test_query_inside_cluster_near_one(self, rng):
        reference = gaussian_cluster(rng, n=50)
        query = rng.normal(0.0, 1.0, size=3)
        lof = local_outlier_factor(query, reference, k=10)
        assert 0.5 < lof < 2.0

    def test_query_far_outside_is_outlier(self, rng):
        reference = gaussian_cluster(rng, n=50)
        query = np.full(3, 100.0)
        assert local_outlier_factor(query, reference, k=10) > 10.0

    def test_monotone_in_distance(self, rng):
        reference = gaussian_cluster(rng, n=50)
        lofs = [
            local_outlier_factor(np.full(3, d), reference, k=10)
            for d in (5.0, 20.0, 80.0)
        ]
        assert lofs[0] < lofs[1] < lofs[2]

    def test_duplicate_query_is_inlier(self, rng):
        reference = np.zeros((12, 2))
        assert local_outlier_factor(np.zeros(2), reference, k=4) == 1.0

    def test_scale_invariance(self, rng):
        """LOF is a density ratio: rescaling all points preserves it."""
        reference = gaussian_cluster(rng, n=40)
        query = rng.normal(size=3) * 3.0
        a = local_outlier_factor(query, reference, k=8)
        b = local_outlier_factor(query * 7.0, reference * 7.0, k=8)
        assert a == pytest.approx(b, rel=1e-9)

    def test_k_larger_than_reference_clamped(self, rng):
        reference = gaussian_cluster(rng, n=5)
        lof = local_outlier_factor(np.zeros(3), reference, k=100)
        assert np.isfinite(lof)

    def test_small_reference_rejected(self, rng):
        with pytest.raises(ValueError):
            local_outlier_factor(np.zeros(2), np.zeros((1, 2)), k=1)

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            local_outlier_factor(np.zeros(3), np.zeros((5, 2)), k=2)

    def test_non_vector_query_rejected(self):
        with pytest.raises(ValueError):
            local_outlier_factor(np.zeros((2, 2, 4)), np.zeros((5, 4)), k=2)

    def test_empty_query_batch_rejected(self):
        with pytest.raises(ValueError):
            local_outlier_factor(np.zeros((0, 4)), np.zeros((5, 4)), k=2)


class TestLofProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 40),
        dim=st.integers(1, 6),
        k=st.integers(2, 6),
    )
    def test_lof_positive_and_finite(self, seed, n, dim, k):
        """LOF is always a positive finite number for generic data."""
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(n, dim))
        query = rng.normal(size=dim)
        lof = local_outlier_factor(query, reference, k=min(k, n - 1))
        assert np.isfinite(lof)
        assert lof > 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(10.0, 1000.0))
    def test_translation_invariance(self, seed, shift):
        """LOF is computed from pairwise distances: translation-invariant."""
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(20, 3))
        query = rng.normal(size=3)
        a = local_outlier_factor(query, reference, k=5)
        b = local_outlier_factor(query + shift, reference + shift, k=5)
        assert a == pytest.approx(b, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inlier_vs_planted_outlier_ordering(self, seed):
        """A cluster member always scores below a far-away point."""
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(25, 4))
        inlier = rng.normal(size=4) * 0.5
        outlier = np.full(4, 30.0)
        assert local_outlier_factor(inlier, reference, k=6) < local_outlier_factor(
            outlier, reference, k=6
        )


class TestBatchedWindows:
    """A query batch scores every trailing window bit-identically to one
    single-query call per window."""

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        geometry=st.sampled_from(GEOMETRIES),
        n=st.integers(2, 20),
        m=st.integers(1, 12),
        dim=st.integers(1, 24),
        k_offset=st.integers(-19, 2),
    )
    def test_batch_equals_one_oracle_call_per_window(
        self, seed, geometry, n, m, dim, k_offset
    ):
        # k from 1 up to n + 1: everything from k = 1 to clamped k >= n - 1.
        k = max(1, n - 1 + k_offset)
        points = draw_points(seed, geometry, n + m, dim)
        reference, query = points[:n], points[n:]
        batched = local_outlier_factor(query, reference, k)
        assert isinstance(batched, np.ndarray) and batched.shape == (m,)
        assert np.array_equal(batched, oracle_windows(query, reference, k))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        geometry=st.sampled_from(GEOMETRIES),
        n=st.integers(2, 20),
        dim=st.integers(1, 24),
        k=st.integers(1, 22),
    )
    def test_single_query_is_a_float_equal_to_the_oracle(
        self, seed, geometry, n, dim, k
    ):
        points = draw_points(seed, geometry, n + 1, dim)
        lof = local_outlier_factor(points[n], points[:n], k)
        assert type(lof) is float
        assert lof == oracle_lof(points[n], points[:n], k)

    def test_all_duplicate_windows_score_one(self):
        points = np.ones((9, 3))
        np.testing.assert_array_equal(
            local_outlier_factor(points[5:], points[:5], k=2), np.ones(4)
        )

    def test_query_equal_to_an_earlier_query(self, rng):
        reference = rng.normal(size=(6, 2))
        query = rng.normal(size=(4, 2))
        query[3] = query[1]  # inside its window (the 6 points before it)
        batched = local_outlier_factor(query, reference, k=3)
        assert np.array_equal(batched, oracle_windows(query, reference, 3))

    def test_single_row_batch_returns_an_array(self, rng):
        reference = rng.normal(size=(8, 3))
        query = rng.normal(size=3)
        batched = local_outlier_factor(query[None, :], reference, k=4)
        assert batched.shape == (1,)
        assert batched[0] == local_outlier_factor(query, reference, k=4)
