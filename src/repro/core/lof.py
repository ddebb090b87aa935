"""Local Outlier Factor, from scratch (Breunig et al., SIGMOD 2000).

BaFFLe flags a model update as suspicious when its error-variation feature
vector is an outlier relative to recent history, in the LOF sense
(paper Sec. V, Algorithm 2 line 11).

Definitions (for a query point ``x`` against a reference set ``N``):

- ``k-distance(p)``: distance from ``p`` to its k-th nearest neighbour;
- reachability distance: ``reach_k(x, o) = max(k-distance(o), d(x, o))``;
- local reachability density: ``lrd_k(x) = 1 / mean_o reach_k(x, o)`` over
  the k nearest neighbours ``o`` of ``x``;
- ``LOF_k(x) = mean_o lrd_k(o) / lrd_k(x)``.

``LOF ~ 1`` means the point is as dense as its neighbours; ``LOF >> 1``
marks an outlier.  Degenerate geometry (duplicate points producing zero
reachability) is handled in two steps: densities are capped at ``1/eps``,
and a point whose own density hits the cap is defined to have ``LOF = 1``
— an infinitely dense point duplicates its neighbourhood and can never be
an outlier.  This matters in BaFFLe's regime: on small validation sets
consecutive stable models often make *identical* predictions, so
error-variation vectors frequently coincide exactly.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _k_nearest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row indices of the k nearest columns and their distances.

    ``dists`` is a (..., Q, R) stack of query-to-reference distances where a
    query's own column (if present) has already been masked to infinity.
    Both results are nearest first, so ``near[..., -1]`` is the k-distance.
    """
    neighbors = np.argsort(dists, axis=-1)[..., :k]
    return neighbors, np.take_along_axis(dists, neighbors, axis=-1)


def lof_scores(points: np.ndarray, k: int) -> np.ndarray:
    """LOF of every point in ``points`` w.r.t. the other points.

    Standard "batch" LOF: each point's neighbourhood excludes itself.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    n = len(points)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    dists = _pairwise_distances(points, points)
    np.fill_diagonal(dists, np.inf)
    neighbors, near = _k_nearest(dists, k)
    # reach(i, j) = max(k_dist[j], d(i, j)) for j in kNN(i)
    reach = np.maximum(near[:, -1][neighbors], near)
    mean_reach = reach.mean(axis=1)
    lrd = 1.0 / np.maximum(mean_reach, _EPS)
    scores = (lrd[neighbors].mean(axis=1)) / lrd
    # Density-capped points duplicate their neighbourhood: define LOF = 1.
    scores[mean_reach <= _EPS] = 1.0
    return scores


def local_outlier_factor(
    query: np.ndarray, reference: np.ndarray, k: int
) -> float | np.ndarray:
    """``LOF_k(query; reference)``: outlier-ness of a point vs a set.

    This is the form Algorithm 2 uses: the newest error-variation vector is
    scored against the recent history (the query is *not* part of the
    reference set).  Densities of the reference points are computed within
    the reference set itself.

    A ``(m, d)`` query batch scores Algorithm 2's trailing windows in one
    call: in the sequence ``reference[0..n-1], query[0..m-1]`` each query is
    scored against the ``n`` points that precede it, and an array of ``m``
    LOFs comes back.  One distance matrix over all ``n + m`` points serves
    every window, whose reference block and query row are strided slices of
    it.  Every window computes exactly what a single-query call on that
    window would, so the batch is bit-identical to one call per window.
    """
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    queries = query[None, :] if query.ndim == 1 else query
    if queries.ndim != 2:
        raise ValueError(f"query must be (d,) or (m, d), got shape {query.shape}")
    dim = queries.shape[1]
    if reference.ndim != 2 or reference.shape[1] != dim:
        raise ValueError(f"reference must be (n, {dim}), got shape {reference.shape}")
    n, m = len(reference), len(queries)
    if n < 2:
        raise ValueError("need at least 2 reference points")
    if m < 1:
        raise ValueError("need at least 1 query")
    k = min(k, n - 1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    points = np.concatenate([reference, queries])
    dists = _pairwise_distances(points, points)
    # Every window's self-distances sit on the main diagonal; no query row
    # reaches it (query t's window ends just before it).
    np.fill_diagonal(dists, np.inf)
    s0, s1 = dists.strides
    as_strided = np.lib.stride_tricks.as_strided
    # Window t: reference block dists[t:t+n, t:t+n], query row dists[n+t, t:t+n].
    ref_dists = as_strided(dists, (m, n, n), (s0 + s1, s0, s1), writeable=False)
    q_dists = as_strided(dists[n], (m, n), (s0 + s1, s1), writeable=False)

    ref_neighbors, ref_near = _k_nearest(ref_dists, k)
    ref_k_dist = ref_near[..., -1]
    ref_reach = np.maximum(
        np.take_along_axis(ref_k_dist[:, None, :], ref_neighbors, axis=-1), ref_near
    )
    ref_lrd = 1.0 / np.maximum(ref_reach.mean(axis=-1), _EPS)

    q_neighbors = np.argsort(q_dists, axis=-1)[:, :k]
    q_reach = np.maximum(
        np.take_along_axis(ref_k_dist, q_neighbors, axis=-1),
        np.take_along_axis(q_dists, q_neighbors, axis=-1),
    )
    q_mean_reach = q_reach.mean(axis=-1)
    # A query coinciding with a dense duplicate cluster is an inlier.
    duplicate = q_mean_reach <= _EPS
    q_lrd = 1.0 / np.where(duplicate, 1.0, q_mean_reach)
    scores = np.take_along_axis(ref_lrd, q_neighbors, axis=-1).mean(axis=-1) / q_lrd
    scores[duplicate] = 1.0
    return float(scores[0]) if query.ndim == 1 else scores
