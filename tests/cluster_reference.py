"""Reference classify kernels: the direct, slow forms that the fast kernels
in ``phasestack.cluster`` must reproduce.

``pairwise_distances_reference`` computes every pair with scipy's ``pdist``;
``agglomerate_reference`` rescans the whole masked matrix at every merge,
O(N^3).  Both take the same arguments as the kernels they check, so tests
can monkeypatch them into ``phasestack.pipeline``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import pdist, squareform

from phasestack.cluster import Dendrogram, check_distance_matrix


def pairwise_distances_reference(frames: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Direct-metric RMS pixel differences, one ``pdist`` pass."""
    frames = np.asarray(frames, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    n_valid = int(mask.sum())
    x = frames[:, mask]
    return squareform(pdist(x, metric="euclidean") / math.sqrt(n_valid))


def agglomerate_reference(d: np.ndarray) -> Dendrogram:
    """Average-linkage agglomeration by a full rescan at every merge.

    Exact ties are broken by the lowest min-leaf index of the first
    cluster, then of the second.
    """
    check_distance_matrix(d)
    n = d.shape[0]
    work = np.asarray(d, dtype=np.float64).copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    cluster_id = np.arange(n)
    size = np.ones(n, dtype=np.int64)
    min_leaf = np.arange(n)

    merges = []
    last_height = 0.0
    for step in range(n - 1):
        masked = np.where(active[:, None] & active[None, :], work, np.inf)
        h = masked.min()
        ties = np.argwhere(masked == h)
        # orient each candidate pair by min-leaf, then pick lexicographically
        best = None
        for i, j in ties:
            if i >= j:
                continue
            a, b = (i, j) if min_leaf[i] <= min_leaf[j] else (j, i)
            key = (min_leaf[a], min_leaf[b])
            if best is None or key < best[0]:
                best = (key, a, b)
        _, p, q = best
        if h < last_height:
            raise AssertionError("average-linkage heights must be nondecreasing")
        last_height = h
        merges.append((int(cluster_id[p]), int(cluster_id[q]), float(h)))

        # Lance-Williams update for average linkage; slot p keeps the merge
        rest = active.copy()
        rest[[p, q]] = False
        work[p, rest] = (size[p] * work[p, rest] + size[q] * work[q, rest]) / (
            size[p] + size[q]
        )
        work[rest, p] = work[p, rest]
        active[q] = False
        size[p] += size[q]
        cluster_id[p] = n + step
        min_leaf[p] = min(min_leaf[p], min_leaf[q])

    return Dendrogram(n_leaves=n, merges=merges)
