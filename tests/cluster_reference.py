"""Reference classify kernels: the direct, slow forms that the fast kernels
in ``phasestack.cluster`` must reproduce.

``pairwise_distances_reference`` computes every pair with scipy's ``pdist``;
``agglomerate_reference`` rescans the whole masked matrix at every merge,
O(N^3).  Both take the same arguments as the kernels they check, so tests
can monkeypatch them into ``phasestack.pipeline``.

``pairwise_distances_compressed`` is the panel kernel as it was before it
read an all-valid stack in place: it always gathers the valid columns into
an (N, P) copy.  Its bits are the ones the in-place read must keep.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial.distance import pdist, squareform

from phasestack import core
from phasestack.cluster import _LOWER, _NEAR_REL, _PANEL_ROWS, Dendrogram, check_distance_matrix


def pairwise_distances_reference(frames: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Direct-metric RMS pixel differences, one ``pdist`` pass."""
    frames = np.asarray(frames, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    n_valid = int(mask.sum())
    x = frames[:, mask]
    return squareform(pdist(x, metric="euclidean") / math.sqrt(n_valid))


def pairwise_distances_compressed(frames: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``pairwise_distances`` on an (N, P) copy of the valid columns, for
    every mask."""
    frames = np.asarray(frames, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    n_valid = int(mask.sum())
    x = frames.reshape(len(frames), -1).compress(mask.ravel(), axis=1)
    n = len(x)
    sq = np.einsum("ij,ij->i", x, x)
    d = np.empty((n, n))

    def panel(lo: int) -> None:
        hi = min(lo + _PANEL_ROWS, n)
        h = hi - lo
        below = _LOWER[:h, :h]
        d2 = d[lo:hi, lo:]
        np.matmul(x[lo:hi], x[lo:].T, out=d2)
        norms = sq[lo:hi, None] + sq[None, lo:]
        np.maximum(norms - 2.0 * d2, 0.0, out=d2)
        d2[:, :h][below] = 0.0
        near = d2 <= _NEAR_REL * norms
        near[:, :h][below] = False
        for r in np.flatnonzero(near.any(axis=1)):
            js = np.flatnonzero(near[r])
            diff = x[lo + js] - x[lo + r]
            d2[r, js] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(d2, out=d2)
        np.divide(d2, math.sqrt(n_valid), out=d2)
        block = d2[:, :h]
        block += block.T
        d[hi:, lo:hi] = d2[:, h:].T

    starts = range(0, n, _PANEL_ROWS)
    with ThreadPoolExecutor(min(core.WORKERS, len(starts))) as pool:
        list(pool.map(panel, starts))
    return d


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
