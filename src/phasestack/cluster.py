"""Pattern classification of pre-processed wrapped frames: pairwise
distances, average-linkage agglomeration, and minimum-sampling cluster
selection.

Distances are RMS pixel differences of the piston-shifted, pooled wrapped
values (direct subtraction, no circular difference); the RMS normalization
keeps cut thresholds comparable across pupil sizes.

Cost for N frames of P valid pixels: O(N^2 P) for the distances (Gram
products of 128-row panels, on ``core.WORKERS`` threads), O(N^2) typical for
the linkage (cached nearest neighbours, on the calling thread), never worse
than the O(N^3) of a full rescan per merge.  Both are exact where exactness
decides the partition: identical frames are exactly 0.0 apart, and the
merge list, ties and heights included, is the one a full rescan with the
min-leaf tie rule gives.  The distances' bits do not depend on the worker
count.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import core

# Squared distances below this fraction of |x_i|^2 + |x_j|^2 are recomputed
# by direct subtraction (see pairwise_distances).
_NEAR_REL = 1e-3

# Rows per panel of pairwise_distances.  Panels start at multiples of 64
# rows, where OpenBLAS 0.3.31 gave every Gram entry the bits of one whole
# x @ x.T when N is a multiple of 8 (with other N the last N mod 8 columns
# moved by up to 5e-13, as they do between OpenBLAS thread counts); panels
# of 100 or 131 rows moved entries by up to 7e-12, and those bits decide
# ties in the linkage.
_PANEL_ROWS = 128
_LOWER = np.tri(_PANEL_ROWS, dtype=bool)


class NoClusterError(RuntimeError):
    """No cluster met the minimum sampling number."""

    def __init__(self, message: str, clusters: "ClusterSet | None" = None):
        super().__init__(message)
        self.clusters = clusters


def pairwise_distances(frames: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Symmetric matrix of RMS pixel differences over the valid region.

    d(i, j) = sqrt( sum_valid (W_i - W_j)^2 / n_valid ), by direct
    subtraction of the wrapped values.

    The squared distances come from Gram products,
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j, in O(N^2 P) for N frames of P valid
    pixels.  Pairs whose squared distance falls below _NEAR_REL of
    |x_i|^2 + |x_j|^2, where the Gram form loses its relative accuracy to
    cancellation, are recomputed by direct subtraction, so identical
    frames are exactly 0.0 apart.  The result is exactly symmetric with a
    zero diagonal.

    The strict upper triangle is computed in panels of _PANEL_ROWS rows
    [lo, hi) by columns [lo, N), on ``core.WORKERS`` threads (numpy and
    BLAS release the GIL).  Each panel writes its Gram product straight
    into its part of the result, works on it in place with panel-sized
    temporaries, and mirrors it below the diagonal, so no N x N temporary
    exists; the bits do not depend on the worker count.

    With every pixel valid the panels read ``frames`` in place, as the
    C-contiguous (N, P) matrix ``frames.reshape(N, -1)``, with the bits of
    a copy; other masks cost an (N, P) copy of the valid columns.
    """
    frames = np.asarray(frames, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if frames.ndim != 3 or frames.shape[0] < 2:
        raise ValueError("pairwise_distances: need at least 2 frames")
    if frames.shape[1:] != mask.shape:
        raise ValueError("pairwise_distances: frame/mask shape mismatch")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("pairwise_distances: no valid pixels")
    n = len(frames)
    x = frames.reshape(n, -1)
    # compress copies the valid columns, several times faster than the same
    # gather by boolean indexing; with every pixel valid x is the frames
    x = np.ascontiguousarray(x) if n_valid == mask.size else x.compress(mask.ravel(), axis=1)
    sq = np.einsum("ij,ij->i", x, x)
    d = np.empty((n, n))

    def panel(lo: int) -> None:
        hi = min(lo + _PANEL_ROWS, n)
        h = hi - lo
        below = _LOWER[:h, :h]  # the diagonal block's lower part
        d2 = d[lo:hi, lo:]
        # one gemm: a syrk of the diagonal block saves half its work, but
        # with BLAS at its default thread count it doubled the time at N = 2000
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
        # mirror into the rows below, which no other panel writes; the
        # block's own lower part holds 0.0, so this is d + d.T bit for bit
        block = d2[:, :h]
        block += block.T
        d[hi:, lo:hi] = d2[:, h:].T

    starts = range(0, n, _PANEL_ROWS)
    with ThreadPoolExecutor(min(core.WORKERS, len(starts))) as pool:
        list(pool.map(panel, starts))
    return d


def check_distance_matrix(d: np.ndarray) -> None:
    d = np.asarray(d)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 2:
        raise ValueError("distance matrix must be square with n >= 2")
    lo, hi = d.min(), d.max()  # both propagate NaN, so they check finiteness too
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("distance matrix must be finite")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    if lo < 0.0:
        raise ValueError("distance matrix must be nonnegative")


@dataclass
class Dendrogram:
    """Merge tree of agglomerative clustering.

    merges[t] = (a, b, height): clusters a and b (leaves are 0..n-1, the
    t-th merge creates cluster n + t) joined at the given height, with
    min-leaf(a) < min-leaf(b).  Heights are nondecreasing.
    """

    n_leaves: int
    merges: list = field(default_factory=list)

    @property
    def heights(self) -> np.ndarray:
        return np.array([m[2] for m in self.merges], dtype=np.float64)

    @property
    def normalized_heights(self) -> np.ndarray:
        h = self.heights
        top = h[-1] if len(h) else 0.0
        if top == 0.0:
            return np.zeros_like(h)
        return h / top

    def to_dict(self) -> dict:
        """JSON-friendly form for external plotting."""
        return {
            "leaf_count": self.n_leaves,
            "merges": [[int(a), int(b), float(h)] for a, b, h in self.merges],
            "normalized_heights": [float(v) for v in self.normalized_heights],
        }


def agglomerate(d: np.ndarray) -> Dendrogram:
    """Average-linkage (UPGMA) agglomeration of a distance matrix.

    At each step the pair of clusters with the minimal average
    inter-cluster distance is merged; exact ties are broken by the lowest
    min-leaf index of the first cluster, then of the second.  This makes
    the output fully deterministic.

    Each slot i caches its nearest neighbour among the slots above it,
    (nn[i], nd[i]), ties going to the lowest slot (Muellner 2011,
    arXiv:1109.2378).  The merged cluster keeps the slot of its lower
    min-leaf, so a slot's index is its min-leaf and the tie rule's pair is
    the first slot holding min(nd) with its cached neighbour.  A merge
    rescans only the slots whose neighbour was merged; the others compare
    their cache with the merged cluster's new distance.  O(N^2) when few
    slots share a neighbour, never worse than the O(N^3) full rescan.  The
    Lance-Williams update is the full rescan's expression, so merges and
    heights are bit-identical to it.
    """
    check_distance_matrix(d)
    n = d.shape[0]
    # a retired slot's row and column hold inf, above any finite distance
    work = np.asarray(d, dtype=np.float64).copy()
    np.fill_diagonal(work, np.inf)
    # per-merge scalars as Python ints: numpy scalar indexing costs more
    cluster_id = list(range(n))
    size = [1] * n
    nn = np.full(n, -1)
    nd = np.full(n, np.inf)
    retired = []  # sorted

    def rescan(i: int) -> None:
        j = i + 1 + int(work[i, i + 1 :].argmin())
        nn[i], nd[i] = j, work[i, j]

    for i in range(n - 1):
        rescan(i)

    merges = []
    last_height = 0.0
    for step in range(n - 1):
        p = int(nd.argmin())
        q = int(nn[p])
        h = float(nd[p])
        if h < last_height:
            raise AssertionError("average-linkage heights must be nondecreasing")
        last_height = h
        merges.append((cluster_id[p], cluster_id[q], h))

        # Lance-Williams update for average linkage; slot p keeps the merge
        # (entries of p, q and retired slots come out inf).  Row q is never
        # read again, only column q.
        sp, sq = size[p], size[q]
        if sp == sq == 1:
            row = (work[p] + work[q]) / 2  # the bits of (1 * a + 1 * b) / (1 + 1)
        else:
            row = (sp * work[p] + sq * work[q]) / (sp + sq)
        work[p] = work[:, p] = row
        work[:, q] = np.inf
        size[p] = sp + sq
        cluster_id[p] = n + step

        # slots whose neighbour was merged rescan; the slots below p compare
        # their cache with the merged cluster, the lower slot winning a tie.
        # The merged row averages two distances a cache is at most, so it
        # undercuts one only by a tie or by rounding: test that first.
        stale = np.flatnonzero((nn == p) | (nn == q)).tolist()
        nn[q], nd[q] = -1, np.inf
        bisect.insort(retired, q)
        head = row[:p]
        # inf > inf is False at a retired slot, as at a live one the row ties
        if np.count_nonzero(head > nd[:p]) < p - bisect.bisect_left(retired, p):
            closer = (head < nd[:p]) | ((head == nd[:p]) & (p < nn[:p]))
            nn[:p][closer] = p
            nd[:p][closer] = head[closer]
        for i in stale:
            rescan(i)

    return Dendrogram(n_leaves=n, merges=merges)


@dataclass
class ClusterSet:
    """Partition of frame indices into chosen and abandoned clusters.

    Clusters are sorted-index lists, ordered by their smallest member.
    """

    chosen: list
    abandoned: list
    min_samples: int
    cut: float

    @property
    def all_frames(self) -> int:
        return sum(len(c) for c in self.chosen) + sum(len(c) for c in self.abandoned)

    @property
    def abandoned_frame_indices(self) -> list:
        return sorted(i for c in self.abandoned for i in c)


def min_samples_from_fraction(fraction: float, n_frames: int) -> int:
    """Convert a minimum sampling fraction of N into a frame count (ceil)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("min_fraction must be in (0, 1)")
    return max(1, math.ceil(fraction * n_frames))


def select_clusters(dendrogram: Dendrogram, cut: float, min_samples: int) -> ClusterSet:
    """Cut the dendrogram at a normalized height and apply the minimum
    sampling number.

    Clusters are the connected groups produced by merges strictly below
    ``cut`` (a fraction of the maximum merge height).  Clusters with at
    least ``min_samples`` members are chosen; the rest are abandoned as
    insufficiently sampled.

    Raises
    ------
    NoClusterError
        If no cluster meets the minimum sampling number.  The exception
        carries the all-abandoned ClusterSet for reporting.
    """
    if not 0.0 < cut <= 1.0:
        raise ValueError("cut must be in (0, 1]")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    n = dendrogram.n_leaves
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a leaf inside each cluster id: ids >= n are the earlier merges
    leaf_of = list(range(n))
    norm = dendrogram.normalized_heights
    for t, (a, b, _h) in enumerate(dendrogram.merges):
        if norm[t] >= cut:
            break
        ra, rb = find(leaf_of[a]), find(leaf_of[b])
        parent[rb] = ra
        leaf_of.append(ra)

    groups: dict[int, list] = {}
    for leaf in range(n):
        groups.setdefault(find(leaf), []).append(leaf)
    clusters = sorted(groups.values(), key=lambda c: c[0])

    chosen = [sorted(c) for c in clusters if len(c) >= min_samples]
    abandoned = [sorted(c) for c in clusters if len(c) < min_samples]
    result = ClusterSet(chosen=chosen, abandoned=abandoned, min_samples=min_samples, cut=cut)
    if not chosen:
        raise NoClusterError("no cluster met the minimum sampling number", clusters=result)
    return result
