"""Reference flood integration: the breadth-first frontier loop that
``phasestack.unwrap.flood_unwrap`` must reproduce bit for bit; and the
scipy graph searches that ``unwrap._bfs_tree`` and ``unwrap._border_sinks``
replaced with numpy ones, kept as their oracles.  The scipy connectivity
test, ``mask_is_connected_reference``, is the oracle of the flood's "not
4-connected" check, which reads connectivity off its tree's reach; the
tests also use it as a fact an ``unwrap.Aperture`` derives from its mask.

The loop expands one breadth-first level at a time.  Within a level it
tries the four step directions in the fixed order right, down, left, up,
and a pixel takes its k from the first direction that reaches it, so its
parent is, in priority order, the open neighbour one level up on its
left, above it, on its right, or below it.  The increments are computed
for all four directions over the whole frame before the loop starts.
It takes the same arguments as the kernel it checks.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from phasestack.core import TWO_PI, check_frame, wrap
from phasestack.unwrap import BranchCutMap, Surface, _Tree, default_seed


def mask_is_connected_reference(mask: np.ndarray) -> bool:
    """True when the valid region forms a single 4-connected component."""
    _, n = ndimage.label(mask, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool))
    return n == 1


def border_sinks_reference(mask: np.ndarray) -> np.ndarray:
    """Dual nodes whose 2x2 loop touches a border-connected invalid region
    (8-connected labels that reach the border), padded by one ring of nodes
    beyond the lattice, which are sinks too."""
    g = ~mask
    if g.any():  # keep the invalid regions that reach the border
        labels, _ = ndimage.label(g, structure=np.ones((3, 3), dtype=bool))
        edge_labels = np.unique(
            np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
        )
        g = np.isin(labels, edge_labels[edge_labels > 0])
    g = np.pad(g, 1, constant_values=True)
    return g[:-1, :-1] | g[:-1, 1:] | g[1:, :-1] | g[1:, 1:]


def bfs_tree_reference(ok_right: np.ndarray, ok_down: np.ndarray, seed: int) -> _Tree:
    """One scipy breadth-first search from the flat pixel index ``seed`` over
    the open edges (ok_right as BranchCutMap.cut_right, ok_down as cut_down)."""
    h, w = ok_right.shape[0], ok_down.shape[1]
    # Open-edge table in CSR form, four columns per row: p-w, p-1, p+1, p+w
    # where that edge is open, p itself where it is not (a self-loop is
    # never followed).
    n = h * w
    columns = np.arange(n, dtype=np.int32).reshape(h, w, 1).repeat(4, axis=2)
    columns[1:, :, 0] -= w * ok_down
    columns[:, 1:, 1] -= ok_right
    columns[:, :-1, 2] += ok_right
    columns[:-1, :, 3] += w * ok_down
    indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int32)
    graph = csr_matrix((np.ones(4 * n), columns.ravel(), indptr), shape=(n, n))
    order, found_by = breadth_first_order(graph, seed, return_predecessors=True)
    order = order.astype(np.intp)

    # FIFO order is sorted by level and each pixel's discoverer sits at a
    # non-decreasing position along it, so level L + 1 ends where the
    # discoverers pass the end of level L.
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(order.size)
    found_at = pos[found_by[order[1:]]]
    bounds = [0, 1]
    while bounds[-1] < order.size:
        bounds.append(1 + int(np.searchsorted(found_at, bounds[-1])))
    d = np.full((h, w), -1, dtype=np.int32)
    d.ravel()[order] = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
    # Each pixel's parent is its first open neighbour one level up in the
    # priority left, above, right, below: the first direction is written
    # last.  The seed's is itself.
    index = np.arange(n).reshape(h, w)
    parent = index.copy()
    np.copyto(parent[:-1, :], index[1:, :], where=ok_down & (d[1:, :] == d[:-1, :] - 1))
    np.copyto(parent[:, :-1], index[:, 1:], where=ok_right & (d[:, 1:] == d[:, :-1] - 1))
    np.copyto(parent[1:, :], index[:-1, :], where=ok_down & (d[:-1, :] == d[1:, :] - 1))
    np.copyto(parent[:, 1:], index[:, :-1], where=ok_right & (d[:, :-1] == d[:, 1:] - 1))
    return _Tree(order, pos, tuple(bounds), d, pos[parent.ravel()[order]])


def _k_increments(frame: np.ndarray):
    """Integer 2*pi counts picked up when stepping between neighbors.

    Stepping from pixel a to neighbor b adds wrap(psi_b - psi_a) to the
    running surface; in integer form k_b = k_a + rint((wrap(d) - d)/2pi)
    with d = psi_b - psi_a.  Computed for all four step directions.
    """

    def inc(d):
        return np.rint((wrap(d) - d) / TWO_PI).astype(np.int64)

    d_right = frame[:, 1:] - frame[:, :-1]
    d_down = frame[1:, :] - frame[:-1, :]
    return inc(d_right), inc(-d_right), inc(d_down), inc(-d_down)


def flood_unwrap_reference(
    frame: np.ndarray,
    mask: np.ndarray | None = None,
    cuts: BranchCutMap | None = None,
    seed: tuple | None = None,
) -> Surface:
    """Frontier-loop flood fill from a seed pixel, never crossing a cut edge."""
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    h, w = frame.shape
    if mask is None:
        mask = np.ones((h, w), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    if not mask_is_connected_reference(mask):
        raise ValueError("flood_unwrap: valid region is not 4-connected")
    if cuts is None:
        cuts = BranchCutMap(
            cut_right=np.zeros((h, w - 1), dtype=bool),
            cut_down=np.zeros((h - 1, w), dtype=bool),
        )
    if seed is None:
        seed = default_seed(mask)
    sr, sc = seed
    if not (0 <= sr < h and 0 <= sc < w) or not mask[sr, sc]:
        raise ValueError("flood_unwrap: seed pixel is not valid")

    inc_r, inc_l, inc_d, inc_u = _k_increments(frame)
    ok_right = mask[:, :-1] & mask[:, 1:] & ~cuts.cut_right
    ok_down = mask[:-1, :] & mask[1:, :] & ~cuts.cut_down

    k = np.zeros((h, w), dtype=np.int64)
    visited = np.zeros((h, w), dtype=bool)
    visited[sr, sc] = True
    front_r = np.array([sr])
    front_c = np.array([sc])
    while front_r.size:
        new_r, new_c = [], []
        # fixed direction order: right, down, left, up
        for dr, dc, ok, inc in (
            (0, 1, ok_right, inc_r),
            (1, 0, ok_down, inc_d),
            (0, -1, ok_right, inc_l),
            (-1, 0, ok_down, inc_u),
        ):
            if dc == 1:
                sel = (front_c < w - 1) & ok[front_r, np.minimum(front_c, w - 2)]
            elif dc == -1:
                sel = (front_c > 0) & ok[front_r, np.maximum(front_c - 1, 0)]
            elif dr == 1:
                sel = (front_r < h - 1) & ok[np.minimum(front_r, h - 2), front_c]
            else:
                sel = (front_r > 0) & ok[np.maximum(front_r - 1, 0), front_c]
            r0, c0 = front_r[sel], front_c[sel]
            r1, c1 = r0 + dr, c0 + dc
            fresh = ~visited[r1, c1]
            r0, c0, r1, c1 = r0[fresh], c0[fresh], r1[fresh], c1[fresh]
            if dc == 1:
                k[r1, c1] = k[r0, c0] + inc[r0, c0]
            elif dc == -1:
                k[r1, c1] = k[r0, c0] + inc[r0, c0 - 1]
            elif dr == 1:
                k[r1, c1] = k[r0, c0] + inc[r0, c0]
            else:
                k[r1, c1] = k[r0, c0] + inc[r0 - 1, c0]
            visited[r1, c1] = True
            new_r.append(r1)
            new_c.append(c1)
        front_r = np.concatenate(new_r)
        front_c = np.concatenate(new_c)

    values = np.where(visited, frame + TWO_PI * k, 0.0)
    n_valid = int(mask.sum())
    n_reached = int(visited.sum())
    warning = None
    if n_reached < n_valid:
        unreachable = n_valid - n_reached
        if unreachable > 0.5 * n_valid:
            warning = (
                f"unwrap reached only {n_reached} of {n_valid} valid pixels; "
                "branch cuts isolated most of the aperture"
            )
    return Surface(values=values, mask=visited, warning=warning)
