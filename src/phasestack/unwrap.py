"""Goldstein branch-cut phase unwrapping.

Residues (from phase_core.detect_residues) live on the dual lattice: the
charge at (i, j) sits between the four pixels whose top-left corner is
(i, j).  Branch cuts are blocked pixel edges; the flood-fill integration
never crosses a blocked edge, so no integration path can encircle an
unbalanced residue.

Unwrapped values are computed as psi + 2*pi*k with integer k propagated
from the seed down a breadth-first spanning tree, which makes path
independence and the output-minus-input multiple-of-2*pi property exact
rather than accumulation-limited.

The facts that depend on the mask alone (4-connectivity, border sinks) are
derived once per distinct mask and reused while consecutive calls share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .core import TWO_PI, check_frame, detect_residues, mask_is_connected, wrap


@dataclass
class Surface:
    """Continuous (unwrapped) phase surface.

    values is in radians, defined up to a global additive 2*pi*k; mask
    marks the pixels actually reached by the integration.  warning is set
    when more than half of the valid input pixels were unreachable.
    """

    values: np.ndarray
    mask: np.ndarray
    warning: str | None = None


@dataclass
class BranchCutMap:
    """Blocked pixel edges barring integration paths.

    cut_right[r, c] blocks the edge between pixels (r, c) and (r, c+1);
    cut_down[r, c] blocks the edge between (r, c) and (r+1, c).
    """

    cut_right: np.ndarray
    cut_down: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.cut_right.sum()) + int(self.cut_down.sum())

    def block_step(self, r: int, c: int, dr: int, dc: int) -> None:
        """Block the pixel edge crossed by a unit dual-lattice step."""
        if dc == 1:
            er, ec, arr = r, c + 1, self.cut_down
        elif dc == -1:
            er, ec, arr = r, c, self.cut_down
        elif dr == 1:
            er, ec, arr = r + 1, c, self.cut_right
        else:
            er, ec, arr = r, c, self.cut_right
        if 0 <= er < arr.shape[0] and 0 <= ec < arr.shape[1]:
            arr[er, ec] = True


def _cut_path(cuts: BranchCutMap, r0: int, c0: int, r1: int, c1: int) -> None:
    """Block edges along a 4-connected Bresenham path between dual nodes."""
    dr, dc = r1 - r0, c1 - c0
    sr = 1 if dr >= 0 else -1
    sc = 1 if dc >= 0 else -1
    dr, dc = abs(dr), abs(dc)
    r, c = r0, c0
    if dc >= dr:
        err = dc // 2
        for _ in range(dc):
            cuts.block_step(r, c, 0, sc)
            c += sc
            err -= dr
            if err < 0:
                cuts.block_step(r, c, sr, 0)
                r += sr
                err += dc
    else:
        err = dr // 2
        for _ in range(dr):
            cuts.block_step(r, c, sr, 0)
            r += sr
            err -= dc
            if err < 0:
                cuts.block_step(r, c, 0, sc)
                c += sc
                err += dr


def _border_sinks(mask: np.ndarray) -> np.ndarray:
    """Dual nodes whose 2x2 loop touches a border-connected invalid region.

    Interior invalid holes are not sinks: a cut ending at one would not
    stop integration paths from circling around it.
    """
    h, w = mask.shape
    invalid = ~mask
    if not invalid.any():
        return np.zeros((h - 1, w - 1), dtype=bool)
    labels, _ = ndimage.label(invalid, structure=np.ones((3, 3), dtype=bool))
    edge_labels = np.unique(
        np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
    )
    grounded = np.isin(labels, edge_labels[edge_labels > 0])
    g = grounded
    touches = g[:-1, :-1] | g[:-1, 1:] | g[1:, :-1] | g[1:, 1:]
    return touches


@functools.lru_cache(maxsize=1)
def _mask_facts(shape: tuple, mask_bytes: bytes) -> tuple:
    """(mask_is_connected(mask), _border_sinks(mask)) of the bool mask with
    these C-order bytes.  Keyed on the bytes, so a run of frames on one mask
    derives them once and a mask edited in place cannot hit a stale entry;
    the sinks are read-only because every caller shares them."""
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    sinks = _border_sinks(mask)
    sinks.flags.writeable = False
    return mask_is_connected(mask), sinks


def place_branch_cuts(charges: np.ndarray, mask: np.ndarray | None = None) -> BranchCutMap:
    """Goldstein branch-cut placement.

    Residues are visited in raster order.  Around each unbalanced residue
    a square search box grows one ring at a time (up to max(width, height));
    ring cells are scanned in raster order and the first hit wins: an
    opposite-charge unbalanced residue is paired with a cut chain, while a
    cell beyond the lattice or on a border-connected invalid region
    grounds the residue with a cut to the border.  Every residue ends
    balanced because the border is always reachable.
    """
    charges = np.asarray(charges)
    if charges.ndim != 2:
        raise ValueError("place_branch_cuts: charges must be 2-D")
    hh, ww = charges.shape
    h, w = hh + 1, ww + 1
    cuts = BranchCutMap(
        cut_right=np.zeros((h, w - 1), dtype=bool),
        cut_down=np.zeros((h - 1, w), dtype=bool),
    )
    if mask is None:
        sinks = np.zeros((hh, ww), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (h, w):
            raise ValueError("place_branch_cuts: mask shape mismatch")
        sinks = _mask_facts(mask.shape, mask.tobytes())[1]
    positions = np.argwhere(charges != 0)
    if positions.size == 0:
        return cuts

    balanced = np.zeros((hh, ww), dtype=bool)
    max_radius = max(h, w)
    for i0, j0 in positions:
        if balanced[i0, j0]:
            continue
        sign = charges[i0, j0]
        done = False
        for radius in range(1, max_radius + 1):
            for i, j in _ring(i0, j0, radius):
                inside = 0 <= i < hh and 0 <= j < ww
                if not inside or sinks[i, j]:
                    _cut_path(cuts, i0, j0, i, j)
                    balanced[i0, j0] = True
                    done = True
                    break
                if charges[i, j] == -sign and not balanced[i, j]:
                    _cut_path(cuts, i0, j0, i, j)
                    balanced[i0, j0] = True
                    balanced[i, j] = True
                    done = True
                    break
            if done:
                break
        if not done:  # unreachable: border ring always exists within max_radius
            raise AssertionError("branch cut search failed to terminate")
    return cuts


def _ring(i0: int, j0: int, r: int):
    """Cells at Chebyshev distance r from (i0, j0), in raster order."""
    out = []
    for j in range(j0 - r, j0 + r + 1):
        out.append((i0 - r, j))
    for i in range(i0 - r + 1, i0 + r):
        out.append((i, j0 - r))
        out.append((i, j0 + r))
    for j in range(j0 - r, j0 + r + 1):
        out.append((i0 + r, j))
    return out


def default_seed(mask: np.ndarray) -> tuple:
    """Valid pixel nearest the mask centroid (raster order on ties)."""
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise ValueError("default_seed: mask has no valid pixels")
    cy, cx = rows.mean(), cols.mean()
    k = np.argmin((rows - cy) ** 2 + (cols - cx) ** 2)
    return int(rows[k]), int(cols[k])


def flood_unwrap(
    frame: np.ndarray,
    mask: np.ndarray | None = None,
    cuts: BranchCutMap | None = None,
    seed: tuple | None = None,
) -> Surface:
    """Flood-fill integration from a seed pixel, never crossing a cut edge.

    The seed keeps its input value; every reached pixel gets its parent's
    value plus wrap(pixel - parent).  The pixels reached, and their
    breadth-first levels, come from one scipy breadth-first search over
    the graph of open edges (both ends valid, edge not cut).  A pixel's
    parent is its open neighbour one level up, taken in the priority
    left, above, right, below; k then propagates down that tree one level
    at a time.  Pixels that cannot be reached without crossing a cut are
    invalid in the output mask.
    """
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    h, w = frame.shape
    if mask is None:
        mask = np.ones((h, w), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    if not _mask_facts(mask.shape, mask.tobytes())[0]:
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

    ok_right = mask[:, :-1] & mask[:, 1:] & ~cuts.cut_right
    ok_down = mask[:-1, :] & mask[1:, :] & ~cuts.cut_down
    # Open-edge table in CSR form, four columns per row: p-w, p-1, p+1, p+w
    # where that edge is open, p itself where it is not (a self-loop is
    # never followed).  Rows need not be sorted: the levels, and the parents
    # chosen below by direction priority, do not depend on neighbour order.
    n = h * w
    columns = np.arange(n, dtype=np.int32).reshape(h, w, 1).repeat(4, axis=2)
    columns[1:, :, 0] -= w * ok_down
    columns[:, 1:, 1] -= ok_right
    columns[:, :-1, 2] += ok_right
    columns[:-1, :, 3] += w * ok_down
    indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int32)
    graph = csr_matrix((np.ones(4 * n), columns.ravel(), indptr), shape=(n, n))
    order, found_by = breadth_first_order(graph, sr * w + sc, return_predecessors=True)
    order = order.astype(np.intp)
    del graph, columns  # 52 bytes a pixel, freed before the tree's arrays are built

    # FIFO order is sorted by level and each pixel's discoverer sits at a
    # non-decreasing position along it, so level L + 1 ends where the
    # discoverers pass the end of level L.
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(order.size)
    found_at = pos[found_by[order[1:]]]
    bounds = [0, 1]
    while bounds[-1] < order.size:
        bounds.append(1 + int(np.searchsorted(found_at, bounds[-1])))
    depth = np.full(n, -1, dtype=np.int32)
    depth[order] = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))

    # Each pixel's parent is its open neighbour one level up, in the
    # priority left, above, right, below: lowest priority is written first.
    d = depth.reshape(h, w)
    to_parent = np.zeros((h, w), dtype=np.intp)
    np.copyto(to_parent[:-1, :], w, where=ok_down & (d[1:, :] == d[:-1, :] - 1))
    np.copyto(to_parent[:, :-1], 1, where=ok_right & (d[:, 1:] == d[:, :-1] - 1))
    np.copyto(to_parent[1:, :], -w, where=ok_down & (d[:-1, :] == d[1:, :] - 1))
    np.copyto(to_parent[:, 1:], -1, where=ok_right & (d[:, :-1] == d[:, 1:] - 1))
    parent = order + to_parent.ravel()[order]
    psi = frame.ravel()[order]
    diff = psi - frame.ravel()[parent]
    inc = np.rint((wrap(diff) - diff) / TWO_PI).astype(np.int64)
    up = pos[parent]
    k = np.zeros(order.size, dtype=np.int64)
    for start, stop in zip(bounds[1:-1], bounds[2:]):
        k[start:stop] = k[up[start:stop]] + inc[start:stop]
    values = np.zeros((h, w))
    values.ravel()[order] = psi + TWO_PI * k

    n_valid = int(mask.sum())
    n_reached = order.size
    warning = None
    if n_valid - n_reached > 0.5 * n_valid:
        warning = (
            f"unwrap reached only {n_reached} of {n_valid} valid pixels; "
            "branch cuts isolated most of the aperture"
        )
    return Surface(values=values, mask=d >= 0, warning=warning)


def unwrap(frame: np.ndarray, mask: np.ndarray | None = None, seed: tuple | None = None) -> Surface:
    """Goldstein unwrap of one frame: residue detection, branch-cut
    placement, then flood integration from ``seed``."""
    charges = detect_residues(frame, mask)
    cuts = place_branch_cuts(charges, mask)
    return flood_unwrap(frame, mask, cuts, seed=seed)
