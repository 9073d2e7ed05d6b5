"""Goldstein branch-cut phase unwrapping.

Residues (from phase_core.detect_residues) live on the dual lattice: the
charge at (i, j) sits between the four pixels whose top-left corner is
(i, j).  Branch cuts are blocked pixel edges; the flood-fill integration
never crosses a blocked edge, so no integration path can encircle an
unbalanced residue.

Unwrapped values are computed as psi + 2*pi*k with integer k propagated
from the seed down a breadth-first spanning tree, which makes path
independence and the output-minus-input multiple-of-2*pi property exact
rather than accumulation-limited.  Each step's change of k comes from two
comparisons of its difference with +-pi (``core.turns``), not a float wrap.

A pixel's parent is its first open neighbour one level up in the
priority left, above, right, below.  One numpy breadth-first search of a
neighbour table (``core.breadth_first_levels``) picks the parents, and
finds the border sinks too.  What depends on the mask alone, such as the
cut-free tree, is kept by an ``Aperture``; each frame's tree is that
tree, repaired only where the frame's cuts remove a pixel's edge to its
parent (``flood_unwrap``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    STEPS_8,
    TWO_PI,
    breadth_first_levels,
    check_frame,
    check_mask,
    detect_residues,
    neighbour_table,
    turns,
)


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


def _border_sinks(mask: np.ndarray) -> np.ndarray:
    """Dual nodes whose 2x2 loop touches a border-connected invalid region,
    padded by one ring of nodes beyond the lattice, which are sinks too.

    Interior invalid holes are not sinks: a cut ending at one would not
    stop integration paths from circling around it.  The invalid pixels of
    a row or column run that starts at the border are border-connected, and
    on an aperture such as a disk they are all of them; only when other
    invalid pixels remain does a search, 8-connected through invalid
    pixels, start from those runs.
    """
    g = ~mask
    runs = (np.logical_and.accumulate(g, axis=0) | np.logical_and.accumulate(g[::-1], axis=0)[::-1]
            | np.logical_and.accumulate(g, axis=1)
            | np.logical_and.accumulate(g[:, ::-1], axis=1)[:, ::-1])
    if (runs != g).any():
        reached = breadth_first_levels(neighbour_table(g, STEPS_8), np.flatnonzero(runs[g]))[0]
        runs.ravel()[np.flatnonzero(g)[reached]] = True
    g = np.pad(runs, 1, constant_values=True)
    sinks = g[:-1, :-1] | g[:-1, 1:] | g[1:, :-1] | g[1:, 1:]
    sinks.flags.writeable = False  # an aperture shares it between calls
    return sinks


#: Cell state of a sink: a cell on a border-connected invalid region or
#: outside the lattice.  Charges are read as bytes: +1 as 1, -1 as 255.
_SINK = 2


def _ring_offsets(r: int, width: int) -> list:
    """Flat offsets of the cells at Chebyshev distance r from a cell of a
    grid ``width`` cells wide, in raster order."""
    return [di * width + dj for di in range(-r, r + 1)
            for dj in range(-r, r + 1, 1 if abs(di) == r else 2 * r)]


def _path_offsets(offset: int, width: int, base: int) -> tuple:
    """Flat offsets, from the start cell, of the pixel edges blocked by the
    4-connected Bresenham path to the cell ``offset`` away: a step between
    cells p and q blocks cut_down at min(p, q) along a row and cut_right at
    base + min(p, q) along a column.  No search reaches width / 2 columns
    away (see ``place_branch_cuts``), so the offset decides the steps."""
    half = width // 2
    di, dj = divmod(offset + half, width)
    dj -= half
    axes = [(1 if dj >= 0 else -1, 0, abs(dj)), (width if di >= 0 else -width, base, abs(di))]
    if abs(dj) < abs(di):  # the longer axis leads, the row on a tie
        axes.reverse()
    (major, major_cuts, n), (minor, minor_cuts, m) = axes
    p, err, edges = 0, n // 2, []
    for _ in range(n):
        edges.append(major_cuts + min(p, p + major))
        p += major
        err -= m
        if err < 0:
            edges.append(minor_cuts + min(p, p + minor))
            p += minor
            err += n
    return tuple(edges)


def place_branch_cuts(
    charges: np.ndarray, mask: np.ndarray | None = None, *, aperture: Aperture | None = None
) -> BranchCutMap:
    """Goldstein branch-cut placement.

    Residues are visited in raster order.  Around each unbalanced residue
    a square search box grows one ring at a time; ring cells are scanned in
    raster order and the first hit wins: an opposite-charge unbalanced
    residue is paired with a cut chain, while a cell beyond the lattice or
    on a border-connected invalid region grounds the residue with a cut to
    the border.  Charges must be -1, 0 or +1.  ``aperture`` (see
    ``flood_unwrap``) keeps the sinks.

    Each cell of the lattice, padded by one ring of sinks, holds one byte:
    its charge, 0 once balanced, or ``_SINK``.  Ring r is searched only when
    ring r - 1 had no hit and so lay inside the lattice: the pad suffices,
    and every search ends on it.
    """
    charges = np.asarray(charges)
    if charges.ndim != 2:
        raise ValueError("place_branch_cuts: charges must be 2-D")
    # an integer map within [-1, 1] by its min and max needs no element-wise
    # test; any other map gets the one that names the first bad charge
    if charges.dtype.kind not in "biu" or (charges.size and not -1 <= charges.min() <= charges.max() <= 1):
        outside = (charges != 0) & (charges != 1) & (charges != -1)
        if outside.any():
            index = tuple(int(i) for i in np.argwhere(outside)[0])
            raise ValueError(f"place_branch_cuts: charge {charges[index]} at {index} is not -1, 0 or +1")
    hh, ww = charges.shape
    mask = np.ones((hh + 1, ww + 1), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (hh + 1, ww + 1):
        raise ValueError("place_branch_cuts: mask shape mismatch")
    sinks = _aperture_of(mask, aperture).derived(_border_sinks)

    width = ww + 2
    grid = np.zeros(sinks.shape, dtype=np.int8)
    grid[1:-1, 1:-1] = charges
    starts = np.flatnonzero(grid != 0).tolist()  # far faster on bools than on int8
    signs = grid.view(np.uint8).ravel()[starts].tolist()
    np.copyto(grid, _SINK, where=sinks)
    cells = bytearray(grid)
    # cut_down padded to (hh + 2) x width, then cut_right to (hh + 1) x width:
    # ring and path offsets are flat in one width
    base = (hh + 2) * width
    cut = bytearray(base + (hh + 1) * width)
    rings, paths = {}, {}
    for p0, own in zip(starts, signs):
        if not cells[p0]:
            continue  # an earlier residue's partner
        hit = radius = 0
        while not hit:  # no ring offset is 0
            radius += 1
            if radius not in rings:
                rings[radius] = _ring_offsets(radius, width)
            for offset in rings[radius]:
                state = cells[p0 + offset]
                if state and state != own:
                    hit = offset
                    break
        if state != _SINK:
            cells[p0 + hit] = 0
        if cells[p0] == own:  # a residue on a sink cell stays a sink
            cells[p0] = 0
        if hit not in paths:
            paths[hit] = _path_offsets(hit, width, base)
        for edge in paths[hit]:
            cut[p0 + edge] = 1
    cut = np.frombuffer(cut, dtype=bool)
    return BranchCutMap(
        cut_right=cut[base:].reshape(hh + 1, width)[:, 1:-1],
        cut_down=cut[:base].reshape(hh + 2, width)[1:-1, :-1],
    )


def default_seed(mask: np.ndarray) -> tuple:
    """Valid pixel nearest the mask centroid (raster order on ties)."""
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise ValueError("default_seed: mask has no valid pixels")
    cy, cx = rows.mean(), cols.mean()
    k = np.argmin((rows - cy) ** 2 + (cols - cx) ** 2)
    return int(rows[k]), int(cols[k])


#: ``_repair`` gives up, and the frame gets a search of its own, when more
#: than 1/_REPAIR_SHARE of the reached pixels are orphans or affected.  On
#: a 256x256 disk of 51468 pixels (2 vCPUs; 66 repaired frames of 5 dB down
#: to -2 dB) the repair took 5.1-6.3 us an affected pixel (fitted slope,
#: median) and the numpy search (``_bfs_tree``) about 3.9 ms, so the two
#: break even at 620 to 770 pixels, 1/83 to 1/67 of the disk.
_REPAIR_SHARE = 64


@dataclass(frozen=True)
class _Tree:
    """Breadth-first spanning tree of the open edges from one seed pixel.

    order holds the reached pixels (flat indices) level by level, level L
    at order[bounds[L]:bounds[L + 1]]; pos[p] is p's position in order
    (undefined where p is not reached) and depth[r, c] its level (-1 where
    not reached).  up_at[i] is the position in order of the parent of
    order[i]: its first open neighbour one level up in the priority left,
    above, right, below (the seed's is 0, itself).  The arrays are
    read-only.
    """

    order: np.ndarray
    pos: np.ndarray
    bounds: tuple
    depth: np.ndarray
    up_at: np.ndarray


def _bfs_tree(ok_right: np.ndarray, ok_down: np.ndarray, seed: int) -> _Tree:
    """Breadth-first search (``core.breadth_first_levels``) from the flat
    pixel index ``seed`` over the open edges (ok_right as
    BranchCutMap.cut_right, ok_down as cut_down)."""
    h, w = ok_right.shape[0], ok_down.shape[1]
    # Neighbour table of every pixel: its right, lower, left and upper
    # neighbour where that edge is open, the sentinel n where it is not.
    # The search keeps the parent that reaches a pixel by the lowest row,
    # so a pixel's parent is its first level-up neighbour on its left,
    # above it, on its right or below it.
    n = h * w
    index = np.arange(n).reshape(h, w)
    table = np.full((4, n + 1), n, dtype=np.intp)
    t = table[:, :n].reshape(4, h, w)
    np.copyto(t[0, :, :-1], index[:, 1:], where=ok_right)
    np.copyto(t[1, :-1, :], index[1:, :], where=ok_down)
    np.copyto(t[2, :, 1:], index[:, :-1], where=ok_right)
    np.copyto(t[3, 1:, :], index[:-1, :], where=ok_down)
    del t, index
    order, bounds, up_at = breadth_first_levels(table, [seed], parents=True)
    del table  # 32 bytes a pixel, freed before the tree's arrays are built

    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(order.size)
    d = np.full((h, w), -1, dtype=np.int32)
    d.ravel()[order] = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
    for a in (order, pos, d, up_at):
        a.flags.writeable = False
    return _Tree(order, pos, tuple(bounds), d, up_at)


def _cut_free_tree(mask: np.ndarray, seed: int) -> _Tree:
    """``_bfs_tree`` of every edge between two valid pixels, from ``seed``."""
    return _bfs_tree(mask[:, :-1] & mask[:, 1:], mask[:-1, :] & mask[1:, :], seed)


@dataclass(frozen=True, eq=False)
class Aperture:
    """A read-only copy of a mask, validated once (2-D bool, at least one
    valid pixel), and what is derived from it alone, each built on first
    use and kept, read-only, as long as the aperture is: the valid count,
    border sinks, the cut-free tree of each seed and (``zernike``'s) the
    Zernike fit, on the moments path (centre, radius, the modes' Gram and
    its inverse, their column and row values) or the SVD path (the design
    and its pseudo-inverse).  It changes no output.
    """

    mask: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        check_mask(self.mask)
        mask = np.array(self.mask)  # a copy
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    def derived(self, build, *args):
        """``build(self.mask, *args)``, built on the first call with these arguments."""
        key = (build, *args)
        if key not in self._kept:
            self._kept[key] = build(self.mask, *args)
        return self._kept[key]


def _aperture_of(mask: np.ndarray, aperture: Aperture | None) -> Aperture:
    """``aperture``, checked to hold ``mask``, or a new one when it is None."""
    if aperture is None:
        return Aperture(mask)
    if aperture.mask is not mask and not np.array_equal(aperture.mask, mask):
        raise ValueError("aperture does not match the mask")
    return aperture


def _orphans(tree: _Tree, cuts: BranchCutMap) -> np.ndarray:
    """The reached pixels whose edge to their parent in ``tree`` is cut.

    Found from the cut edges alone: each pixel at either end of one, other
    than the seed and unreached pixels, whose parent is the pixel at the
    other end.
    """
    w = tree.depth.shape[1]
    # flatnonzero: the maps are often strided views, where nonzero is slow
    right = np.flatnonzero(cuts.cut_right)
    right += right // (w - 1)  # the flat index of each edge's left end
    down = np.flatnonzero(cuts.cut_down)  # of each edge's upper end
    ends = np.concatenate([right, down, right + 1, down + w])
    across = np.concatenate([right + 1, down + w, right, down])
    inner = tree.depth.ravel()[ends] > 0
    ends, across = ends[inner], across[inner]
    return ends[tree.order[tree.up_at[tree.pos[ends]]] == across]


def _repair(tree: _Tree, cuts: BranchCutMap, orphans: np.ndarray):
    """New levels and parents of the pixels the cuts move.

    ``orphans`` are the reached pixels whose parent edge in ``tree`` (of
    the valid pixels, all reached) is cut (``_orphans``).  An edge is open
    when both its pixels are reached and ``cuts`` does not cut it.  Each
    orphan keeps the list of its open neighbours one level up, in the
    priority left, above, right, below; an orphan with an empty list is
    lost.  A pixel is affected when all of its open level-up neighbours
    are, starting from the lost ones: each pixel an affected one touches
    keeps the same list, less the neighbours found affected, and is
    affected when the list runs empty.  By induction on level, an
    unaffected pixel keeps its level, so an orphan or touched pixel takes
    the first entry left in its list as its parent, and any other keeps its
    own.  The affected pixels get their levels from a breadth-first search
    among them, seeded from their unaffected neighbours' levels, and their
    parents by the same priority (the decremental breadth-first search of
    Ramalingam & Reps, J. Algorithms 21, 1996).

    Returns (late, gone, moved, parents): the affected pixels still
    reached, in order of their new levels; those no longer reached; and the
    unaffected orphans and touched pixels, then the late ones, with their
    new parents.  Returns None, before any search, when more than
    1/_REPAIR_SHARE of the reached pixels are orphans or affected.
    """
    limit = tree.order.size // _REPAIR_SHARE
    if orphans.size > limit:
        return None
    h, w = tree.depth.shape
    depth = memoryview(tree.depth.ravel())  # indexed pixel by pixel: Python ints
    right, down = memoryview(cuts.cut_right), memoryview(cuts.cut_down)

    @functools.cache  # each pixel's are asked for several times
    def neighbours(p):
        """Open neighbours of p in the priority left, above, right, below."""
        r, c = divmod(p, w)
        out = []
        if c and depth[p - 1] >= 0 and not right[r, c - 1]:
            out.append(p - 1)
        if r and depth[p - w] >= 0 and not down[r - 1, c]:
            out.append(p - w)
        if c < w - 1 and depth[p + 1] >= 0 and not right[r, c]:
            out.append(p + 1)
        if r < h - 1 and depth[p + w] >= 0 and not down[r, c]:
            out.append(p + w)
        return out

    def level_up(q):
        return [p for p in neighbours(q) if depth[p] == depth[q] - 1]

    # orphan or touched pixel -> its open level-up neighbours not found affected
    ups = {q: level_up(q) for q in orphans.tolist()}
    affected = [q for q, left in ups.items() if not left]
    for a in affected:  # the list grows while it is walked
        below = depth[a] + 1
        for q in neighbours(a):
            if depth[q] == below:  # a is one of q's level-up neighbours
                if q not in ups:
                    ups[q] = level_up(q)
                ups[q].remove(a)
                if not ups[q]:
                    affected.append(q)
        if len(affected) > limit:
            return None

    inside = set(affected)
    levels = {}
    for a in affected:
        outer = [depth[q] for q in neighbours(a) if q not in inside]
        if outer:
            levels.setdefault(min(outer) + 1, []).append(a)
    new = {}  # affected pixel -> its new level, filled level by level
    level = min(levels, default=0)
    while levels:
        for a in levels.pop(level, ()):
            if a not in new:
                new[a] = level
                for q in neighbours(a):
                    if q in inside and q not in new:
                        levels.setdefault(level + 1, []).append(q)
        level += 1

    touched = [q for q, left in ups.items() if left]
    late = list(new)
    parents = [ups[q][0] for q in touched]
    # a late pixel's neighbours are reached too: each is late or unaffected
    parents += [next(q for q in neighbours(a) if new.get(q, depth[q]) == new[a] - 1) for a in late]
    return late, [a for a in affected if a not in new], touched + late, parents


def flood_unwrap(
    frame: np.ndarray,
    mask: np.ndarray | None = None,
    cuts: BranchCutMap | None = None,
    seed: tuple | None = None,
    *,
    aperture: Aperture | None = None,
) -> Surface:
    """Flood-fill integration from a seed pixel, never crossing a cut edge.

    The seed keeps its input value; every reached pixel gets its parent's
    value plus wrap(pixel - parent), that is, the pixel's own value plus
    2pi times k, where k is the parent's k minus ``turns(pixel - parent)``:
    an integer count, exact because every valid value is in (-pi, pi].  k
    is held in float64, so each level's subtraction runs in one dtype.
    That is exact: each step changes k by at most 1, so |k| never exceeds
    the pixel count, far below 2**53; k starts at +0.0 and is never -0.0,
    so the output has the bits an int64 k gave.  The
    tree is the breadth-first tree of the open edges (both ends valid, edge
    not cut): a pixel's parent is its first open neighbour one level up in
    the priority left, above, right, below, and k propagates down that tree
    one level at a time.  Pixels that cannot be reached without crossing a
    cut are invalid in the output mask.

    One search picks every parent (``_bfs_tree``), and one repair changes
    them.  The cut-free tree of each seed is searched once and kept by
    ``aperture``, which must hold ``mask`` (all valid when None); a call
    without one builds its own.  The valid region is 4-connected when that
    tree reaches every valid pixel.  A frame's cuts only remove edges, and
    removing edges never shortens a path, so the kept levels and parents
    stand but where a cut edge was some pixel's edge to its parent
    (``_orphans``).  Where there are such orphans, ``_repair`` re-parents
    them, finds the pixels whose level changed and re-parents those and
    the pixels that had them as a level-up neighbour; only those parents
    are patched.  Where the orphans or moved pixels are many, the frame
    gets a search of its own.  The result is the same on every path.

    Cut maps must be bool arrays of the frame's edge shapes.
    """
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    h, w = frame.shape
    if cuts is not None:
        right, down = cuts.cut_right, cuts.cut_down
        if (right.shape, down.shape) != ((h, w - 1), (h - 1, w)):
            raise ValueError(
                f"flood_unwrap: cut map shapes {right.shape} and {down.shape} do not "
                f"fit a {h}x{w} frame, which needs {(h, w - 1)} and {(h - 1, w)}"
            )
        if (right.dtype, down.dtype) != (bool, bool):
            raise ValueError(f"flood_unwrap: cut maps must be bool, not {right.dtype} and {down.dtype}")
    mask = np.ones((h, w), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    aperture = _aperture_of(mask, aperture)
    if seed is None:
        seed = default_seed(mask)
    sr, sc = seed
    if not (0 <= sr < h and 0 <= sc < w) or not mask[sr, sc]:
        raise ValueError("flood_unwrap: seed pixel is not valid")

    tree = aperture.derived(_cut_free_tree, sr * w + sc)
    n_valid = aperture.derived(np.count_nonzero)
    if tree.order.size < n_valid:
        raise ValueError("flood_unwrap: valid region is not 4-connected")
    up_at, late_at, gone = tree.up_at, [], []
    orphans = [] if cuts is None else _orphans(tree, cuts)
    if len(orphans):
        repaired = _repair(tree, cuts, orphans)
        if repaired is None:
            ok_right = mask[:, :-1] & mask[:, 1:] & ~cuts.cut_right
            ok_down = mask[:-1, :] & mask[1:, :] & ~cuts.cut_down
            tree = _bfs_tree(ok_right, ok_down, sr * w + sc)
            up_at = tree.up_at
        else:
            late, gone, moved, parents = repaired
            up_at = up_at.copy()
            up_at[tree.pos[moved]] = tree.pos[parents]
            late_at = tree.pos[late].tolist()

    order, bounds = tree.order, tree.bounds
    psi = frame.ravel()[order]
    # the step from the parent adds wrap(diff) = diff - 2pi * turns(diff);
    # n and k are whole numbers held in float64 (see the docstring)
    n = turns(psi - psi[up_at]).astype(np.float64)
    k = np.zeros(order.size)
    for start, stop in zip(bounds[1:-1], bounds[2:]):
        np.subtract(k[up_at[start:stop]], n[start:stop], out=k[start:stop])
    for i in late_at:  # in order of their new levels
        k[i] = k[up_at[i]] - n[i]
    k *= TWO_PI
    k += psi
    values = np.zeros((h, w))
    values.ravel()[order] = k
    reached = tree.depth >= 0
    values.ravel()[gone] = 0.0
    reached.ravel()[gone] = False

    n_reached = order.size - len(gone)
    warning = None
    if n_valid - n_reached > 0.5 * n_valid:
        warning = (
            f"unwrap reached only {n_reached} of {n_valid} valid pixels; "
            "branch cuts isolated most of the aperture"
        )
    return Surface(values=values, mask=reached, warning=warning)


def unwrap(
    frame: np.ndarray,
    mask: np.ndarray | None = None,
    seed: tuple | None = None,
    *,
    aperture: Aperture | None = None,
) -> Surface:
    """Goldstein unwrap of one frame: residue detection, branch-cut
    placement, then flood integration from ``seed`` (``aperture`` to both)."""
    charges = detect_residues(frame, mask)
    cuts = place_branch_cuts(charges, mask, aperture=aperture)
    return flood_unwrap(frame, mask, cuts, seed=seed, aperture=aperture)
