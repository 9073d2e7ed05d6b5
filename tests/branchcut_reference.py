"""Reference branch-cut placement: the ring loop that
``phasestack.unwrap.place_branch_cuts`` must reproduce bit for bit.

Residues are visited in raster order.  Around each unbalanced residue a
square search box grows one ring at a time (up to max(width, height));
ring cells are scanned in raster order and the first hit wins: an
opposite-charge unbalanced residue is paired with a cut chain, while a cell
beyond the lattice or on a border-connected invalid region grounds the
residue with a cut to the border.  Each cell is bounds-checked, and each
cut edge goes through ``block_step``, which drops the edges that fall
outside the cut arrays.  It takes the same arguments as the kernel it
checks, but for ``aperture``, and does not check the charge values.
"""

from __future__ import annotations

import numpy as np

from phasestack.unwrap import BranchCutMap, _border_sinks


def block_step(cuts: BranchCutMap, r: int, c: int, dr: int, dc: int) -> None:
    """Block the pixel edge crossed by a unit dual-lattice step."""
    if dc == 1:
        er, ec, arr = r, c + 1, cuts.cut_down
    elif dc == -1:
        er, ec, arr = r, c, cuts.cut_down
    elif dr == 1:
        er, ec, arr = r + 1, c, cuts.cut_right
    else:
        er, ec, arr = r, c, cuts.cut_right
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
            block_step(cuts, r, c, 0, sc)
            c += sc
            err -= dr
            if err < 0:
                block_step(cuts, r, c, sr, 0)
                r += sr
                err += dc
    else:
        err = dr // 2
        for _ in range(dr):
            block_step(cuts, r, c, sr, 0)
            r += sr
            err -= dc
            if err < 0:
                block_step(cuts, r, c, 0, sc)
                c += sc
                err += dr


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


def place_branch_cuts_reference(charges: np.ndarray, mask: np.ndarray | None = None) -> BranchCutMap:
    """Goldstein branch-cut placement by the bounds-checked ring loop."""
    charges = np.asarray(charges)
    if charges.ndim != 2:
        raise ValueError("place_branch_cuts: charges must be 2-D")
    hh, ww = charges.shape
    h, w = hh + 1, ww + 1
    cuts = BranchCutMap(
        cut_right=np.zeros((h, w - 1), dtype=bool),
        cut_down=np.zeros((h - 1, w), dtype=bool),
    )
    mask = np.ones((h, w), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (h, w):
        raise ValueError("place_branch_cuts: mask shape mismatch")
    sinks = _border_sinks(mask)[1:-1, 1:-1]  # without the pad
    positions = np.argwhere(charges != 0).tolist()
    if not positions:
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
