"""Core wrapped-phase types and operators.

Conventions used throughout the package:

* A *phase frame* is a 2-D float64 or float32 array of radians, row-major,
  with every valid pixel in the half-open interval (-pi, pi].  The boundary
  value +pi is legal, -pi is not (atan2 convention).  float32 frames are a
  stack as WPHS stores it; the kernels compute in float64, converting per
  block or per frame, and return float64.
* An *aperture mask* is a 2-D bool array of the same shape; True marks a
  measured pixel; a shape mismatch raises ``ValueError``.  Invalid pixels
  may hold any value, even NaN (writers store zeros there).
* Pixel (r, c) means row r, column c; rows increase downward.

Graph searches on the pixel grid (the unwrap trees, whose reach tells the
flood whether a mask is 4-connected, and the border sinks in ``unwrap``)
are one level-synchronous breadth-first search of a neighbour table,
``breadth_first_levels``, in numpy, which also picks each node's parent by
the table's row order when asked to (the unwrap trees): the package imports
nothing outside numpy and the standard library.

Whole-stack kernels (``wphs.read_stack``, ``preprocess.prepare_for_clustering``
and ``circular.circular_mean_rows``) stream the frames through ``map_blocks``:
blocks of about ``BLOCK_BYTES`` of frames on a thread pool with one worker per
CPU in the process's affinity mask (``WORKERS``; there is no option).  The
workers write only into arrays the calling thread allocated, their scratch
included, and each block's output is what a serial pass computes, so results
are bit-identical for any worker count.  ``circular_mean_rows`` maps over runs
of a fixed number of members, not frames: a block is whole runs, each run's
sums are made on the worker, and the calling thread adds them in run order.
``cluster.pairwise_distances`` runs its 128-row panels on ``WORKERS`` threads
of its own; each panel writes only its part of the result the caller
allocated, so its bits do not depend on the worker count either.  BLAS thread
settings are left alone.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# pi as a float64 scalar for range tests: a float32 compared with the Python
# float pi is compared in float32 (NEP 50), where pi rounds up to
# float32(pi) > pi, so float32(pi) would pass as inside (-pi, pi].
_PI = np.float64(np.pi)

#: wrap rejects magnitudes above this (2**50, about 1.1e15): float64 values
#: there are 0.25 apart, so a wrapped phase carries no information, and the
#: reduction's rounding grows towards the width of the interval.
WRAP_LIMIT = 2.0**50

#: Bytes of frames per block of ``map_blocks``: half a core's L2 cache on
#: the 2-vCPU Xeon this was chosen on.  Half this size made the per-block
#: overhead show (prepare_for_clustering about 20% slower on 1000 128x128
#: frames); twice it gained under 10% and doubled the memory in flight.
BLOCK_BYTES = 2**20

#: Threads of ``map_blocks``: one per CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Unit steps (row, column) to the 8 neighbours of a pixel.
STEPS_8 = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def wrap(x):
    """Wrap phase values into (-pi, pi].

    Values already inside the interval come back unchanged (the correction
    term is exactly zero there), which keeps the operator idempotent.  The
    one exception is -0.0, which comes back as +0.0 (its correction term
    is -0.0, and -0.0 - -0.0 is +0.0).

    Parameters
    ----------
    x : float or array_like
        Phase in radians, finite and of magnitude at most ``WRAP_LIMIT``.
        Any real dtype; the arithmetic is float64 (float32 input gives the
        bits of its float64 copy).

    Returns
    -------
    float64 array of ``x``'s shape (a float for a scalar), wrapped into
    (-pi, pi].

    Raises
    ------
    ValueError
        If a value is non-finite or beyond ``WRAP_LIMIT``.
    """
    x = np.asarray(x)
    lo, hi = (x.min(), x.max()) if x.size else (0.0, 0.0)
    if not (-WRAP_LIMIT <= lo and hi <= WRAP_LIMIT):  # NaN fails both
        raise ValueError(f"wrap: input must be finite and of magnitude at most {WRAP_LIMIT:g}")
    # out = x - TWO_PI * rint(x / TWO_PI), with the quotient held in `out`
    out = np.empty(x.shape)
    np.divide(x, TWO_PI, out=out, dtype=np.float64)
    np.rint(out, out=out)
    np.multiply(out, TWO_PI, out=out)
    np.subtract(x, out, out=out, dtype=np.float64)
    # rint ties-to-even sends an exact +pi to itself but -pi-like results
    # onto the excluded boundary; fold them back to +pi.
    np.add(out, TWO_PI, out=out, where=out <= -np.pi)
    # Up to 4*pi the subtraction is exact and only a quotient on a half
    # integer can be rounded the wrong way, so nothing lands above pi; from
    # about 100 rad a rounded quotient can leave a result just above it.
    if hi > 2 * TWO_PI or lo < -2 * TWO_PI:
        np.subtract(out, TWO_PI, out=out, where=out > np.pi)
    if out.ndim == 0:
        return float(out)
    return out


def map_blocks(fn, n_frames: int, frame_bytes: int, scratch: tuple | None = None):
    """Yield ``fn(block)`` for consecutive blocks of ``range(n_frames)``, in
    block order.

    Each ``block`` is a slice of at most ``BLOCK_BYTES // frame_bytes``
    frames (at least one), the blocks as equal in length as that allows.  With more than one worker and more than one
    block, the calls run on a pool of up to ``WORKERS`` threads, with at
    most one more block submitted and not yet consumed than there are
    threads, so that the pool stays busy while the caller uses a result;
    otherwise they run one after another in the calling thread.  numpy
    releases the GIL in its element-wise loops, which is where the threads
    run in parallel.

    ``fn`` must write only into arrays the caller allocated, one block's
    part of them each.  With ``scratch`` (a shape), the call is
    ``fn(block, buf)``, where ``buf`` is a float64 array of shape
    ``(len(block), *scratch)`` allocated here, in the calling thread, and
    free for the block's use until its result has been consumed.

    A call that raises re-raises its exception unchanged when its result is
    reached, after blocks not yet started are cancelled and running ones
    have finished; earlier blocks' results have been yielded by then.
    """
    step = max(1, BLOCK_BYTES // max(frame_bytes, 1))
    step = -(-n_frames // -(-n_frames // step)) if n_frames else 1  # equal blocks
    blocks = [slice(start, min(start + step, n_frames)) for start in range(0, n_frames, step)]
    workers = min(WORKERS, len(blocks))
    window = min(workers + 1, len(blocks)) if workers > 1 else 1
    slots = None if scratch is None else np.empty((window, step, *scratch))

    def call(i, block):
        if slots is None:
            return fn(block)
        return fn(block, slots[i % window, : block.stop - block.start])

    if workers <= 1:
        for i, block in enumerate(blocks):
            yield call(i, block)
        return
    pending = deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for i, block in enumerate(blocks):
                if len(pending) == window:
                    # block i reuses the slot of the block consumed here
                    yield pending.popleft().result()
                pending.append(pool.submit(call, i, block))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def turns(d: np.ndarray) -> np.ndarray:
    """The int8 count n with wrap(d) == d - 2*pi*n, for float64 differences
    ``d`` of two phases in (-pi, pi].

    Such a ``d`` lies in (-2pi, 2pi), where wrap's quotient rounds to
    [d > pi] - [d <= -pi] and its subtraction is exact, so the identity
    holds exactly (wrap gives +0.0 for -0.0): the kernels take their 2pi
    counts from these two comparisons, with no float wrap.
    """
    return (d > _PI).view(np.int8) - (d <= -_PI).view(np.int8)


def fold(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """wrap(d) bit for bit (-0.0 gives +0.0) for float64 ``d`` in [-2pi, 2pi],
    unchecked: d + 2pi * ([d <= -pi] - [d > pi]).  ``out`` may be ``d``.

    The int8 count is cast to float64 once and scaled in place, so no
    pass mixes dtypes (``TWO_PI * n`` of the int8 ``n`` ran in numpy's
    buffered casting loop); the bits are the same.
    """
    n = ((d <= -_PI).view(np.int8) - (d > _PI).view(np.int8)).astype(np.float64)
    n *= TWO_PI
    return np.add(d, n, out=out)


def as_frames(values) -> np.ndarray:
    """``values`` as an array of phase frames: float32 and float64 as given,
    any other dtype converted to float64."""
    values = np.asarray(values)
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    return values


def check_frame(values: np.ndarray, mask: np.ndarray | None = None) -> None:
    """Validate a phase frame, or an (n, h, w) stack of frames sharing one
    mask: frames >= 2x2, valid pixels finite and in range."""
    values = np.asarray(values)
    if values.ndim not in (2, 3):
        raise ValueError(f"phase frame must be 2-D (or a 3-D stack), got shape {values.shape}")
    h, w = values.shape[-2:]
    if h < 2 or w < 2:
        raise ValueError(f"phase frame must be at least 2x2, got {h}x{w}")
    if mask is not None and np.shape(mask) != (h, w):
        raise ValueError(f"frame shape {(h, w)} does not match mask shape {np.shape(mask)}")
    if values.size == 0:
        return
    # min and max propagate NaN and reach +-inf, so they check finiteness
    # too.  One pass over the whole array settles the common case, where
    # the invalid pixels hold values in range too; otherwise a stack is
    # reduced over its frames, pixel by pixel, and the valid pixels gathered.
    if -_PI < values.min() and values.max() <= _PI:
        return
    lo, hi = (values.min(axis=0), values.max(axis=0)) if values.ndim == 3 else (values, values)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        lo, hi = lo[mask], hi[mask]
    if lo.size == 0:
        return
    lo, hi = lo.min(), hi.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("phase frame has non-finite valid pixels")
    if lo <= -_PI or hi > _PI:
        raise ValueError("phase frame has valid pixels outside (-pi, pi]")


def check_mask(mask: np.ndarray) -> None:
    """Validate an aperture mask: 2-D bool with at least one valid pixel."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.dtype != bool:
        raise ValueError("aperture mask must be a 2-D bool array")
    if not mask.any():
        raise ValueError("aperture mask has no valid pixels")


def neighbour_table(nodes: np.ndarray, steps) -> np.ndarray:
    """Neighbour table of the True pixels of the 2-D bool ``nodes``, numbered
    0 to n - 1 in raster order: row j holds, for the unit step (dr, dc) =
    ``steps[j]``, the number of the True pixel that step away from each
    pixel i in column i, or n where there is none.  Column n, the sentinel,
    holds n throughout."""
    h, w = nodes.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = nodes
    at = np.flatnonzero(padded)
    n = at.size
    number = np.full(padded.size, n, dtype=np.intp)
    number[at] = np.arange(n)
    table = np.empty((len(steps), n + 1), dtype=np.intp)
    table[:, n] = n
    for j, (dr, dc) in enumerate(steps):
        np.take(number, at + (dr * (w + 2) + dc), out=table[j, :n])
    return table


def breadth_first_levels(table: np.ndarray, starts, parents: bool = False) -> tuple:
    """Level-synchronous breadth-first search of a graph given by its
    (k, n + 1) intp neighbour table (as ``neighbour_table``: column n the
    sentinel, n standing for no neighbour), from the distinct nodes
    ``starts``.

    Returns (order, bounds): the nodes reached, level L (at distance L from
    the nearest start) at order[bounds[L]:bounds[L + 1]].  With ``parents``,
    returns (order, bounds, up_at), where up_at holds the position in order
    of each one's parent: of the nodes one level up that reach it, the one
    that does so by the lowest row of the table, the earliest in order on a
    tie (a start's parent is itself).  Each level is one gather of the
    frontier's columns, numbered row by row, and one ``minimum.at`` of the
    candidates' serial numbers, which only rise from level to level, onto
    their nodes: a node reached before keeps its smaller number, and a new
    one takes its lowest candidate's, which alone then reads its own number
    back.  The parents are decoded from the kept numbers after the last
    level (about 0.6 ms at 51k nodes), only when asked for.
    """
    n = table.shape[1] - 1
    mark = np.full(n + 1, np.iinfo(np.intp).max, dtype=np.intp)
    frontier = np.asarray(starts, dtype=np.intp)
    if not frontier.size:
        return (frontier, [0], frontier) if parents else (frontier, [0])
    mark[frontier] = -1
    mark[n] = -1
    levels, bounds, used = [], [0], [0]
    while frontier.size:
        levels.append(frontier)
        bounds.append(bounds[-1] + frontier.size)
        found = np.take(table, frontier, axis=1).ravel()
        numbers = np.arange(used[-1], used[-1] + found.size)
        used.append(used[-1] + found.size)
        np.minimum.at(mark, found, numbers)
        frontier = found[mark.take(found) == numbers]
    order = np.concatenate(levels)
    if not parents:
        return order, bounds
    # The i-th of the f nodes of level L numbered its candidates in row r
    # used[L] + r * f + i, so a node of level L + 1 that kept number m has
    # the ((m - used[L]) % f)-th node of level L as its parent.
    f = np.diff(bounds)
    level = np.repeat(np.arange(f.size - 1), f[1:])  # of each parent
    up_at = (mark[order[f[0]:]] - np.take(used, level)) % f[level] + np.take(bounds, level)
    return order, bounds, np.concatenate([np.arange(f[0]), up_at])


def circular_aperture(shape: tuple[int, int], margin: int = 0) -> np.ndarray:
    """Inscribed circular pupil mask for an (h, w) grid."""
    h, w = shape
    r = np.arange(h)[:, None] - (h - 1) / 2.0
    c = np.arange(w)[None, :] - (w - 1) / 2.0
    radius = min(h, w) / 2.0 - margin
    return (r * r + c * c) <= radius * radius


@dataclass
class PhaseStack:
    """Ordered stack of wrapped-phase frames sharing one aperture mask.

    Attributes
    ----------
    frames : (n, h, w) array in acquisition order, every valid pixel
        wrapped into (-pi, pi]; invalid pixels may hold NaN.  float32 and
        float64 frames are kept as given (``wphs.read_stack`` gives float32,
        the synthetic lab float64); any other dtype is converted to float64.
    mask : (h, w) bool array

    ``_wrapped`` is private to ``wphs.read_stack``, whose ``wrap`` has already
    put every valid value into (-pi, pi]: it skips the range check of the
    frames, a full pass over the stack, and none of the other checks.
    """

    frames: np.ndarray
    mask: np.ndarray
    _wrapped: InitVar[bool] = False

    def __post_init__(self, _wrapped):
        self.frames = as_frames(self.frames)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.frames.ndim != 3:
            raise ValueError("frames must be a (n, h, w) array")
        if self.frames.shape[1:] != self.mask.shape:
            raise ValueError(
                f"frame shape {self.frames.shape[1:]} does not match "
                f"mask shape {self.mask.shape}"
            )
        check_mask(self.mask)
        if not _wrapped:
            check_frame(self.frames, self.mask)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape


def detect_residues(frame: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Detect phase residues on every 2x2 pixel loop.

    The circulation of wrapped differences around the loop with corner
    (r, c), taken right, down, left, up, is -2pi times the sum of the turns
    of its edges (see ``turns``); a nonzero circulation of +-2pi marks a
    residue of charge +-1.

    Parameters
    ----------
    frame : (h, w) wrapped-phase array
    mask : optional (h, w) bool array; loops touching an invalid pixel
        carry charge 0 by convention.  Invalid pixels are never copied, and
        their values never reach a charge.

    Returns
    -------
    (h-1, w-1) int8 array of charges in {-1, 0, +1}.
    """
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    # invalid pixels (NaN, +-inf, 1e300: anything) reach only loops zeroed below
    with np.errstate(invalid="ignore", over="ignore"):
        n_right = turns(frame[:, 1:] - frame[:, :-1])
        n_down = turns(frame[1:, :] - frame[:-1, :])
    # Each edge's wrapped difference lies in (-pi, pi], so the circulation
    # lies strictly inside (-4pi, 4pi): the charge is -1, 0 or +1 unclamped.
    charges = n_right[1:, :] - n_right[:-1, :] + n_down[:, :-1] - n_down[:, 1:]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        loop_valid = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
        charges *= loop_valid.view(np.int8)
    return charges


def residue_count(charges: np.ndarray) -> int:
    """Number of nonzero residue charges."""
    return int(np.count_nonzero(charges))
