"""Core wrapped-phase types and operators.

Conventions used throughout the package:

* A *phase frame* is a 2-D float64 array of radians, row-major, with every
  valid pixel in the half-open interval (-pi, pi].  The boundary value +pi
  is legal, -pi is not (atan2 convention).
* An *aperture mask* is a 2-D bool array of the same shape; True marks a
  measured pixel.  Invalid pixels may hold any finite value (writers store
  zeros there).
* Pixel (r, c) means row r, column c; rows increase downward.

Whole-stack kernels (``wphs.read_stack``, ``preprocess.prepare_for_clustering``,
``circular.circular_mean_rows`` and its reference ``circular.circular_mean_frame``)
stream the frames through ``map_blocks``: blocks of about ``BLOCK_BYTES`` of
frames on a thread pool with one worker per CPU in the process's affinity mask
(``WORKERS``; there is no option).  The workers write only into arrays the
calling thread allocated, and each block's output is what a serial pass
computes, so results are bit-identical for any worker count.  BLAS thread
settings are left alone.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import ndimage

TWO_PI = 2.0 * np.pi

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

# 4-connectivity structuring element shared by connectivity checks.
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def wrap(x, out=None):
    """Wrap phase values into (-pi, pi].

    Values already inside the interval pass through bit-exactly (the
    correction term is exactly zero there), which keeps the operator
    idempotent.

    Parameters
    ----------
    x : float or array_like
        Phase in radians, finite and of magnitude at most ``WRAP_LIMIT``.
        Any real dtype; the arithmetic is float64 (float32 input gives the
        bits of its float64 copy).
    out : optional float64 ndarray of ``x``'s shape to write the result to;
        it may be ``x`` itself, at the cost of one temporary.

    Returns
    -------
    float64 array of ``x``'s shape (``out`` when given, a float for a
    scalar), wrapped into (-pi, pi].

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
    # unless that is x's own memory.
    q = np.empty(x.shape) if out is None or np.may_share_memory(x, out) else out
    np.divide(x, TWO_PI, out=q, dtype=np.float64)
    np.rint(q, out=q)
    np.multiply(q, TWO_PI, out=q)
    out = q if out is None else out
    np.subtract(x, q, out=out, dtype=np.float64)
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


def wrapped_diff(a, b):
    """Smallest-magnitude difference wrap(a - b), always in (-pi, pi]."""
    return wrap(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))


def check_frame(values: np.ndarray, mask: np.ndarray | None = None) -> None:
    """Validate a phase frame, or an (n, h, w) stack of frames sharing one
    mask: frames >= 2x2, valid pixels finite and in range."""
    values = np.asarray(values)
    if values.ndim not in (2, 3):
        raise ValueError(f"phase frame must be 2-D (or a 3-D stack), got shape {values.shape}")
    h, w = values.shape[-2:]
    if h < 2 or w < 2:
        raise ValueError(f"phase frame must be at least 2x2, got {h}x{w}")
    if values.size == 0:
        return
    # min and max propagate NaN and reach +-inf, so they check finiteness
    # too; a stack is first reduced over its frames, pixel by pixel.
    lo, hi = (values.min(axis=0), values.max(axis=0)) if values.ndim == 3 else (values, values)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        lo, hi = lo[mask], hi[mask]
    if lo.size == 0:
        return
    lo, hi = lo.min(), hi.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("phase frame has non-finite valid pixels")
    if lo <= -np.pi or hi > np.pi:
        raise ValueError("phase frame has valid pixels outside (-pi, pi]")


def check_mask(mask: np.ndarray, require_connected: bool = False) -> None:
    """Validate an aperture mask; optionally require 4-connectivity."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.dtype != bool:
        raise ValueError("aperture mask must be a 2-D bool array")
    if not mask.any():
        raise ValueError("aperture mask has no valid pixels")
    if require_connected and not mask_is_connected(mask):
        raise ValueError("valid region is not 4-connected")


def mask_is_connected(mask: np.ndarray) -> bool:
    """True when the valid region forms a single 4-connected component."""
    _, n = ndimage.label(mask, structure=_CROSS)
    return n == 1


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
    frames : (n, h, w) float64 array, each frame wrapped into (-pi, pi]
    mask : (h, w) bool array
    acquisition_index : (n,) int array, unique and strictly increasing;
        preserves the data-acquisition order of the frames.

    ``_wrapped`` is private to ``wphs.read_stack``, whose ``wrap`` has already
    put every valid value into (-pi, pi]: it skips the range check of the
    frames, a full pass over the stack, and none of the other checks.
    """

    frames: np.ndarray
    mask: np.ndarray
    acquisition_index: np.ndarray = field(default=None)  # type: ignore[assignment]
    _wrapped: InitVar[bool] = False

    def __post_init__(self, _wrapped):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.frames.ndim != 3:
            raise ValueError("frames must be a (n, h, w) array")
        if self.frames.shape[1:] != self.mask.shape:
            raise ValueError(
                f"frame shape {self.frames.shape[1:]} does not match "
                f"mask shape {self.mask.shape}"
            )
        check_mask(self.mask)
        if self.acquisition_index is None:
            self.acquisition_index = np.arange(len(self.frames))
        self.acquisition_index = np.asarray(self.acquisition_index, dtype=np.int64)
        if self.acquisition_index.shape != (len(self.frames),):
            raise ValueError("acquisition_index length must match frame count")
        if len(self.frames) and np.any(np.diff(self.acquisition_index) <= 0):
            raise ValueError("acquisition_index must be strictly increasing")
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
    (r, c) is summed in the fixed order right, down, left, up; a nonzero
    circulation of +-2pi marks a residue of charge +-1.

    Parameters
    ----------
    frame : (h, w) wrapped-phase array
    mask : optional (h, w) bool array; loops touching an invalid pixel
        carry charge 0 by convention.

    Returns
    -------
    (h-1, w-1) int8 array of charges in {-1, 0, +1}.
    """
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    d_right = wrapped_diff(frame[:, 1:], frame[:, :-1])
    d_down = wrapped_diff(frame[1:, :], frame[:-1, :])
    circ = d_right[:-1, :] + d_down[:, 1:] - d_right[1:, :] - d_down[:, :-1]
    charges = np.rint(circ / TWO_PI)
    # Alternating antipodal corner values can sum to +-4pi; clamp so the
    # charge alphabet stays {-1, 0, +1}.
    charges = np.clip(charges, -1, 1).astype(np.int8)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        loop_valid = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
        charges[~loop_valid] = 0
    return charges


def residue_count(charges: np.ndarray) -> int:
    """Number of nonzero residue charges."""
    return int(np.count_nonzero(charges))
