"""Reference circular statistics for the tests.

``wrapped_diff`` is the wrapped difference of two phases,
``circular_rms_error`` the RMS of that difference, and ``circular_mean``
the circular mean and resultant length of one pixel's samples: the scalar
oracle of the frame kernels, pixel by pixel.

``circular_mean_rows_reference`` is ``circular_mean_rows`` as it was before
each member was folded once and summed on the worker that computed it.
Each block of members is piston-shifted by ``piston_shift`` (one fold),
its deviation from the first shifted member folded again, and the float32
cos and sin of every member added into the float64 sums frame by frame on
the calling thread.  It takes the same arguments as the kernel it checks
and is within ``DELTA`` = 3.2e-7 of the float64 oracle, as that kernel is.
"""

from __future__ import annotations

import math

import numpy as np

from phasestack.circular import RESULTANT_EPS
from phasestack.core import TWO_PI, as_frames, fold, map_blocks, turns, wrap
from phasestack.preprocess import center_pixel, piston_shift


def wrapped_diff(a, b):
    """Smallest-magnitude difference wrap(a - b), always in (-pi, pi]."""
    return wrap(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))


def circular_rms_error(a, b, mask=None) -> float:
    """Root-mean-square of the wrapped difference between two phase arrays."""
    d = wrapped_diff(a, b)
    if mask is not None:
        d = d[np.asarray(mask, dtype=bool)]
    if d.size == 0:
        raise ValueError("circular_rms_error: no valid pixels")
    return float(np.sqrt(np.mean(d**2)))


def circular_mean(samples) -> tuple[float, float]:
    """(mean, resultant length) of a 1-D sample of angles: the direction and
    length of the mean of their unit vectors.  The mean is NaN where the
    resultant is at most ``RESULTANT_EPS``, as the frame kernels leave it
    undefined there."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    x, y = np.cos(samples).mean(), np.sin(samples).mean()
    r = float(np.hypot(x, y))
    return (float(wrap(np.arctan2(y, x))) if r > RESULTANT_EPS else math.nan), r


def circular_mean_rows_reference(frames: np.ndarray, rows, mask: np.ndarray, anchor=None):
    """``circular_mean_rows`` before the single fold: each member is shifted
    by ``piston_shift``, its deviation ``d = s - ref`` from the first shifted
    member folded as ``d - 2*pi*turns(d)``, and the float32 cos and sin of
    ``float32(d)`` summed in float64 on the calling thread, frame by frame
    from zero."""
    frames = as_frames(frames)
    rows = np.asarray(rows, dtype=np.intp)
    mask = np.asarray(mask, dtype=bool)
    if frames.ndim != 3 or rows.ndim != 1 or rows.size == 0:
        raise ValueError("circular_mean_rows: need an (n, h, w) stack and a nonempty 1-D rows")
    if frames.shape[1:] != mask.shape:
        raise ValueError("circular_mean_rows: frame/mask shape mismatch")
    if rows.min() < 0 or rows.max() >= len(frames):
        raise ValueError("circular_mean_rows: row index out of range")
    anchor = center_pixel(mask.shape) if anchor is None else anchor
    ref = piston_shift(frames[rows[0]], mask, anchor)  # checks the anchor

    def cos_sin(block, buf):
        # Two halves of the block's scratch: `raw` holds the members, in the
        # stack's dtype, then 2*pi times d's turns, then the float32 cos and
        # sin of d; `d` the shifted members, then d.
        n = len(buf)
        d, raw = buf.reshape(2, n, *mask.shape)
        members = raw.reshape(-1).view(frames.dtype)[: d.size].reshape(d.shape)
        # "clip": no buffered copy of `members`; the rows are checked above
        np.take(frames, rows[block], axis=0, out=members, mode="clip")
        # piston_shift checks every member.  Two calls keep the float64
        # temporary of its fold to half a block, so the blocks in flight
        # stay within their scratch and a few frames.
        for part in (slice(0, n // 2), slice(n // 2, n)):
            piston_shift(members[part], mask, anchor, out=d[part])
        np.subtract(d, ref, out=d)
        np.subtract(d, np.multiply(turns(d), TWO_PI, out=raw), out=d)
        cs = raw.reshape(n, -1).view(np.float32).reshape(n, 2, *mask.shape)
        c, s = cs[:, 0], cs[:, 1]
        c[...] = d
        np.sin(c, out=s)
        np.cos(c, out=c)
        return c, s

    x = np.zeros(mask.shape)
    y = np.zeros(mask.shape)
    for c, s in map_blocks(cos_sin, len(rows), ref.nbytes, scratch=(2, *mask.shape)):
        for cj, sj in zip(c, s):
            x += cj
            y += sj
    x /= len(rows)
    y /= len(rows)
    resultant = np.hypot(x, y)
    out_mask = mask & (resultant > RESULTANT_EPS)
    mean_frame = np.zeros(mask.shape)
    np.add(np.arctan2(y, x), ref, out=mean_frame, where=out_mask)
    return fold(mean_frame, out=mean_frame), resultant, out_mask
