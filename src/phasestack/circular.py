"""Circular (directional) statistics over angle samples and frame stacks.

The circular mean maps each angle onto the unit circle, averages the
resulting vectors, and takes the direction of the mean vector:

    mean = atan2(mean(sin(theta_i)), mean(cos(theta_i)))

The mean-vector magnitude (resultant length) measures concentration;
near-zero resultants (antipodal cancellation) leave the mean undefined.

Two frame-stack kernels compute it per pixel.  ``circular_mean_frame`` is the
float64 reference: axis-0 means of the cos and sin of a whole (k, h, w) stack.
``circular_mean_rows``, which the pipeline calls, reads a cluster's rows of the
stack (float32 or float64) in place, piston-shifts each member in float64 and
takes float32 cos and sin of its deviation from the first member on
``core.map_blocks``' threads; the calling thread sums them in float64 in frame
order, so its bits do not depend on the worker count or block size.  Its error
against the reference is bounded in its docstring.  BLAS is not involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, as_frames, fold, map_blocks, turns, wrap
from .preprocess import center_pixel, piston_shift

#: Resultant lengths at or below this are treated as an undefined mean.  It
#: sits above the 3.2e-7 bound on ``circular_mean_rows``' resultant error, so
#: an exact cancellation (such as a and wrap(a + pi)) is undefined on both
#: frame kernels.
RESULTANT_EPS = 1e-6


@dataclass
class CircularSummary:
    """Circular mean of a sample of angles.

    mean is NaN when the resultant length is below RESULTANT_EPS.
    """

    mean: float
    resultant_length: float
    sample_count: int

    @property
    def defined(self) -> bool:
        return self.resultant_length > RESULTANT_EPS


def circular_mean(samples) -> CircularSummary:
    """Circular mean and resultant length of a 1-D sample of angles."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("circular_mean: empty sample")
    if not np.all(np.isfinite(samples)):
        raise ValueError("circular_mean: samples must be finite")
    x = np.cos(samples).mean()
    y = np.sin(samples).mean()
    r = float(np.hypot(x, y))
    if r <= RESULTANT_EPS:
        return CircularSummary(mean=float("nan"), resultant_length=r, sample_count=samples.size)
    return CircularSummary(
        mean=float(wrap(np.arctan2(y, x))),
        resultant_length=r,
        sample_count=samples.size,
    )


def circular_mean_frame(frames: np.ndarray, mask: np.ndarray):
    """Per-pixel circular mean across a stack of wrapped frames.

    Parameters
    ----------
    frames : (k, h, w) array of wrapped frames (one cluster's members)
    mask : (h, w) bool aperture mask

    Returns
    -------
    (mean_frame, resultant, out_mask)
        mean_frame : per-pixel circular mean, 0 where undefined/invalid
        resultant : per-pixel resultant length in [0, 1]
        out_mask : mask with undefined-mean pixels removed
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[0] == 0:
        raise ValueError("circular_mean_frame: need a nonempty (k, h, w) stack")
    mask = np.asarray(mask, dtype=bool)
    if frames.shape[1:] != mask.shape:
        raise ValueError("circular_mean_frame: frame/mask shape mismatch")
    x = np.cos(frames).mean(axis=0)
    y = np.sin(frames).mean(axis=0)
    resultant = np.hypot(x, y)
    out_mask = mask & (resultant > RESULTANT_EPS)
    mean_frame = np.zeros(mask.shape)  # invalid pixels may hold NaN: wrap only out_mask
    mean_frame[out_mask] = wrap(np.arctan2(y[out_mask], x[out_mask]))
    return mean_frame, resultant, out_mask


def circular_mean_rows(frames: np.ndarray, rows, mask: np.ndarray, anchor=None):
    """Per-pixel circular mean of the piston-shifted frames ``frames[rows]``,
    read in place.

    The fast kernel behind the pipeline's denoise step; its oracle is
    ``circular_mean_frame(piston_shift(frames[rows], mask, anchor), mask)``.
    Each block of members is gathered into scratch and shifted into float64
    by ``piston_shift``, which checks every member.  A member's deviation
    from the first shifted member, ``d = s - ref``, is folded into (-pi, pi]
    as ``d - 2*pi*turns(d)``; cos and sin of ``float32(d)`` are computed in
    float32 and summed in float64, frame by frame from zero; the mean is
    ``wrap(atan2(S, C) + ref)``, computed as ``core.fold``, since atan2 plus
    ``ref`` lies in [-2pi, 2pi].

    Parameters
    ----------
    frames : (n, h, w) float32 or float64 stack of wrapped frames (the
        whole stack); values at invalid pixels, even NaN, do not change the
        outputs at valid ones
    rows : nonempty sequence of frame indices (one cluster's members)
    mask : (h, w) bool aperture mask
    anchor : the valid pixel of the piston shift, the center pixel by
        default

    Returns
    -------
    (mean_frame, resultant, out_mask), as ``circular_mean_frame`` returns.

    Raises
    ------
    ValueError
        On a bad shape or row index, an invalid anchor pixel, or any member
        that ``piston_shift`` rejects (a value at a valid pixel that is not
        finite or lies outside (-pi, pi]).

    Error against the oracle: rounding d to float32 moves each unit vector
    by at most pi * 2**-24, and numpy's float32 sin and cos (under 1.5 ulp)
    move it by at most 1.5 * sqrt(2) * 2**-24; the float64 steps add about
    k * 1e-16.  So the mean vector differs by at most delta = 3.2e-7 (for k
    below 10**7), the resultant by at most delta, and the mean by at most
    asin(delta / R), about delta / R, where the resultant R exceeds delta.
    The error scales with the members' spread around the first one:
    members with the same shifted values give d = 0 exactly, so the mean is
    ``wrap(ref)`` and the resultant 1.0, bit for bit.

    Memory beyond the inputs and outputs is the blocks in flight; neither
    the members nor their shifted values are gathered into a (k, h, w) copy.
    """
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


def circular_rms_error(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root-mean-square of the wrapped difference between two phase arrays."""
    d = wrap(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    if mask is not None:
        d = d[np.asarray(mask, dtype=bool)]
    if d.size == 0:
        raise ValueError("circular_rms_error: no valid pixels")
    return float(np.sqrt(np.mean(d**2)))
