"""Circular (directional) statistics of wrapped frames: the per-pixel
circular mean of a stack, and the RMS of a wrapped difference.

The circular mean maps each angle onto the unit circle, averages the
resulting vectors, and takes the direction of the mean vector:

    mean = atan2(mean(sin(theta_i)), mean(cos(theta_i)))

The mean-vector magnitude (resultant length) measures concentration;
near-zero resultants (antipodal cancellation) leave the mean undefined.

Two frame-stack kernels compute it per pixel.  ``circular_mean_frame`` is the
float64 reference: axis-0 means of the cos and sin of a whole (k, h, w) stack.
``circular_mean_rows``, which the pipeline calls, reads a cluster's rows of the
stack (float32 or float64) in place.  On ``core.map_blocks``' threads it folds
each member's deviation from the first, piston-shifted, member once in
float64, takes its float32 cos and sin, and sums them in float64 over fixed
runs of members; the calling thread adds the runs' sums in run order, so its
bits do not depend on the worker count or block size.  Its error against the
reference is bounded in its docstring.  BLAS is not involved.
"""

from __future__ import annotations

import numpy as np

from .core import TWO_PI, as_frames, check_frame, fold, map_blocks, turns, wrap
from .preprocess import center_pixel, piston_shift

#: Resultant lengths at or below this are treated as an undefined mean.  It
#: sits above the 3.2e-7 bound on ``circular_mean_rows``' resultant error, so
#: an exact cancellation (such as a and wrap(a + pi)) is undefined on both
#: frame kernels.
RESULTANT_EPS = 1e-6

#: Members per run of ``circular_mean_rows``: each run is summed on its
#: own, and the runs' sums are added in run order.
_RUN = 4


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
    ``ref`` is the first member, piston-shifted.  Each member f is
    range-checked and its invalid pixels zeroed as ``piston_shift`` does,
    and its deviation from ``ref`` is folded once, in float64:
    ``d = fold((f - f[anchor]) - ref)``.  The members fall into runs of
    ``_RUN`` in member order, which depend on nothing but their count.  On
    ``core.map_blocks``' threads, the cos and sin of each ``float32(d)``
    are computed in float32 and each run's are summed in float64 (one
    ``np.add.reduce``), into scratch the calling thread allocated; the
    calling thread adds the runs' sums in run order.  So the bits do not
    depend on the worker count or block size.  The mean is
    ``wrap(atan2(S, C) + ref)``, computed as ``core.fold``, since atan2
    plus ``ref`` lies in [-2pi, 2pi].

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

    Error against the oracle: ``(f - f[anchor]) - ref`` lies in [-3pi, 3pi]
    and is rounded once, as the oracle's ``s - ref`` is; ``fold`` is exact
    there (Sterbenz), so d is within 2**-50 of an angle congruent to the
    exact deviation, and |d| <= pi + 2**-50.  (Where it rounds onto -3pi,
    the fold gives -pi, not pi: the same angle, and only its cos and sin
    are used.)  Rounding d to float32 moves each unit vector by at most
    pi * 2**-24, and numpy's float32 sin and cos (under 1.5 ulp) move it by
    at most 1.5 * sqrt(2) * 2**-24; the float64 steps add about k * 1e-16.
    So the mean vector differs by at most delta = 3.2e-7 (for k below
    10**7), the resultant by at most delta, and the mean by at most
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
    i, j = center_pixel(mask.shape) if anchor is None else anchor
    ref = piston_shift(frames[rows[0]], mask, (i, j))  # checks the mask and the anchor
    invalid = None if mask.all() else ~mask

    def run_sums(runs, buf):
        # Two halves of the block's scratch: `raw` holds the members, in the
        # stack's dtype, then 2*pi times d's turns, then the float32 cos and
        # sin of d; `d` holds d, then the runs' sums.
        members = rows[runs.start * _RUN : runs.stop * _RUN]
        n = len(members)
        halves = buf.reshape(2, -1, *mask.shape)
        d, raw = halves[:, :n]
        sums = halves[0, : 2 * len(buf)].reshape(len(buf), 2, *mask.shape)
        f = raw.reshape(-1).view(frames.dtype)[: d.size].reshape(d.shape)
        # "clip": no buffered copy of `f`; the rows are checked above
        np.take(frames, members, axis=0, out=f, mode="clip")
        check_frame(f, mask)
        np.subtract(f, f[:, i, j, None, None], out=d, dtype=np.float64)
        if invalid is not None:  # keeps NaN or garbage out of the fold
            np.copyto(d, 0.0, where=invalid)
        np.subtract(d, ref, out=d)
        np.copyto(raw, turns(d))  # the fold, each pass in one dtype
        raw *= TWO_PI
        d -= raw
        cs = raw.reshape(n, -1).view(np.float32).reshape(n, 2, *mask.shape)
        c, s = cs[:, 0], cs[:, 1]
        c[...] = d
        np.sin(c, out=s)
        np.cos(c, out=c)
        for r, run in enumerate(sums):
            np.add.reduce(cs[r * _RUN : (r + 1) * _RUN], axis=0, dtype=np.float64, out=run)
        return sums

    xy = np.zeros((2, *mask.shape))
    n_runs = -(-len(rows) // _RUN)
    for sums in map_blocks(run_sums, n_runs, _RUN * ref.nbytes, scratch=(2 * _RUN, *mask.shape)):
        for run in sums:
            xy += run
    xy /= len(rows)
    x, y = xy
    resultant = np.hypot(x, y)
    out_mask = mask & (resultant > RESULTANT_EPS)
    mean_frame = np.zeros(mask.shape)
    np.add(np.arctan2(y, x), ref, out=mean_frame, where=out_mask)
    return fold(mean_frame, out=mean_frame), resultant, out_mask

