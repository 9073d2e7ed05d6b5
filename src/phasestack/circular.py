"""Circular (directional) statistics over angle samples and frame stacks.

The circular mean maps each angle onto the unit circle, averages the
resulting vectors, and takes the direction of the mean vector:

    mean = atan2(mean(sin(theta_i)), mean(cos(theta_i)))

The mean-vector magnitude (resultant length) measures concentration;
near-zero resultants (antipodal cancellation) leave the mean undefined.

Two frame-stack kernels compute it per pixel.  ``circular_mean_frame`` is the
float64 reference: cos and sin of the frames as given.  ``circular_mean_rows``
is what the pipeline calls: it reads a cluster's rows of the whole stack in
place and takes float32 cos and sin of each member's deviation from the first
member, summed in float64; its error against ``circular_mean_frame`` is
bounded in its docstring.  Both compute the cos and sin of blocks of frames
on ``core.map_blocks``' threads (one per CPU of the process's affinity mask),
into buffers the calling thread allocated; the calling thread adds them up
in frame order, so each result is the same, bit for bit, for any worker
count and block size.  BLAS is not involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, map_blocks, wrap

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
    frames : (k, h, w) array of wrapped frames (one cluster's members,
        already piston-shifted, full resolution)
    mask : (h, w) bool aperture mask

    Returns
    -------
    (mean_frame, resultant, out_mask)
        mean_frame : per-pixel circular mean, 0 where undefined/invalid
        resultant : per-pixel resultant length in [0, 1]
        out_mask : mask with undefined-mean pixels removed

    Memory beyond the inputs and outputs is the cos and sin of the blocks
    in flight, not of the whole stack.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[0] == 0:
        raise ValueError("circular_mean_frame: need a nonempty (k, h, w) stack")
    mask = np.asarray(mask, dtype=bool)
    if frames.shape[1:] != mask.shape:
        raise ValueError("circular_mean_frame: frame/mask shape mismatch")

    def cos_sin(block, buf):
        np.cos(frames[block], out=buf[:, 0])
        np.sin(frames[block], out=buf[:, 1])
        return buf

    # Frame-by-frame sums from zero, then one division: the order of
    # numpy's axis-0 mean, without two (k, h, w) temporaries.
    x = np.zeros(mask.shape)
    y = np.zeros(mask.shape)
    for buf in map_blocks(cos_sin, len(frames), frames[0].nbytes, scratch=(2, *mask.shape)):
        for c, s in buf:
            x += c
            y += s
    x /= len(frames)
    y /= len(frames)
    resultant = np.hypot(x, y)
    out_mask = mask & (resultant > RESULTANT_EPS)
    mean_frame = np.where(out_mask, wrap(np.arctan2(y, x)), 0.0)
    return mean_frame, resultant, out_mask


def circular_mean_rows(frames: np.ndarray, rows, mask: np.ndarray):
    """Per-pixel circular mean of the frames ``frames[rows]``, read in place.

    The fast kernel behind the pipeline's denoise step; ``circular_mean_frame``
    of ``frames[rows]`` is its oracle.  Each member's deviation from the
    first member, ``d = frames[r] - ref`` with ``ref = frames[rows[0]]``, is
    taken in float64 and folded into (-pi, pi] by one masked 2*pi step; cos
    and sin of ``float32(d)`` are computed in float32 and summed in float64,
    frame by frame from zero; the mean is ``wrap(atan2(S, C) + ref)``.

    Parameters
    ----------
    frames : (n, h, w) float64 stack of wrapped frames (the whole
        piston-shifted stack); finite values at invalid pixels do not
        change the outputs at valid ones
    rows : nonempty sequence of frame indices (one cluster's members)
    mask : (h, w) bool aperture mask

    Returns
    -------
    (mean_frame, resultant, out_mask), as ``circular_mean_frame`` returns.

    Error against ``circular_mean_frame(frames[rows], mask)``: rounding d to
    float32 moves each unit vector by at most pi * 2**-24, and numpy's
    float32 sin and cos (under 1.5 ulp) move it by at most
    1.5 * sqrt(2) * 2**-24; the float64 steps add about k * 1e-16.  So the
    mean vector differs by at most delta = 3.2e-7 (for k below 10**7), the
    resultant by at most delta, and the mean by at most asin(delta / R),
    about delta / R, where the resultant R exceeds delta.  The error scales
    with the members' spread around the first one: identical members give
    d = 0 exactly, so the mean is ``wrap(ref)`` and the resultant 1.0, bit
    for bit.

    Memory beyond the inputs and outputs is the blocks in flight; the
    members are never gathered into a (k, h, w) copy.
    """
    frames = np.asarray(frames, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    mask = np.asarray(mask, dtype=bool)
    if frames.ndim != 3 or rows.ndim != 1 or rows.size == 0:
        raise ValueError("circular_mean_rows: need an (n, h, w) stack and a nonempty 1-D rows")
    if frames.shape[1:] != mask.shape:
        raise ValueError("circular_mean_rows: frame/mask shape mismatch")
    if rows.min() < 0 or rows.max() >= len(frames):
        raise ValueError("circular_mean_rows: row index out of range")
    ref = frames[rows[0]]

    def cos_sin(block, buf):
        # buf[:, 0] holds d in float64; buf[:, 1] holds its float32 cos and sin
        d, n = buf[:, 0], len(buf)
        for j, r in enumerate(rows[block]):
            np.subtract(frames[r], ref, out=d[j])
        np.subtract(d, TWO_PI, out=d, where=d > np.pi)
        np.add(d, TWO_PI, out=d, where=d <= -np.pi)
        cs = buf[:, 1].reshape(n, -1).view(np.float32).reshape(n, 2, *mask.shape)
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
    return wrap(mean_frame, out=mean_frame), resultant, out_mask


def circular_rms_error(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root-mean-square of the wrapped difference between two phase arrays."""
    d = wrap(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    if mask is not None:
        d = d[np.asarray(mask, dtype=bool)]
    if d.size == 0:
        raise ValueError("circular_rms_error: no valid pixels")
    return float(np.sqrt(np.mean(d**2)))
