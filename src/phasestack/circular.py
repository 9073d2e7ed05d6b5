"""Circular (directional) statistics over angle samples and frame stacks.

The circular mean maps each angle onto the unit circle, averages the
resulting vectors, and takes the direction of the mean vector:

    mean = atan2(mean(sin(theta_i)), mean(cos(theta_i)))

The mean-vector magnitude (resultant length) measures concentration;
near-zero resultants (antipodal cancellation) leave the mean undefined.

``circular_mean_frame`` computes the cos and sin of blocks of frames on
``core.map_blocks``' threads (one per CPU of the process's affinity mask),
into buffers the calling thread allocated; the calling thread adds them up
in frame order, so the result is the same, bit for bit, for any worker
count.  BLAS is not involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import map_blocks, wrap

#: Resultant lengths at or below this are treated as an undefined mean.
RESULTANT_EPS = 1e-9


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


def circular_rms_error(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root-mean-square of the wrapped difference between two phase arrays."""
    d = wrap(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    if mask is not None:
        d = d[np.asarray(mask, dtype=bool)]
    if d.size == 0:
        raise ValueError("circular_rms_error: no valid pixels")
    return float(np.sqrt(np.mean(d**2)))
