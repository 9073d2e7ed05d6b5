"""Core wrapped-phase types and operators.

Conventions used throughout the package:

* A *phase frame* is a 2-D float64 array of radians, row-major, with every
  valid pixel in the half-open interval (-pi, pi].  The boundary value +pi
  is legal, -pi is not (atan2 convention).
* An *aperture mask* is a 2-D bool array of the same shape; True marks a
  measured pixel.  Invalid pixels may hold any finite value (writers store
  zeros there).
* Pixel (r, c) means row r, column c; rows increase downward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

TWO_PI = 2.0 * np.pi

# 4-connectivity structuring element shared by connectivity checks.
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def wrap(x):
    """Wrap phase values into (-pi, pi].

    Values already inside the interval pass through bit-exactly (the
    correction term is exactly zero there), which keeps the operator
    idempotent.

    Parameters
    ----------
    x : float or ndarray
        Phase in radians.  Must be finite.

    Returns
    -------
    Same shape as `x`, wrapped into (-pi, pi].
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("wrap: input must be finite")
    # out = x - TWO_PI * rint(x / TWO_PI), computed in one buffer.
    out = np.divide(x, TWO_PI, out=np.empty_like(x))
    np.rint(out, out=out)
    np.multiply(out, TWO_PI, out=out)
    np.subtract(x, out, out=out)
    # rint ties-to-even sends an exact +pi to itself but -pi-like results
    # onto the excluded boundary; fold them back to +pi.
    np.add(out, TWO_PI, out=out, where=out <= -np.pi)
    if out.ndim == 0:
        return float(out)
    return out


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
    """

    frames: np.ndarray
    mask: np.ndarray
    acquisition_index: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
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
