"""Reference residue detection: the float circulation that
``phasestack.core.detect_residues`` must reproduce bit for bit.

Each edge's difference is wrapped by ``wrapped_diff``, the four wrapped
differences around a 2x2 loop are summed in the order right, down, left,
up, and the sum divided by 2pi and rounded gives the charge, clamped to
{-1, 0, +1}.  It takes the same arguments as the kernel it checks.
"""

from __future__ import annotations

import numpy as np

from circular_reference import wrapped_diff

from phasestack.core import TWO_PI, check_frame


def detect_residues_reference(frame: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """(h-1, w-1) int8 charges of the 2x2 loops; 0 on loops touching an
    invalid pixel."""
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    frame = frame if mask is None else np.where(mask, frame, 0.0)  # invalid may hold NaN
    d_right = wrapped_diff(frame[:, 1:], frame[:, :-1])
    d_down = wrapped_diff(frame[1:, :], frame[:-1, :])
    circ = d_right[:-1, :] + d_down[:, 1:] - d_right[1:, :] - d_down[:, :-1]
    charges = np.rint(circ / TWO_PI)
    charges = np.clip(charges, -1, 1).astype(np.int8)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        loop_valid = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
        charges[~loop_valid] = 0
    return charges
