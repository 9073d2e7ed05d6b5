"""Pre-processing ahead of pattern classification: piston shift and, in
``prepare_for_clustering``, masked 2x2 average pooling.

Pooling averages the wrapped values arithmetically, exactly as a stock
average-pooling layer would; circular averaging here would change the
cluster geometry the classifier sees.

Frames may be float32 (a stack as ``wphs.read_stack`` gives it) or float64;
the arithmetic is float64 either way, with the same bits.

``prepare_for_clustering`` streams the stack through ``core.map_blocks``:
blocks of frames on one thread per CPU of the process's affinity mask, each
shifted in float64 scratch and pooled into its frames of the one pooled
stack the calling thread allocated; the shifted stack is never held whole.
The result is the same, bit for bit, for any worker count.  BLAS is not
involved.
"""

from __future__ import annotations

import numpy as np

from .core import as_frames, check_frame, check_mask, fold, map_blocks


def center_pixel(shape: tuple[int, int]) -> tuple[int, int]:
    """Anchor pixel (floor(h/2), floor(w/2)) used for piston removal."""
    h, w = shape
    return h // 2, w // 2


def piston_shift(
    frames: np.ndarray,
    mask: np.ndarray,
    anchor: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Remove the piston term by re-wrapping relative to the anchor pixel.

    output(m, n) = wrap(input(m, n) - input(i, j)) with (i, j) the center
    pixel by default; the anchor pixel of the output is exactly 0.
    ``frames`` is one (h, w) frame or an (n, h, w) stack; each frame is
    shifted by its own anchor value, in float64: float32 frames give the
    bits of their float64 copy.  ``out``, a float64 array of the frames'
    shape, receives the result when given.

    Raises
    ------
    ValueError
        If the anchor pixel is invalid; pass an alternate ``anchor``.
    """
    frames = as_frames(frames)
    check_frame(frames, mask)
    check_mask(mask)
    if anchor is None:
        anchor = center_pixel(frames.shape[-2:])
    i, j = anchor
    if not mask[i, j]:
        raise ValueError(
            f"piston anchor pixel ({i}, {j}) is invalid; "
            "supply an alternate anchor inside the aperture"
        )
    out = np.subtract(frames, frames[..., i, j, None, None], out=out, dtype=np.float64)
    # zeroed to keep NaN or garbage at invalid pixels in the fold's range
    invalid = ~mask
    if invalid.any():
        np.copyto(out, 0.0, where=invalid)  # a third of the time of out[..., ~mask] = 0.0
    return fold(out, out=out)


def _pool_counts(mask: np.ndarray) -> np.ndarray:
    """Valid pixels per 2x2 block of ``mask``; rejects an over-pooled size."""
    h, w = mask.shape
    ho, wo = h // 2, w // 2
    if ho < 4 or wo < 4:
        raise ValueError(f"prepare_for_clustering: pooled size {ho}x{wo} is below the 4x4 minimum")
    return mask[: 2 * ho, : 2 * wo].reshape(ho, 2, wo, 2).sum(axis=(1, 3))


def _pool2(frames: np.ndarray, divisors: np.ndarray, out: np.ndarray | None = None):
    """One 2x2 pooling pass of frames that hold 0.0 at every invalid pixel
    (as piston_shift and _pool2 leave them), given the mask's
    ``_pool_counts`` as float64 and at least 1 (an all-invalid block stays
    0.0); written to ``out`` when given.  The divisors are float64, built
    once per level, so the division runs in one dtype, not through numpy's
    casting loop, with the bits of dividing by the integer counts."""
    ho, wo = divisors.shape
    f = frames[..., : 2 * ho, : 2 * wo]
    # (top pair) + (bottom pair), the order of numpy's sum over the two
    # block axes: pair sums along each row, then row pairs added.
    pairs = f[..., 0::2] + f[..., 1::2]
    sums = pairs[..., 0::2, :] + pairs[..., 1::2, :]
    sums /= divisors
    # means of phases in (-pi, pi] stay in [-2pi, 2pi], where the fold is wrap
    return fold(sums, out=sums if out is None else out)


def prepare_for_clustering(
    frames: np.ndarray,
    mask: np.ndarray,
    pool_levels: int = 1,
    anchor: tuple[int, int] | None = None,
):
    """Piston-shift every frame, then pool ``pool_levels`` times.

    Each pass is a 2x2 average pooling under the mask: each pooled pixel is
    the arithmetic mean of the valid pixels in its 2x2 block, re-wrapped
    into (-pi, pi], and is invalid only when all four are invalid.  A
    trailing odd row or column is dropped, and a pass whose result would be
    smaller than 4x4 is rejected (repeated pooling destroys the pattern
    features).

    Returns (pooled_frames, pooled_mask): the float64 copies the classifier
    reads.  With ``pool_levels=0`` they are the piston-shifted frames.  Each
    block of frames is shifted into float64 scratch and pooled from there, so
    no whole shifted stack is held beside the pooled one; the consumers of
    full-resolution shifted frames (``circular.circular_mean_rows``, the
    pipeline's one-frame parts) shift their own.  Blocks of frames run on
    threads (see the module docstring).
    """
    if pool_levels < 0:
        raise ValueError("pool_levels must be >= 0")
    frames = as_frames(frames)
    if frames.ndim != 3:
        raise ValueError("prepare_for_clustering: frames must be an (n, h, w) stack")
    divisors, pooled_mask = [], mask
    for _ in range(pool_levels):
        counts = _pool_counts(pooled_mask)
        pooled_mask = counts > 0
        divisors.append(np.maximum(counts, 1).astype(np.float64))
    pooled = np.empty((len(frames), *pooled_mask.shape))

    def prepare(block, buf=None):
        out = piston_shift(frames[block], mask, anchor, out=pooled[block] if buf is None else buf)
        for level, c in enumerate(divisors, 1):
            out = _pool2(out, c, out=pooled[block] if level == pool_levels else None)

    scratch = frames.shape[1:] if pool_levels else None
    for _ in map_blocks(prepare, len(frames), 8 * frames[:1].size, scratch=scratch):
        pass
    return pooled, pooled_mask
