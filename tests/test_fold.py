"""core.fold against core.wrap, bit for bit, and the kernels that fold
against their wrap forms.

For float64 d in [-2pi, 2pi], such as the difference of two phases in
(-pi, pi], ``fold(d) = d + 2pi * ([d <= -pi] - [d > pi])`` is ``wrap(d)``,
+0.0 for -0.0 included.  ``piston_shift`` and the pooling in
``prepare_for_clustering`` fold where they wrapped; their wrap forms below
are the references, run on float32 stacks holding -0.0 and values at and
next to +-pi at valid pixels and garbage at invalid ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasestack.core import TWO_PI, check_frame, fold, wrap
from phasestack.preprocess import _pool_counts, center_pixel, piston_shift, prepare_for_clustering

PI = math.pi


def neighbours(x: float, k: int = 50) -> list:
    """x and the k float64 values on either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


# Neighbours of every boundary of the fold's steps and of its domain, -0.0 too.
EDGES = np.array(
    [v for x in (-TWO_PI, -PI, 0.0, PI, TWO_PI) for v in neighbours(x) if -TWO_PI <= v <= TWO_PI]
    + [-0.0]
)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


F32_BELOW_PI = np.nextafter(np.float32(PI), np.float32(0.0))  # float32(pi) is above pi
F32_NEXT = np.nextafter(F32_BELOW_PI, np.float32(0.0))
# float32 phases at and next to the ends of (-pi, pi] and at zero, both signs
F32_EDGES = [np.float32(v) for v in (0.0, -0.0, PI / 2, -PI / 2, 1e-30, -1e-30)] + [
    s * v for s in (np.float32(1.0), np.float32(-1.0)) for v in (F32_BELOW_PI, F32_NEXT)
]
F32_PHASES = st.floats(-float(F32_BELOW_PI), float(F32_BELOW_PI), width=32)
F32_GARBAGE = [np.float32(v) for v in (np.nan, np.inf, -np.inf, 3e38, -3e38, 4.0)] + [np.float32(PI)]


class TestFold:
    def test_edges(self):
        assert same_bits(fold(EDGES), wrap(EDGES))
        assert not np.signbit(fold(np.array([-0.0, 0.0]))).any()

    def test_in_place(self):
        d = EDGES.copy()
        out = fold(d, out=d)
        assert out is d
        assert same_bits(d, wrap(EDGES))

    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats(-TWO_PI, TWO_PI)))
    def test_any_value_in_range(self, d):
        assert same_bits(fold(d), wrap(d))

    @given(st.data(), st.sampled_from([np.float32, np.float64]))
    def test_differences_of_two_phases(self, data, dtype):
        """d = a - b in float64, of phases a, b in (-pi, pi] stored as
        float32 (as WPHS stores them) or float64."""
        phase = F32_PHASES if dtype == np.float32 else st.floats(-PI, PI, exclude_min=True)
        edges = [v for v in EDGES if -PI < v <= PI and dtype(v) == v]
        a, b = (
            data.draw(arrays(dtype, 32, elements=st.one_of(phase, st.sampled_from(edges))))
            for _ in range(2)
        )
        d = np.subtract(a, b, dtype=np.float64)
        assert same_bits(fold(d), wrap(d))


def piston_shift_wrap_form(frames, mask, anchor):
    """piston_shift as it was before the fold: subtract, zero the invalid
    pixels, wrap."""
    i, j = anchor
    out = np.subtract(frames, frames[..., i, j, None, None], dtype=np.float64)
    np.copyto(out, 0.0, where=~mask)
    out[...] = wrap(out)
    return out


def prepare_wrap_form(frames, mask, pool_levels, anchor):
    """prepare_for_clustering as it was before the fold: the wrap form of
    the shift, then each level's 2x2 sums, divided by the counts and
    wrapped."""
    out = piston_shift_wrap_form(frames, mask, anchor)
    for _ in range(pool_levels):
        counts = _pool_counts(mask)
        ho, wo = counts.shape
        f = out[..., : 2 * ho, : 2 * wo]
        pairs = f[..., 0::2] + f[..., 1::2]
        sums = pairs[..., 0::2, :] + pairs[..., 1::2, :]
        sums /= np.maximum(counts, 1)
        out, mask = wrap(sums), counts > 0
    return out, mask


@st.composite
def float32_stacks(draw):
    """(frames, mask, anchor): an (n, h, w) float32 stack whose valid pixels
    (the anchor among them) are drawn mostly from F32_EDGES, with garbage at
    the invalid pixels."""
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(16, 21)), draw(st.integers(16, 21))
    elements = st.one_of(st.sampled_from(F32_EDGES), F32_PHASES)
    values = draw(arrays(np.float32, (n, h, w), elements=elements))
    mask = draw(arrays(bool, (h, w), elements=st.sampled_from([True, True, True, False])))
    anchor = center_pixel((h, w))
    mask[anchor] = True
    garbage = draw(arrays(np.float32, (n, h, w), elements=st.sampled_from(F32_GARBAGE)))
    frames = np.where(mask, values, garbage)
    check_frame(frames, mask)
    return frames, mask, anchor


class TestKernelsGiveTheWrapFormBits:
    @given(float32_stacks())
    def test_piston_shift(self, case):
        frames, mask, anchor = case
        want = piston_shift_wrap_form(frames, mask, anchor)
        assert same_bits(piston_shift(frames, mask, anchor), want)
        for f, w in zip(frames, want):  # one frame at a time, as the conventional route shifts
            assert same_bits(piston_shift(f, mask, anchor), w)

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @given(case=float32_stacks())
    def test_prepare_for_clustering(self, case, levels):
        frames, mask, anchor = case
        got = prepare_for_clustering(frames, mask, levels, anchor)
        want = prepare_wrap_form(frames, mask, levels, anchor)
        assert same_bits(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_negative_zero_at_valid_pixels_comes_back_positive(self):
        """A float32 -0.0 shifted by a +0.0 anchor is -0.0 - 0.0 = -0.0 in
        float64; wrap, and so the fold, give +0.0."""
        frames = np.zeros((1, 16, 16), dtype=np.float32)
        frames[0, :4] = -0.0
        mask = np.ones((16, 16), dtype=bool)
        got = piston_shift(frames, mask, center_pixel((16, 16)))
        assert not np.signbit(got).any()
        assert same_bits(got, piston_shift_wrap_form(frames, mask, center_pixel((16, 16))))
