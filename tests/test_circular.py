import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasestack.circular import (
    RESULTANT_EPS,
    circular_mean,
    circular_mean_frame,
    circular_mean_rows,
    circular_rms_error,
)
from phasestack import core
from phasestack.core import wrap, wrapped_diff


class TestCircularMean:
    def test_single_sample(self):
        s = circular_mean([1.2])
        assert s.mean == pytest.approx(1.2, abs=1e-12)
        assert s.resultant_length == pytest.approx(1.0, abs=1e-12)
        assert s.sample_count == 1
        assert s.defined

    def test_straddles_branch_cut(self):
        # arithmetic mean of {pi-0.1, -(pi-0.1)} is 0; circular mean is pi
        s = circular_mean([math.pi - 0.1, -(math.pi - 0.1)])
        assert abs(wrapped_diff(s.mean, math.pi)) < 1e-12
        assert s.resultant_length == pytest.approx(math.cos(0.1), abs=1e-12)

    def test_plain_average_when_concentrated(self):
        s = circular_mean([0.1, 0.3])
        assert s.mean == pytest.approx(0.2, abs=1e-12)

    def test_antipodal_pair_undefined(self):
        s = circular_mean([0.0, math.pi])
        assert not s.defined
        assert math.isnan(s.mean)
        assert s.resultant_length <= RESULTANT_EPS

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circular_mean([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            circular_mean([0.0, math.nan])

    @given(
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=2, max_size=12),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_rotation_equivariance(self, base, shift):
        a = circular_mean(base)
        b = circular_mean([wrap(v + shift) for v in base])
        assert a.defined and b.defined
        assert abs(wrapped_diff(b.mean, a.mean + shift)) < 1e-10

    @given(st.floats(min_value=-math.pi + 1e-6, max_value=math.pi),
           st.integers(min_value=1, max_value=20))
    def test_identical_samples_have_unit_resultant(self, v, k):
        s = circular_mean([v] * k)
        assert s.resultant_length == pytest.approx(1.0, abs=1e-9)
        assert abs(wrapped_diff(s.mean, v)) < 1e-9

    def test_von_mises_concentration(self):
        # kappa=4 draws hug the center; the mean estimator should land close
        rng = np.random.default_rng(99)
        center = 2.0
        draws = wrap(center + rng.vonmises(0.0, 4.0, size=1000))
        s = circular_mean(draws)
        assert abs(wrapped_diff(s.mean, center)) < 0.05
        assert 0.7 < s.resultant_length < 0.95


def circular_mean_frame_expression(frames, mask):
    """circular_mean_frame through numpy's axis-0 means of full (k, h, w)
    cos and sin stacks: the oracle for the blockwise sums."""
    x = np.cos(frames).mean(axis=0)
    y = np.sin(frames).mean(axis=0)
    resultant = np.hypot(x, y)
    out_mask = mask & (resultant > RESULTANT_EPS)
    mean_frame = np.where(out_mask, wrap(np.arctan2(y, x)), 0.0)
    return mean_frame, resultant, out_mask


class TestCircularMeanFrame:
    @pytest.mark.parametrize("k", [1, 2, 3, 15, 16, 17, 33, 40, 485])
    def test_bits_match_axis0_mean(self, k):
        rng = np.random.default_rng(k)
        frames = wrap(rng.normal(0.0, 2.0, size=(k, 5, 7)))
        frames[:, 0, :] = -0.0  # sin(-0.0) sums must start from +0.0
        frames[:, 1, :] = math.pi
        frames[: k // 2, 2, :] = 0.0
        mask = rng.random((5, 7)) > 0.2
        got = circular_mean_frame(frames, mask)
        want = circular_mean_frame_expression(frames, mask)
        for g, e in zip(got, want):
            assert g.tobytes() == e.tobytes()

    def test_identical_frames_pass_through(self):
        rng = np.random.default_rng(4)
        f = wrap(rng.uniform(-math.pi, math.pi, size=(6, 6)))
        mask = np.ones((6, 6), dtype=bool)
        mean, resultant, out_mask = circular_mean_frame(np.stack([f, f, f]), mask)
        assert np.allclose(np.vectorize(wrapped_diff)(mean, f), 0.0, atol=1e-9)
        assert np.allclose(resultant, 1.0, atol=1e-9)
        assert np.array_equal(out_mask, mask)

    def test_agrees_with_scalar_version_per_pixel(self):
        rng = np.random.default_rng(5)
        frames = wrap(rng.uniform(-math.pi, math.pi, size=(7, 3, 3)))
        mask = np.ones((3, 3), dtype=bool)
        mean, resultant, _ = circular_mean_frame(frames, mask)
        for i in range(3):
            for j in range(3):
                s = circular_mean(frames[:, i, j])
                assert mean[i, j] == pytest.approx(s.mean, abs=1e-12)
                assert resultant[i, j] == pytest.approx(s.resultant_length, abs=1e-12)

    def test_undefined_pixels_dropped_from_mask(self):
        mask = np.ones((2, 2), dtype=bool)
        frames = np.zeros((2, 2, 2))
        frames[1, 0, 0] = math.pi  # antipodal with 0 at pixel (0, 0)
        mean, _, out_mask = circular_mean_frame(frames, mask)
        assert not out_mask[0, 0]
        assert mean[0, 0] == 0.0
        assert out_mask[0, 1] and out_mask[1, 0] and out_mask[1, 1]

    def test_invalid_input_pixels_stay_invalid(self):
        mask = np.array([[True, False], [True, True]])
        frames = np.zeros((3, 2, 2))
        _, _, out_mask = circular_mean_frame(frames, mask)
        assert not out_mask[0, 1]

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            circular_mean_frame(np.zeros((0, 4, 4)), np.ones((4, 4), dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            circular_mean_frame(np.zeros((2, 4, 4)), np.ones((4, 5), dtype=bool))


class TestCircularMeanFrameBlocks:
    """circular_mean_frame's blocks on 1 and 2 worker threads."""

    @pytest.mark.parametrize("k, per_block", [(7, 7), (7, 1), (10, 3)])
    def test_bits_match_axis0_mean(self, block_pool, k, per_block):
        rng = np.random.default_rng(k * per_block)
        frames = wrap(rng.normal(0.0, 2.0, size=(k, 6, 9)))
        frames[:, 0, :] = -0.0
        frames[:, 1, :] = math.pi
        mask = rng.random((6, 9)) > 0.2
        block_pool(per_block, (6, 9))
        got = circular_mean_frame(frames, mask)
        want = circular_mean_frame_expression(frames, mask)
        for g, e in zip(got, want):
            assert g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("k", [40, 400])
    def test_peak_memory_is_the_window_not_the_cluster(self, block_pool, k):
        """The traced peak is the cos and sin of the blocks in flight plus
        a few frames, far below the 2 * k frames of a whole-cluster map."""
        frames = wrap(np.random.default_rng(k).normal(0.0, 2.0, size=(k, 32, 32)))
        mask = np.ones((32, 32), dtype=bool)
        block_pool(4, (32, 32))
        tracemalloc.start()
        try:
            circular_mean_frame(frames, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = core.WORKERS + 1 if core.WORKERS > 1 else 1
        assert peak <= window * 2 * core.BLOCK_BYTES + 16 * frames[0].nbytes


# Bound on circular_mean_rows' mean-vector error, from its docstring:
# (pi + 1.5 * sqrt(2)) * 2**-24 = 3.14e-7 for float32(d) and the float32 sin
# and cos, rounded up over the float64 steps.
DELTA = 3.2e-7


@st.composite
def row_stacks(draw):
    """(frames, rows, mask): a stack with a cluster's rows drawn from it.

    The members scatter around a per-pixel center with one of several
    spreads; some pixels hold pi exactly, and on some the second half of
    the members is antipodal to the first (an exact cancellation)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 24))
    n = k + draw(st.integers(0, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    spread = draw(st.sampled_from([0.0, 1e-7, 1e-3, 0.3, 1.5, 10.0]))
    center = rng.uniform(-math.pi, math.pi, size=(h, w))
    frames = wrap(center + rng.normal(0.0, spread, size=(n, h, w)))
    frames[rng.random((n, h, w)) < 0.05] = math.pi
    rows = rng.permutation(n)[:k]
    if k % 2 == 0 and draw(st.booleans()):
        cancel = rng.random((h, w)) < 0.5
        first, second = rows[: k // 2], rows[k // 2 :]
        frames[second] = np.where(cancel, wrap(frames[first] + math.pi), frames[second])
    mask = rng.random((h, w)) > 0.2
    return frames, rows, mask


class TestCircularMeanRows:
    """The float32 kernel against circular_mean_frame, its float64 oracle."""

    @given(row_stacks())
    def test_within_bound_of_oracle(self, case):
        frames, rows, mask = case
        mean, resultant, out_mask = circular_mean_rows(frames, rows, mask)
        o_mean, o_resultant, o_mask = circular_mean_frame(frames[rows], mask)
        assert np.all(np.abs(resultant - o_resultant) <= DELTA)
        decided = np.abs(o_resultant - RESULTANT_EPS) > DELTA
        assert np.array_equal(out_mask[decided], o_mask[decided])
        both = out_mask & o_mask
        bound = np.arcsin(np.minimum(1.0, DELTA / o_resultant[both])) + 1e-12
        assert np.all(np.abs(wrapped_diff(mean[both], o_mean[both])) <= bound)
        assert not np.any(out_mask & ~mask)
        assert np.all(mean[~out_mask] == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_identical_frames_come_back_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        f = wrap(rng.uniform(-math.pi, math.pi, size=(9, 7)))
        f[0, :] = math.pi
        f[1, :] = -0.0  # wrap returns +0.0 for it, as it does everywhere
        f[2, :] = np.nextafter(-math.pi, 0.0)
        frames = np.stack([f] * k)
        mask = np.ones(f.shape, dtype=bool)
        mean, resultant, out_mask = circular_mean_rows(frames, range(k), mask)
        assert mean.tobytes() == wrap(f).tobytes()
        assert np.all(resultant == 1.0)
        assert np.array_equal(out_mask, mask)

    @pytest.mark.parametrize("center", [math.pi, np.nextafter(-math.pi, 0.0), 1.0])
    def test_error_scales_with_spread_across_the_cut(self, center):
        # members within +-1e-3 of a center, straddling +-pi for the first
        # two: deviations from the first member are folded, so rounding them
        # to float32 costs about 2e-3 * 2**-24, not pi * 2**-24
        spread = 1e-3
        rng = np.random.default_rng(11)
        frames = wrap(center + rng.uniform(-spread, spread, size=(50, 8, 8)))
        mask = np.ones((8, 8), dtype=bool)
        mean, _, _ = circular_mean_rows(frames, range(50), mask)
        o_mean, _, _ = circular_mean_frame(frames, mask)
        assert np.abs(wrapped_diff(mean, o_mean)).max() <= 8 * spread * 2.0**-24

    @pytest.mark.parametrize(
        "a", [0.0, 0.5, -2.0, math.pi, np.nextafter(-math.pi, 0.0), 3.0, -3.1, 1e-300]
    )
    def test_exact_antipodal_pair_is_undefined(self, a):
        frames = np.full((2, 2, 2), a)
        frames[1] = wrap(a + math.pi)
        mask = np.ones((2, 2), dtype=bool)
        mean, resultant, out_mask = circular_mean_rows(frames, [0, 1], mask)
        assert not out_mask.any()
        assert np.all(resultant <= DELTA)
        assert np.all(mean == 0.0)

    @pytest.mark.parametrize("k, per_block", [(7, 7), (7, 1), (10, 3), (13, 4)])
    def test_same_bits_for_any_worker_count_and_block(self, block_pool, k, per_block):
        rng = np.random.default_rng(k * per_block)
        frames = wrap(rng.normal(0.0, 2.0, size=(k + 3, 6, 9)))
        frames[:, 1, :] = math.pi
        rows = rng.permutation(k + 3)[:k]
        mask = rng.random((6, 9)) > 0.2
        want = circular_mean_rows(frames, rows, mask)  # one block, calling thread
        block_pool(per_block, (6, 9))
        got = circular_mean_rows(frames, rows, mask)
        for g, e in zip(got, want):
            assert g.tobytes() == e.tobytes()

    def test_invalid_pixels_do_not_reach_valid_ones(self):
        rng = np.random.default_rng(3)
        frames = wrap(rng.normal(0.0, 1.0, size=(6, 5, 5)))
        mask = rng.random((5, 5)) > 0.3
        garbage = frames.copy()
        garbage[:, ~mask] = rng.uniform(-1e30, 1e30, size=(6, int((~mask).sum())))
        want = circular_mean_rows(frames, [5, 1, 2], mask)
        mean, resultant, out_mask = circular_mean_rows(garbage, [5, 1, 2], mask)
        assert mean.tobytes() == want[0].tobytes()
        assert resultant[mask].tobytes() == want[1][mask].tobytes()
        assert np.array_equal(out_mask, want[2])

    @pytest.mark.parametrize("k", [40, 400])
    def test_no_copy_of_the_members(self, block_pool, k):
        """The traced peak is the blocks in flight plus a few frames, far
        below the k frames of a frames[rows] gather."""
        # 64x64 frames: numpy's 64 KB casting buffers are two frames each
        frames = wrap(np.random.default_rng(k).normal(0.0, 2.0, size=(k + 5, 64, 64)))
        rows = list(range(5, k + 5))
        mask = np.ones((64, 64), dtype=bool)
        block_pool(4, (64, 64))
        tracemalloc.start()
        try:
            circular_mean_rows(frames, rows, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = core.WORKERS + 1 if core.WORKERS > 1 else 1
        assert peak <= window * 2 * core.BLOCK_BYTES + 16 * frames[0].nbytes

    @pytest.mark.parametrize(
        "frames, rows, mask",
        [
            (np.zeros((3, 4, 4)), [], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [[0, 1]], np.ones((4, 4), dtype=bool)),
            (np.zeros((4, 4)), [0], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [0, 1], np.ones((4, 5), dtype=bool)),
            (np.zeros((3, 4, 4)), [0, 3], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [-1, 0], np.ones((4, 4), dtype=bool)),
        ],
    )
    def test_bad_input_rejected(self, frames, rows, mask):
        with pytest.raises(ValueError):
            circular_mean_rows(frames, rows, mask)


class TestCircularRmsError:
    def test_identical_is_zero(self):
        a = np.full((3, 3), 1.0)
        assert circular_rms_error(a, a) == 0.0

    def test_wraps_before_squaring(self):
        a = np.full((2, 2), math.pi - 0.05)
        b = np.full((2, 2), -(math.pi - 0.05))
        assert circular_rms_error(a, b) == pytest.approx(0.1, abs=1e-12)

    def test_respects_mask(self):
        a = np.zeros((2, 2))
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        mask = np.array([[True, True], [True, False]])
        assert circular_rms_error(a, b, mask) == 0.0
        with pytest.raises(ValueError):
            circular_rms_error(a, b, np.zeros((2, 2), dtype=bool))
