import math
import sys
import tracemalloc

import numpy as np
import pytest
from circular_reference import (
    circular_mean,
    circular_mean_rows_reference,
    circular_rms_error,
    wrapped_diff,
)
from hypothesis import given
from hypothesis import strategies as st

from phasestack.circular import RESULTANT_EPS, circular_mean_frame, circular_mean_rows
from phasestack import core
from phasestack.core import circular_aperture, wrap
from phasestack.preprocess import piston_shift
from phasestack.wphs import _wrap_in_place


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

    def test_nan_at_invalid_pixels_is_ignored(self):
        mask = circular_aperture((8, 8))
        rng = np.random.default_rng(3)
        frames = wrap(rng.normal(0.0, 1.0, size=(3, 8, 8)))
        with_nan = frames.copy()
        with_nan[:, ~mask] = np.nan
        got = circular_mean_frame(with_nan, mask)
        want = circular_mean_frame(frames, mask)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(got[1][mask], want[1][mask])

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
                m, r = circular_mean(frames[:, i, j])
                assert mean[i, j] == pytest.approx(m, abs=1e-12)
                assert resultant[i, j] == pytest.approx(r, abs=1e-12)

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
    """circular_mean_frame is the same, bit for bit, whatever the settings
    of ``map_blocks`` (1 or 2 workers, shrunken blocks) that
    circular_mean_rows is tested under."""

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


# Bound on circular_mean_rows' mean-vector error, from its docstring:
# (pi + 1.5 * sqrt(2)) * 2**-24 = 3.14e-7 for float32(d) and the float32 sin
# and cos, rounded up over the float64 steps.
DELTA = 3.2e-7


@st.composite
def row_stacks(draw):
    """(frames, rows, mask, anchor): a stack with a cluster's rows drawn
    from it, float64 or float32.

    The members scatter around a per-pixel center with one of several
    spreads, each offset by its own piston; some pixels hold pi exactly, and
    on some the second half of the members is antipodal to the first, with
    the first half's anchor values (a cancellation once shifted).  Frames
    are at least 2x2, as piston_shift, the oracle's first step, requires."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 24))
    n = k + draw(st.integers(0, 4))
    h, w = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    spread = draw(st.sampled_from([0.0, 1e-7, 1e-3, 0.3, 1.5, 10.0]))
    center = rng.uniform(-math.pi, math.pi, size=(h, w))
    piston = rng.uniform(-math.pi, math.pi, size=(n, 1, 1))
    frames = wrap(center + piston + rng.normal(0.0, spread, size=(n, h, w)))
    frames[rng.random((n, h, w)) < 0.05] = math.pi
    rows = rng.permutation(n)[:k]
    anchor = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
    if k % 2 == 0 and draw(st.booleans()):
        cancel = rng.random((h, w)) < 0.5
        first, second = rows[: k // 2], rows[k // 2 :]
        frames[second] = np.where(cancel, wrap(frames[first] + math.pi), frames[second])
        frames[second, anchor[0], anchor[1]] = frames[first, anchor[0], anchor[1]]
    if draw(st.booleans()):
        frames = frames.astype(np.float32)
        _wrap_in_place(frames)
    mask = rng.random((h, w)) > 0.2
    mask[anchor] = True
    return frames, rows, mask, anchor


class TestCircularMeanRows:
    """The float32 kernel against its float64 oracle, circular_mean_frame of
    the piston-shifted members."""

    @given(row_stacks())
    def test_within_bound_of_oracle(self, case):
        frames, rows, mask, anchor = case
        mean, resultant, out_mask = circular_mean_rows(frames, rows, mask, anchor)
        shifted = piston_shift(frames[rows], mask, anchor)
        o_mean, o_resultant, o_mask = circular_mean_frame(shifted, mask)
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
        f[4, 3] = 0.0  # the anchor: the shifted frame is wrap(f), special values and all
        frames = np.stack([f] * k)
        mask = np.ones(f.shape, dtype=bool)
        mean, resultant, out_mask = circular_mean_rows(frames, range(k), mask)
        assert mean.tobytes() == piston_shift(f, mask).tobytes() == wrap(f).tobytes()
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
        frames[:, 4, 4] = 0.0  # the anchor: shifted, the members still straddle the cut
        mask = np.ones((8, 8), dtype=bool)
        mean, _, _ = circular_mean_rows(frames, range(50), mask)
        o_mean, _, _ = circular_mean_frame(piston_shift(frames, mask), mask)
        assert np.abs(wrapped_diff(mean, o_mean)).max() <= 8 * spread * 2.0**-24

    @pytest.mark.parametrize(
        "a", [0.0, 0.5, -2.0, math.pi, np.nextafter(-math.pi, 0.0), 3.0, -3.1, 1e-300]
    )
    def test_exact_antipodal_pair_is_undefined(self, a):
        frames = np.full((2, 2, 2), a)
        frames[1] = wrap(a + math.pi)
        frames[:, 1, 1] = 0.0  # the anchor: the shifted members stay antipodal
        mask = np.ones((2, 2), dtype=bool)
        off = mask.copy()
        off[1, 1] = False
        mean, resultant, out_mask = circular_mean_rows(frames, [0, 1], mask)
        assert not out_mask[off].any()
        assert np.all(resultant[off] <= DELTA)
        assert np.all(mean == 0.0)
        assert out_mask[1, 1] and resultant[1, 1] == 1.0

    @pytest.mark.parametrize("k, per_block", [(7, 7), (7, 1), (10, 3), (13, 4)])
    def test_same_bits_for_any_worker_count_and_block(self, block_pool, k, per_block):
        rng = np.random.default_rng(k * per_block)
        frames = wrap(rng.normal(0.0, 2.0, size=(k + 3, 6, 9)))
        frames[:, 1, :] = math.pi
        rows = rng.permutation(k + 3)[:k]
        mask = rng.random((6, 9)) > 0.2
        mask[3, 4] = True  # the anchor
        want = circular_mean_rows(frames, rows, mask)  # one block, calling thread
        block_pool(per_block, (6, 9))
        got = circular_mean_rows(frames, rows, mask)
        for g, e in zip(got, want):
            assert g.tobytes() == e.tobytes()

    def test_stress_more_workers_than_cores(self, monkeypatch):
        """8 threads, a short switch interval and one run of members per
        block: every run's sums are still its own when the calling thread
        adds them, so the bits are those of one worker."""
        rng = np.random.default_rng(8)
        frames = wrap(rng.normal(0.0, 2.0, size=(60, 6, 9)))
        rows = rng.permutation(60)[:57]
        mask = rng.random((6, 9)) > 0.2
        mask[3, 4] = True  # the anchor
        monkeypatch.setattr(core, "WORKERS", 1)
        want = circular_mean_rows(frames, rows, mask)
        monkeypatch.setattr(core, "WORKERS", 8)
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * frames[0].size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = circular_mean_rows(frames, rows, mask)
                assert all(g.tobytes() == e.tobytes() for g, e in zip(got, want))
        finally:
            sys.setswitchinterval(interval)

    def test_invalid_pixels_do_not_reach_valid_ones(self):
        rng = np.random.default_rng(3)
        frames = wrap(rng.normal(0.0, 1.0, size=(6, 5, 5)))
        mask = rng.random((5, 5)) > 0.3
        mask[2, 2] = True  # the anchor
        want = circular_mean_rows(frames, [5, 1, 2], mask)
        for junk in (rng.uniform(-1e30, 1e30, size=(6, int((~mask).sum()))), np.nan):
            garbage = frames.copy()
            garbage[:, ~mask] = junk
            mean, resultant, out_mask = circular_mean_rows(garbage, [5, 1, 2], mask)
            assert mean.tobytes() == want[0].tobytes()
            assert resultant[mask].tobytes() == want[1][mask].tobytes()
            assert np.array_equal(out_mask, want[2])

    def test_float32_stack_gives_the_bits_of_its_float64_copy(self, block_pool):
        rng = np.random.default_rng(21)
        frames = rng.normal(0.0, 2.0, size=(12, 6, 9)).astype(np.float32)
        _wrap_in_place(frames)
        mask = rng.random((6, 9)) > 0.2
        mask[3, 4] = mask[2, 5] = True  # the default anchor and another
        rows = [9, 2, 4, 7, 0, 11]
        block_pool(4, (6, 9))
        for anchor in (None, (2, 5)):
            got = circular_mean_rows(frames, rows, mask, anchor)
            want = circular_mean_rows(frames.astype(np.float64), rows, mask, anchor)
            for g, e in zip(got, want):
                assert g.tobytes() == e.tobytes()

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

    @pytest.mark.parametrize("member", [0, 1, 2, 4])
    @pytest.mark.parametrize("per_block", [1, 2, 5])
    def test_every_member_is_range_checked(self, block_pool, member, per_block):
        """4.0 at a valid pixel of any member raises, as in the oracle's
        piston_shift, whatever block the member falls in."""
        frames = wrap(np.random.default_rng(member).normal(0.0, 1.0, size=(6, 5, 7)))
        rows = [5, 0, 3, 1, 2]
        frames[rows[member], 1, 4] = 4.0
        mask = np.ones((5, 7), dtype=bool)
        mask[0, 0] = False
        block_pool(per_block, (5, 7))
        with pytest.raises(ValueError):
            circular_mean_frame(piston_shift(frames[rows], mask), mask)
        with pytest.raises(ValueError, match="outside"):
            circular_mean_rows(frames, rows, mask)
        frames[rows[member], 1, 4] = 0.5
        frames[rows[member], 0, 0] = 4.0  # an invalid pixel is never read
        circular_mean_rows(frames, rows, mask)

    @pytest.mark.parametrize(
        "frames, rows, mask",
        [
            (np.zeros((3, 4, 4)), [], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [[0, 1]], np.ones((4, 4), dtype=bool)),
            (np.zeros((4, 4)), [0], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [0, 1], np.ones((4, 5), dtype=bool)),
            (np.zeros((3, 4, 4)), [0, 3], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [-1, 0], np.ones((4, 4), dtype=bool)),
            (np.zeros((3, 4, 4)), [0, 1], ~np.eye(4, dtype=bool)),  # invalid anchor (2, 2)
        ],
    )
    def test_bad_input_rejected(self, frames, rows, mask):
        with pytest.raises(ValueError):
            circular_mean_rows(frames, rows, mask)


def mean_of_samples(samples):
    """(mean, resultant) of ``circular_mean_rows`` at pixel (0, 0) of a
    (k, 2, 2) stack that holds the samples there and 0.0 at the anchor
    pixel (1, 1), so that the piston shift leaves them as they are."""
    frames = np.zeros((len(samples), 2, 2))
    frames[:, 0, 0] = samples
    mean, resultant, _ = circular_mean_rows(frames, range(len(samples)), np.ones((2, 2), dtype=bool))
    return mean[0, 0], resultant[0, 0]


class TestCircularMeanOfSamples:
    """What a circular mean of angle samples is, on the pipeline's kernel."""

    def test_single_sample_comes_back(self):
        assert mean_of_samples([1.2]) == (1.2, 1.0)

    def test_straddles_branch_cut(self):
        # arithmetic mean of {pi-0.1, -(pi-0.1)} is 0; circular mean is pi
        mean, resultant = mean_of_samples([math.pi - 0.1, -(math.pi - 0.1)])
        assert abs(wrapped_diff(mean, math.pi)) <= 2 * DELTA
        assert resultant == pytest.approx(math.cos(0.1), abs=DELTA)

    def test_plain_average_when_concentrated(self):
        assert mean_of_samples([0.1, 0.3])[0] == pytest.approx(0.2, abs=2 * DELTA)

    @given(
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=2, max_size=12),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_rotation_equivariance(self, base, shift):
        # resultants of at least cos(0.5) > 0.87: each mean is within 2 DELTA
        a, _ = mean_of_samples(base)
        b, _ = mean_of_samples(wrap(np.add(base, shift)))
        assert abs(wrapped_diff(b, a + shift)) <= 4 * DELTA

    @given(st.floats(min_value=-math.pi + 1e-6, max_value=math.pi),
           st.integers(min_value=1, max_value=20))
    def test_identical_samples_have_unit_resultant(self, v, k):
        assert mean_of_samples([v] * k) == (wrap(v), 1.0)

    def test_von_mises_concentration(self):
        # kappa=4 draws hug the center; the mean estimator should land close
        rng = np.random.default_rng(99)
        center = 2.0
        mean, resultant = mean_of_samples(wrap(center + rng.vonmises(0.0, 4.0, size=1000)))
        assert abs(wrapped_diff(mean, center)) < 0.05
        assert 0.7 < resultant < 0.95


# Bound on the mean-vector distance between circular_mean_rows and its
# reference: each is within DELTA of the float64 oracle.
DELTA_REFERENCE = 2 * DELTA

# Values at the edges of the single fold: pi, the first values inside +-pi,
# zeros of both signs, the smallest normals and +-pi/2.
EXTREMES = (math.pi, np.nextafter(-math.pi, 0.0), 0.0, -0.0, 2.0**-1022, -(2.0**-1022),
            math.pi / 2, -math.pi / 2, np.nextafter(math.pi, 0.0), 1.0)


@st.composite
def extreme_stacks(draw):
    """(frames, rows, mask, anchor): every value one of ``EXTREMES``, NaN at
    the invalid pixels, float64 or float32 (each value rounded to the
    float32 nearest it inside (-pi, pi])."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 12))
    h, w = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    frames = np.asarray(EXTREMES)[rng.integers(len(EXTREMES), size=(k, h, w))]
    if draw(st.booleans()):
        frames = frames.astype(np.float32)
        _wrap_in_place(frames)
    anchor = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
    mask = rng.random((h, w)) > 0.2
    mask[anchor] = True
    frames[:, ~mask] = np.nan
    return frames, rng.permutation(k), mask, anchor


def assert_within_reference_bound(frames, rows, mask, anchor):
    """circular_mean_rows within DELTA_REFERENCE of its reference: mean
    vector, resultant, mask (where the reference's resultant is decided)
    and mean."""
    mean, resultant, out_mask = circular_mean_rows(frames, rows, mask, anchor)
    r_mean, r_resultant, r_mask = circular_mean_rows_reference(frames, rows, mask, anchor)
    vec = np.hypot(resultant * np.cos(mean) - r_resultant * np.cos(r_mean),
                   resultant * np.sin(mean) - r_resultant * np.sin(r_mean))
    both = out_mask & r_mask
    assert np.all(vec[both] <= DELTA_REFERENCE + 1e-15)
    assert np.all(np.abs(resultant - r_resultant)[mask] <= DELTA_REFERENCE)
    decided = np.abs(r_resultant - RESULTANT_EPS) > DELTA_REFERENCE
    assert np.array_equal(out_mask[decided], r_mask[decided])
    bound = np.arcsin(np.minimum(1.0, DELTA_REFERENCE / r_resultant[both])) + 1e-12
    assert np.all(np.abs(wrapped_diff(mean[both], r_mean[both])) <= bound)
    assert np.all(mean[~out_mask] == 0.0)


class TestCircularMeanRowsAgainstReference:
    """The single-fold kernel with sums on the workers against the kernel
    it replaced (``tests/circular_reference.py``)."""

    @given(row_stacks())
    def test_within_bound_of_reference(self, case):
        assert_within_reference_bound(*case)

    @given(extreme_stacks())
    def test_extremes_within_bound_of_reference(self, case):
        assert_within_reference_bound(*case)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_deviation_that_rounds_onto_minus_three_pi(self, block_pool, dtype):
        """A member at nextafter(-pi, 0) whose anchor holds pi, against a
        ref of pi: in float64 (f - f[anchor]) - ref rounds onto -3pi, which
        the fold takes to -pi, the angle the reference folds to pi.  Only
        cos and sin of it are used, so the mean stays within the bound."""
        low = np.nextafter(dtype(-math.pi), dtype(0.0))
        high = -low if dtype is np.float32 else dtype(math.pi)  # float32(pi) > pi
        frames = np.zeros((3, 2, 2), dtype=dtype)
        frames[:, 0, 1] = frames[:, 1, 0] = 0.5
        frames[0, 0, 0] = frames[2, 0, 0] = high  # ref = high at (0, 0)
        frames[1, 0, 0], frames[1, 1, 1] = low, high
        mask = np.ones((2, 2), dtype=bool)
        block_pool(1, (2, 2))
        if dtype is np.float64:
            u = np.float64(low) - np.float64(high)
            assert u - np.float64(high) <= -3 * math.pi
            assert core.fold(np.array([u - high]))[0] == -math.pi
        assert_within_reference_bound(frames, [0, 1, 2], mask, (1, 1))
        mean, resultant, _ = circular_mean_rows(frames, [0, 1, 2], mask, (1, 1))
        assert abs(resultant[0, 0] - 1 / 3) <= DELTA
        assert abs(wrapped_diff(mean[0, 0], high)) <= 3 * DELTA


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
