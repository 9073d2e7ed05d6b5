import numpy as np
import pytest

from phasestack.core import circular_aperture, wrap
from phasestack.preprocess import center_pixel, piston_shift, prepare_for_clustering
from phasestack.wphs import _wrap_in_place


def full_mask(shape):
    return np.ones(shape, dtype=bool)


# Frame-by-frame reference: the loop the stack operations replaced.

def reference_piston_shift(frame, mask, anchor):
    i, j = anchor
    return np.where(mask, wrap(frame - frame[i, j]), 0.0)


def reference_pool2(frame, mask):
    h, w = frame.shape
    ho, wo = h // 2, w // 2
    f = np.where(mask, frame, 0.0)[: 2 * ho, : 2 * wo]
    m = mask[: 2 * ho, : 2 * wo]
    counts = m.reshape(ho, 2, wo, 2).sum(axis=(1, 3))
    sums = f.reshape(ho, 2, wo, 2).sum(axis=(1, 3))
    pooled_mask = counts > 0
    with np.errstate(invalid="ignore"):
        pooled = np.where(pooled_mask, sums / np.maximum(counts, 1), 0.0)
    return wrap(pooled), pooled_mask


def reference_prepare(frames, mask, pool_levels, anchor):
    shifted = np.stack([reference_piston_shift(f, mask, anchor) for f in frames])
    pooled, pooled_mask = shifted, mask
    for _ in range(pool_levels):
        pooled_frames = []
        for f in pooled:
            pf, pm = reference_pool2(f, pooled_mask)
            pooled_frames.append(pf)
        pooled, pooled_mask = np.stack(pooled_frames), pm
    return pooled, pooled_mask


class TestPistonShift:
    def test_anchor_subtracted_everywhere(self):
        frame = np.array([[1.0, 2.0], [3.0, 3.0]])
        out = piston_shift(frame, full_mask((2, 2)), anchor=(1, 1))
        assert np.array_equal(out, np.array([[-2.0, -1.0], [0.0, 0.0]]))

    def test_result_rewrapped(self):
        frame = np.array([[3.0, -3.0], [0.0, 0.0]])
        out = piston_shift(frame, full_mask((2, 2)), anchor=(0, 1))
        # 3.0 - (-3.0) = 6.0 wraps to 6 - 2*pi
        assert out[0, 0] == pytest.approx(6.0 - 2 * np.pi, abs=1e-12)
        assert out[0, 1] == 0.0

    def test_zero_anchor_is_identity(self):
        frame = np.array([[0.0, 0.5], [-0.5, 1.5]])
        out = piston_shift(frame, full_mask((2, 2)), anchor=(0, 0))
        assert np.array_equal(out, frame)

    def test_default_anchor_is_center(self):
        frame = np.zeros((5, 7))
        frame[2, 3] = 1.25
        out = piston_shift(frame, full_mask((5, 7)))
        assert center_pixel((5, 7)) == (2, 3)
        assert out[2, 3] == 0.0
        assert out[0, 0] == -1.25

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        frame = rng.uniform(-3.0, 3.0, size=(8, 8))
        mask = full_mask((8, 8))
        once = piston_shift(frame, mask, anchor=(4, 4))
        twice = piston_shift(once, mask, anchor=(4, 4))
        assert np.array_equal(once, twice)

    def test_invalid_anchor_rejected(self):
        frame = np.zeros((4, 4))
        mask = full_mask((4, 4))
        mask[2, 2] = False
        with pytest.raises(ValueError):
            piston_shift(frame, mask, anchor=(2, 2))

    def test_invalid_pixels_left_at_zero(self):
        frame = np.array([[1.0, 2.0], [3.0, 0.0]])
        mask = np.array([[True, True], [True, False]])
        out = piston_shift(frame, mask, anchor=(0, 0))
        assert out[1, 1] == 0.0


def pool_once(frame, mask):
    """One pooling pass of one frame whose anchor (center) pixel holds 0.0,
    so that the piston shift leaves it as it is."""
    pooled, pmask = prepare_for_clustering(frame[None], mask, pool_levels=1)
    return pooled[0], pmask


class TestPooling:
    def test_plain_block_mean(self):
        frame = np.zeros((8, 8))
        frame[0:2, 0:2] = [[1.0, 2.0], [3.0, -3.0]]
        pooled, pmask = pool_once(frame, full_mask((8, 8)))
        assert pooled.shape == (4, 4)
        assert pooled[0, 0] == pytest.approx(0.75, abs=1e-15)
        assert pmask.all()

    def test_partial_block_averages_valid_only(self):
        frame = np.zeros((8, 8))
        frame[0:2, 0:2] = [[3.0, 3.1], [-3.0, 0.0]]
        mask = full_mask((8, 8))
        mask[1, 1] = False
        pooled, pmask = pool_once(frame, mask)
        assert pooled[0, 0] == pytest.approx((3.0 + 3.1 - 3.0) / 3, abs=1e-12)
        assert pmask[0, 0]

    def test_all_invalid_block_goes_invalid(self):
        frame = np.zeros((8, 8))
        mask = full_mask((8, 8))
        mask[0:2, 0:2] = False
        pooled, pmask = pool_once(frame, mask)
        assert not pmask[0, 0]
        assert pooled[0, 0] == 0.0
        assert pmask[0, 1] and pmask[1, 0] and pmask[1, 1]

    def test_odd_trailing_row_col_dropped(self):
        frame = np.zeros((9, 9))
        frame[0:2, 0:2] = [[0.0, 1.0], [2.0, 3.0]]
        frame[8, :] = 3.0  # trailing row content must not matter
        pooled, _ = pool_once(frame, full_mask((9, 9)))
        assert pooled.shape == (4, 4)
        assert pooled[0, 0] == pytest.approx(1.5)

    @pytest.mark.parametrize("size, levels, pooled", [(6, 1, "3x3"), (9, 2, "2x2"), (16, 3, "2x2")])
    def test_over_pooled_rejected(self, size, levels, pooled):
        message = f"prepare_for_clustering: pooled size {pooled} is below the 4x4 minimum"
        with pytest.raises(ValueError, match=message):
            prepare_for_clustering(np.zeros((1, size, size)), full_mask((size, size)), levels)


class TestPrepareForClustering:
    def test_levels_halve_resolution(self):
        rng = np.random.default_rng(0)
        frames = rng.uniform(-3, 3, size=(3, 16, 16))
        mask = full_mask((16, 16))
        pooled, pmask = prepare_for_clustering(frames, mask, pool_levels=2)
        assert pooled.shape == (3, 4, 4)
        assert pmask.shape == (4, 4)
        pooled, pmask = prepare_for_clustering(frames, mask, pool_levels=0)
        assert pooled.shape == (3, 16, 16)
        assert pmask.shape == (16, 16)

    def test_level_zero_only_piston_shifts(self):
        rng = np.random.default_rng(1)
        frames = rng.uniform(-1, 1, size=(2, 8, 8))
        mask = full_mask((8, 8))
        shifted, pmask = prepare_for_clustering(frames, mask, pool_levels=0, anchor=(4, 4))
        assert shifted.dtype == np.float64
        for i in range(2):
            assert np.allclose(shifted[i], frames[i] - frames[i, 4, 4], atol=1e-12)
        assert np.array_equal(pmask, mask)

    def test_piston_offset_removed_before_pooling(self):
        # two frames equal up to a constant collapse to identical pooled stacks
        base = np.random.default_rng(2).uniform(-1, 1, size=(8, 8))
        frames = np.stack([base, base + 1.7])
        mask = full_mask((8, 8))
        pooled, _ = prepare_for_clustering(frames, mask, pool_levels=1)
        assert np.allclose(pooled[0], pooled[1], atol=1e-12)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            prepare_for_clustering(np.zeros((1, 8, 8)), full_mask((8, 8)), pool_levels=-1)


class TestStackOperationsMatchFrameLoop:
    @pytest.mark.parametrize(
        "n, size, aperture, levels",
        [
            (40, 128, False, 1),  # several blocks, the last one partial
            (9, 37, True, 2),  # odd size: trailing row and column dropped
            (5, 30, True, 0),
            (3, 26, False, 2),
        ],
    )
    def test_bitwise_equal_to_reference(self, n, size, aperture, levels):
        rng = np.random.default_rng(size)
        frames = wrap(rng.uniform(-4.0, 4.0, size=(n, size, size)))
        mask = circular_aperture((size, size)) if aperture else full_mask((size, size))
        anchor = center_pixel((size, size))
        frames[:, ~mask] = 0.0
        got = prepare_for_clustering(frames, mask, levels, anchor)
        want = reference_prepare(frames, mask, levels, anchor)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_frame_and_stack_forms_agree(self):
        rng = np.random.default_rng(5)
        frames = wrap(rng.uniform(-4.0, 4.0, size=(4, 17, 19)))
        mask = circular_aperture((17, 19))
        shifted = piston_shift(frames, mask, anchor=(8, 9))
        pooled, pmask = prepare_for_clustering(frames, mask, 1, anchor=(8, 9))
        for i, (f, s) in enumerate(zip(frames, shifted)):
            assert np.array_equal(piston_shift(f, mask, anchor=(8, 9)), s)
            pf, pm = prepare_for_clustering(frames[i : i + 1], mask, 1, anchor=(8, 9))
            assert np.array_equal(pf[0], pooled[i]) and np.array_equal(pm, pmask)

    def test_every_block_validated(self):
        frames = np.zeros((4100, 8, 8))  # more than one block of 8x8 frames
        frames[-1, 1, 1] = 4.0  # out of range in the last frame only
        with pytest.raises(ValueError):
            prepare_for_clustering(frames, full_mask((8, 8)))
        with pytest.raises(ValueError):
            prepare_for_clustering(np.zeros((8, 8)), full_mask((8, 8)))


class TestPrepareBlocks:
    """prepare_for_clustering's blocks on 1 and 2 worker threads give the
    bits of the frame-by-frame reference."""

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("n, per_block", [(7, 7), (7, 1), (10, 3)])
    def test_bits_match_reference(self, block_pool, n, per_block, levels):
        size = 35
        rng = np.random.default_rng(n * per_block + levels)
        mask = circular_aperture((size, size), margin=1)
        frames = np.where(mask, wrap(rng.uniform(-4.0, 4.0, size=(n, size, size))), 0.0)
        anchor = center_pixel((size, size))
        block_pool(per_block, (size, size))
        got = prepare_for_clustering(frames, mask, levels, anchor)
        want = reference_prepare(frames, mask, levels, anchor)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("levels", [0, 1, 2])
    def test_float32_frames_give_the_bits_of_their_float64_copy(self, block_pool, levels):
        size = 35
        rng = np.random.default_rng(40 + levels)
        mask = circular_aperture((size, size), margin=1)
        frames = rng.uniform(-4.0, 4.0, size=(10, size, size)).astype(np.float32)
        frames[:, ~mask] = 0.0
        _wrap_in_place(frames)  # float32 in range, as read_stack stores it
        anchor = center_pixel((size, size))
        block_pool(3, (size, size))
        got = prepare_for_clustering(frames, mask, levels, anchor)
        want = reference_prepare(frames.astype(np.float64), mask, levels, anchor)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_worker_error_is_the_serial_error(self, block_pool):
        frames = np.zeros((10, 8, 8))
        frames[8, 2, 3] = 4.0  # out of range in the last block only
        block_pool(3, (8, 8))
        with pytest.raises(ValueError, match="outside") as err:
            prepare_for_clustering(frames, full_mask((8, 8)))
        assert type(err.value) is ValueError
