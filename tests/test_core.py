import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasestack import core
from phasestack.core import (
    TWO_PI,
    WRAP_LIMIT,
    PhaseStack,
    check_frame,
    check_mask,
    circular_aperture,
    detect_residues,
    map_blocks,
    residue_count,
    wrap,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def wrap_expression(x):
    """wrap as one expression with full-size temporaries: the oracle for
    the in-place steps (which fold down only where |x| > 4 pi)."""
    x = np.asarray(x, dtype=np.float64)
    out = x - TWO_PI * np.rint(x / TWO_PI)
    out = np.where(out <= -np.pi, out + TWO_PI, out)
    return np.where(out > np.pi, out - TWO_PI, out)


# Inputs whose unfolded reduction lands just above pi: -31 pi (by 3.6e-15)
# and a value near 1e15 (by 0.11).
ABOVE_PI_INPUTS = (-97.38937226128358, -999586381881838.0)


class TestWrap:
    def test_zero(self):
        assert wrap(0.0) == 0.0

    def test_three_pi_maps_to_pi(self):
        assert wrap(3 * np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_negative_multiple(self):
        assert wrap(-np.pi / 2 - TWO_PI) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_boundary_is_half_open(self):
        assert wrap(np.pi) == np.pi
        assert wrap(-np.pi) == np.pi

    def test_in_range_values_pass_through_bit_exact(self, rng):
        x = rng.uniform(-np.pi, np.pi, size=1000)
        x[0] = np.pi
        out = wrap(x)
        assert np.array_equal(out, x)

    def test_negative_zero(self):
        # float64 (and float32 copied to float64) turn -0.0 into +0.0
        x = np.array([-0.0, 1.0, -0.0])
        for out in (wrap(x), wrap(x.astype(np.float32))):
            assert not np.signbit(out).any()
        assert not np.signbit(wrap(-0.0))

    @given(finite_floats)
    def test_idempotent(self, x):
        once = wrap(x)
        assert wrap(once) == once
        assert -np.pi < once <= np.pi

    @given(
        st.floats(min_value=-3.2, max_value=3.2),
        st.integers(min_value=-10, max_value=10),
    )
    def test_periodic(self, x, k):
        assert wrap(x + TWO_PI * k) == pytest.approx(wrap(x), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            wrap(bad)

    @pytest.mark.parametrize(
        "x",
        [np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 0.0, -0.0, TWO_PI, -TWO_PI, 5e-324,
         np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 1e18, -1e300],
    )
    def test_bits_match_expression_on_special_values(self, x):
        if abs(x) > WRAP_LIMIT:
            with pytest.raises(ValueError):
                wrap(x)
            return
        got = wrap(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == wrap_expression(x).tobytes()

    @given(st.lists(st.floats(-WRAP_LIMIT, WRAP_LIMIT), min_size=1, max_size=40))
    @example(list(ABOVE_PI_INPUTS))
    def test_bits_match_expression(self, xs):
        x = np.array(xs)
        assert wrap(x).tobytes() == wrap_expression(x).tobytes()
        quarter = np.rint(x % 64) * (np.pi / 2) - 16 * np.pi  # exact-pi ties
        assert wrap(quarter).tobytes() == wrap_expression(quarter).tobytes()

    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(1e15, 1e308),
            st.floats(-1e308, -1e15),
        )
    )
    @example(ABOVE_PI_INPUTS[0])
    @example(ABOVE_PI_INPUTS[1])
    @example(WRAP_LIMIT)
    @example(np.nextafter(WRAP_LIMIT, np.inf))
    @example(-WRAP_LIMIT)
    def test_in_range_or_raises(self, x):
        """Every finite value up to WRAP_LIMIT wraps into (-pi, pi], as a
        scalar and inside an array; every larger one raises."""
        if abs(x) > WRAP_LIMIT:
            with pytest.raises(ValueError):
                wrap(x)
            with pytest.raises(ValueError):
                wrap(np.array([0.0, x]))
            return
        for got in (wrap(x), wrap(np.array([0.0, x]))[1]):
            assert -np.pi < got <= np.pi

    def test_float32_input_gives_the_bits_of_its_float64_copy(self, rng):
        from32 = rng.uniform(-40.0, 40.0, size=(3, 5)).astype(np.float32)
        got = wrap(from32)
        assert got.dtype == np.float64
        assert got.tobytes() == wrap(from32.astype(np.float64)).tobytes()

    def test_array_input(self):
        out = wrap(np.array([0.0, 3 * np.pi, -TWO_PI]))
        assert out.shape == (3,)
        assert np.allclose(out, [0.0, np.pi, 0.0], atol=1e-12)


class TestMapBlocks:
    @pytest.mark.parametrize("n, per_block", [(7, 7), (7, 1), (10, 3)])
    def test_blocks_in_order(self, block_pool, n, per_block):
        block_pool(per_block, (4, 4))
        got = list(map_blocks(lambda b: (b.start, b.stop), n, 8 * 16))
        starts = range(0, n, per_block)
        assert got == [(s, min(s + per_block, n)) for s in starts]

    def test_scratch_slot_untouched_until_consumed(self, block_pool):
        """Each block's buffer holds its own values when consumed, and at
        most WORKERS + 1 blocks are submitted and not yet consumed."""
        block_pool(2, (3, 3))
        rng = np.random.default_rng(0)
        delays = rng.uniform(0.0, 0.004, size=20)
        started, consumed = [], 0
        lock = threading.Lock()

        def fill(block, buf):
            with lock:
                started.append(block.start)
            time.sleep(delays[block.start // 2])
            buf[...] = block.start
            return block.start, buf

        for start, buf in map_blocks(fill, 40, 8 * 9, scratch=(3, 3)):
            assert buf.shape == (2, 3, 3) and np.all(buf == start)
            consumed += 1
            with lock:
                assert len(started) - consumed <= core.WORKERS
        assert consumed == 20

    def test_worker_error_propagates_unchanged_with_no_block_running(self, block_pool):
        block_pool(1, (2, 2))
        error = ValueError("block 1 is bad")
        running, started = set(), []
        lock = threading.Lock()

        def work(block):
            with lock:
                running.add(block.start)
                started.append(block.start)
            try:
                if block.start == 1:
                    raise error
                time.sleep(0.05)  # still running when block 1 fails
            finally:
                with lock:
                    running.discard(block.start)
            return block.start

        got = []
        with pytest.raises(ValueError) as caught:
            for start in map_blocks(work, 30, 32):
                got.append(start)
        assert caught.value is error
        assert got == [0]  # results before the failing block still arrive
        assert not running
        assert max(started) <= core.WORKERS  # later blocks were never started

    def test_stress_more_workers_than_cores(self, monkeypatch):
        """8 threads, a short switch interval and one-frame blocks: every
        buffer still holds its own block's values when consumed."""
        monkeypatch.setattr(core, "WORKERS", 8)
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                seen = []
                for start, buf in map_blocks(
                    lambda b, buf: (b.start, np.copyto(buf, b.start) or buf), 300, 8 * 64, (8, 8)
                ):
                    assert np.all(buf == start)
                    seen.append(start)
                assert seen == list(range(300))
        finally:
            sys.setswitchinterval(interval)

    def test_runs_inline_with_one_block_or_worker(self, block_pool):
        block_pool(4, (2, 2))
        caller = threading.get_ident()
        threads = set(map_blocks(lambda b: threading.get_ident(), 4, 32))
        assert threads == {caller}
        threads = set(map_blocks(lambda b: threading.get_ident(), 12, 32))
        assert (threads == {caller}) == (core.WORKERS == 1)


class TestMasks:
    def test_circular_aperture_shape_and_center(self):
        m = circular_aperture((33, 33))
        assert m.shape == (33, 33)
        assert m[16, 16]
        assert not m[0, 0]

    def test_check_mask_rejects_empty(self):
        with pytest.raises(ValueError):
            check_mask(np.zeros((4, 4), dtype=bool))


def check_frame_gathered(values, mask=None):
    """check_frame through a gather of the valid pixels: the oracle for the
    per-pixel min and max over the frames."""
    v = values if mask is None else values[..., np.asarray(mask, dtype=bool)]
    if not np.all(np.isfinite(v)):
        raise ValueError("phase frame has non-finite valid pixels")
    if v.size and (v.min() <= -np.pi or v.max() > np.pi):
        raise ValueError("phase frame has valid pixels outside (-pi, pi]")


def _outcome(check, values, mask):
    try:
        check(values, mask)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckFrame:
    @given(
        st.integers(0, 3),
        st.lists(
            st.tuples(
                st.integers(0, 3 * 4 * 5 - 1),
                st.sampled_from([np.nan, np.inf, -np.inf, np.pi, -np.pi, 3.5, -0.0, 1e300]),
            ),
            max_size=4,
        ),
        st.integers(0, 2**20 - 1),
        st.booleans(),
    )
    def test_same_outcome_as_gathered_check(self, n_frames, edits, mask_bits, stack):
        """Same accept/reject and message as the gathered check, for one
        frame or a stack, with special values at valid and invalid pixels."""
        values = np.zeros((3, 4, 5))
        for i, v in edits:
            values.reshape(-1)[i] = v
        values = values[:n_frames] if stack else values[0]
        mask = np.array([(mask_bits >> b) & 1 for b in range(20)], dtype=bool).reshape(4, 5)
        for m in (mask, None):
            assert _outcome(check_frame, values, m) == _outcome(check_frame_gathered, values, m)

    NON_FINITE = "phase frame has non-finite valid pixels"
    OUTSIDE = "phase frame has valid pixels outside (-pi, pi]"

    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, NON_FINITE),
            (np.inf, NON_FINITE),
            (-np.inf, NON_FINITE),
            (-np.pi, OUTSIDE),
            (np.nextafter(np.pi, 4.0), OUTSIDE),
            (1e300, OUTSIDE),
        ],
    )
    def test_whole_array_pass_keeps_every_error(self, stack, bad, message):
        """A value that fails the one-pass min/max test is still reported
        with its message at a valid pixel, and still accepted at an invalid
        one, for a frame and a stack, with and without garbage elsewhere."""
        mask = np.ones((5, 6), dtype=bool)
        mask[0, :] = False
        mask[2, 3] = False  # a hole
        for fill in (0.0, np.nan, 7.0):
            f = np.where(mask, 0.5, fill)
            f = np.stack([f, f]) if stack else f
            at_valid, at_hole = f.copy(), f.copy()
            at_valid[..., 3, 4] = bad
            at_hole[..., 2, 3] = bad
            assert _outcome(check_frame, at_valid, mask) == message
            assert _outcome(check_frame, at_hole, mask) is None
            if fill == 0.0:  # without a mask every pixel is valid
                assert _outcome(check_frame, at_valid, None) == message
                assert _outcome(check_frame, at_hole, None) == message

    @pytest.mark.parametrize("stack", [False, True])
    def test_garbage_at_invalid_pixels_accepted(self, stack):
        mask = circular_aperture((8, 8))
        f = np.where(mask, 3.0, np.nan)
        f[~mask] = np.resize([np.nan, np.inf, -np.inf, -np.pi, 1e300], (~mask).sum())
        f = np.stack([f, f, f]) if stack else f
        assert _outcome(check_frame, f, mask) is None
        with np.errstate(over="ignore"):  # 1e300 becomes inf
            f = f.astype(np.float32)
        assert _outcome(check_frame, f, mask) is None

    def test_rejects_out_of_range(self):
        f = np.zeros((4, 4))
        f[1, 1] = 4.0
        with pytest.raises(ValueError):
            check_frame(f)

    def test_out_of_range_at_invalid_pixel_ok(self):
        f = np.zeros((4, 4))
        f[1, 1] = 100.0
        m = np.ones((4, 4), dtype=bool)
        m[1, 1] = False
        check_frame(f, m)

    @pytest.mark.parametrize("stack", [False, True])
    def test_float32_pi_is_outside(self, stack):
        """float32(pi) lies above pi and float32(-pi) below -pi: a float32
        frame holding either is rejected, as its float64 copy is, and their
        inward float32 neighbours are accepted."""
        f32 = np.float32
        for v, ok in (
            (f32(np.pi), False),
            (f32(-np.pi), False),
            (np.nextafter(f32(np.pi), f32(0.0)), True),
            (np.nextafter(f32(-np.pi), f32(0.0)), True),
        ):
            f = np.zeros((2, 4, 4) if stack else (4, 4), dtype=np.float32)
            f[..., 1, 2] = v
            want = None if ok else "phase frame has valid pixels outside (-pi, pi]"
            for frame in (f, f.astype(np.float64)):
                assert _outcome(check_frame, frame, None) == want

    def test_rejects_1d_and_tiny(self):
        with pytest.raises(ValueError):
            check_frame(np.zeros(9))
        with pytest.raises(ValueError):
            check_frame(np.zeros((1, 5)))


class TestPhaseStack:
    def test_basic_construction(self):
        frames = np.zeros((3, 4, 5))
        mask = np.ones((4, 5), dtype=bool)
        s = PhaseStack(frames=frames, mask=mask)
        assert len(s) == 3
        assert s.shape == (4, 5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PhaseStack(frames=np.zeros((2, 4, 4)), mask=np.ones((5, 5), dtype=bool))

    def test_rejects_out_of_range_frames(self):
        frames = np.full((1, 4, 4), 5.0)
        with pytest.raises(ValueError):
            PhaseStack(frames=frames, mask=np.ones((4, 4), dtype=bool))

    def test_float32_frames_kept_and_checked(self):
        mask = np.ones((4, 4), dtype=bool)
        frames = np.zeros((2, 4, 4), dtype=np.float32)
        assert PhaseStack(frames=frames, mask=mask).frames is frames
        assert PhaseStack(frames=frames.astype(np.int16), mask=mask).frames.dtype == np.float64
        frames[1, 2, 3] = np.pi  # float32(pi) > pi
        with pytest.raises(ValueError, match="outside"):
            PhaseStack(frames=frames, mask=mask)
        mask[2, 3] = False  # only valid pixels are checked
        assert PhaseStack(frames=frames, mask=mask).frames.dtype == np.float32


def vortex(n, yc, xc, sign=1.0):
    r, c = np.mgrid[0:n, 0:n].astype(np.float64)
    return wrap(sign * np.arctan2(r - yc, c - xc))


class TestDetectResidues:
    def test_constant_frame(self):
        charges = detect_residues(np.full((6, 6), 0.7))
        assert charges.shape == (5, 5)
        assert residue_count(charges) == 0

    def test_single_vortex(self):
        # phase winds once around (3.5, 3.5): inside loop cell (3, 3)
        charges = detect_residues(vortex(8, 3.5, 3.5))
        assert residue_count(charges) == 1
        assert abs(charges[3, 3]) == 1

    def test_conjugate_vortex_flips_sign(self):
        a = detect_residues(vortex(8, 3.5, 3.5, sign=1.0))
        b = detect_residues(vortex(8, 3.5, 3.5, sign=-1.0))
        assert a[3, 3] == -b[3, 3]
        assert int(a.sum()) == -int(b.sum())

    def test_total_charge_matches_boundary_winding(self):
        # two like vortices -> winding 2 -> net charge magnitude 2
        f = wrap(
            np.arctan2(*np.mgrid[-2.5:5.5, -3.5:4.5])
            + np.arctan2(*np.mgrid[-5.5:2.5, -4.5:3.5])
        )
        charges = detect_residues(f)
        assert abs(int(charges.sum())) == 2

    def test_smooth_surface_clean(self, rng):
        r, c = np.mgrid[0:32, 0:32].astype(np.float64)
        surface = 0.8 * np.sin(r / 5.0) + 1.1 * np.cos(c / 7.0) + 0.3 * r
        charges = detect_residues(wrap(surface))
        assert residue_count(charges) == 0

    def test_loops_touching_invalid_pixels_are_zero(self):
        f = vortex(8, 3.5, 3.5)
        m = np.ones((8, 8), dtype=bool)
        m[3, 3] = False  # corner of the vortex loop
        charges = detect_residues(f, m)
        assert charges[3, 3] == 0
        # the loops sharing that pixel are also suppressed
        assert charges[2, 2] == 0 and charges[2, 3] == 0 and charges[3, 2] == 0

    def test_deterministic(self, rng):
        f = wrap(rng.uniform(-np.pi, np.pi, size=(16, 16)))
        assert np.array_equal(detect_residues(f), detect_residues(f))

    def test_charges_are_small_ints(self, rng):
        f = wrap(rng.uniform(-np.pi, np.pi, size=(32, 32)))
        charges = detect_residues(f)
        assert charges.dtype == np.int8
        assert set(np.unique(charges)) <= {-1, 0, 1}
