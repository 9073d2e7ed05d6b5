import json
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasestack import core, wphs
from phasestack.core import PhaseStack, circular_aperture, wrap
from phasestack.wphs import (
    HEADER_SIZE,
    StackFormatError,
    read_report,
    read_stack,
    write_report,
    write_stack,
)


def build_file(width=2, height=2, frames=None, mask=None, magic=b"WPHS",
               version=1, dtype=0, reserved=0, frame_count=None):
    """Assemble WPHS bytes by hand, independent of write_stack."""
    if frames is None:
        frames = [np.zeros((height, width), dtype="<f4")]
    if mask is None:
        mask = np.ones((height, width), dtype=np.uint8)
    if frame_count is None:
        frame_count = len(frames)
    header = struct.pack("<4sBBHIII", magic, version, dtype, reserved,
                         width, height, frame_count)
    body = mask.astype(np.uint8).tobytes()
    for f in frames:
        body += np.asarray(f, dtype="<f4").tobytes()
    return header + body


class TestReadStack:
    def test_hand_built_minimal_file(self, tmp_path):
        f = np.array([[0.0, 1.0], [-1.0, 3.0]], dtype="<f4")
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=[f]))
        stack = read_stack(path)
        assert len(stack) == 1
        assert stack.frames.dtype == np.float64
        assert np.array_equal(stack.frames[0], [[0.0, 1.0], [-1.0, 3.0]])
        assert stack.mask.all()

    def test_non_square_row_major_order(self, tmp_path):
        f = np.array([[0.0, 0.5, 1.0], [-1.0, 2.0, -2.0]], dtype="<f4")
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(width=3, height=2, frames=[f]))
        stack = read_stack(path)
        assert stack.shape == (2, 3)
        assert np.array_equal(stack.frames[0], f.astype(np.float64))

    def test_out_of_range_value_wrap_normalized(self, tmp_path):
        f = np.array([[3.2, 0.0], [0.0, 0.0]], dtype="<f4")
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=[f]))
        stack = read_stack(path)
        expect = float(np.float32(3.2)) - 2 * math.pi
        assert stack.frames[0, 0, 0] == pytest.approx(expect, abs=1e-12)

    def test_invalid_pixels_tolerate_garbage_and_read_as_zero(self, tmp_path):
        f = np.array([[np.nan, 0.25], [np.inf, 0.5]], dtype="<f4")
        mask = np.array([[0, 1], [0, 1]], dtype=np.uint8)
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=[f], mask=mask))
        stack = read_stack(path)
        assert stack.frames[0, 0, 0] == 0.0
        assert stack.frames[0, 1, 0] == 0.0
        assert stack.frames[0, 0, 1] == 0.25
        assert not stack.mask[0, 0]

    @pytest.mark.parametrize(
        "kwargs, offset",
        [
            (dict(magic=b"XPHS"), 0),
            (dict(version=2), 4),
            (dict(dtype=1), 5),
            (dict(reserved=7), 6),
            (dict(width=1), 8),
            (dict(frame_count=0), 16),
        ],
    )
    def test_header_field_errors_carry_offsets(self, tmp_path, kwargs, offset):
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(**kwargs))
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == offset
        assert f"offset {offset}" in str(err.value)

    def test_truncated_file(self, tmp_path):
        data = build_file()
        path = tmp_path / "s.wphs"
        path.write_bytes(data[:-1])
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == len(data) - 1
        assert "truncated" in str(err.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.wphs"
        path.write_bytes(b"WPHS\x01")
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == 5

    def test_trailing_bytes(self, tmp_path):
        data = build_file()
        path = tmp_path / "s.wphs"
        path.write_bytes(data + b"\x00\x00\x00")
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert "3 trailing bytes" in str(err.value)
        assert err.value.offset == len(data)

    def test_bad_mask_byte_offset(self, tmp_path):
        mask = np.array([[1, 1], [1, 2]], dtype=np.uint8)
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(mask=mask))
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == HEADER_SIZE + 3

    def test_nan_at_valid_pixel_offset(self, tmp_path):
        f = np.array([[0.0, 0.0], [np.nan, 0.0]], dtype="<f4")
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=[f]))
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == HEADER_SIZE + 4 + 4 * 2

    def test_multi_frame_count_respected(self, tmp_path):
        frames = [np.full((2, 2), v, dtype="<f4") for v in (0.1, 0.2, 0.3)]
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=frames))
        stack = read_stack(path)
        assert len(stack) == 3
        assert stack.frames[2, 0, 0] == pytest.approx(0.3, abs=1e-6)


    def test_all_invalid_mask_rejected(self, tmp_path):
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(mask=np.zeros((2, 2), dtype=np.uint8)))
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == HEADER_SIZE

    def test_value_too_large_to_wrap_rejected(self, tmp_path):
        # at 1e18, wrap's reduction error (128 rad here) exceeds pi
        f = np.array([[0.0, 0.0], [0.0, 1e18]], dtype="<f4")
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=[f]))
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == HEADER_SIZE + 4 + 4 * 3

    def test_other_phase_stack_errors_propagate(self, tmp_path, monkeypatch):
        # only an out-of-range value becomes a StackFormatError; a failure of
        # any other PhaseStack check keeps its own type and message
        import phasestack.wphs as wphs

        def refuse(**kwargs):
            raise ValueError("some other check")

        monkeypatch.setattr(wphs, "PhaseStack", refuse)
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file())
        with pytest.raises(ValueError, match="some other check") as err:
            read_stack(path)
        assert not isinstance(err.value, StackFormatError)

    def test_stack_equals_public_constructor(self, tmp_path, monkeypatch):
        """read_stack skips only the range check its own wrap guarantees: its
        stack equals, bit for bit, the one PhaseStack builds with every
        check from the same wrapped values."""
        rng = np.random.default_rng(12)
        raw = rng.uniform(-3.5, 3.5, size=(5, 6, 7)).astype("<f4")
        raw[:, 0, 0] = np.float32(math.pi)
        mask = (rng.random((6, 7)) > 0.2).astype(np.uint8)
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(width=7, height=6, frames=list(raw), mask=mask))
        checks = []
        monkeypatch.setattr(core, "check_frame", lambda *a: checks.append(a))
        got = read_stack(path)
        assert checks == []
        monkeypatch.undo()
        want = PhaseStack(frames=wrap(np.where(mask, raw, 0.0)), mask=mask.astype(bool))
        for name in ("frames", "mask", "acquisition_index"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_peak_memory_bounded(self, tmp_path):
        """The traced peak stays within 2.5x the float64 stack: one float64
        copy, one wrap buffer, bool temporaries; no raw bytes or np.where
        copy held alongside them."""
        rng = np.random.default_rng(7)
        frames = rng.uniform(-3.0, 3.0, size=(100, 64, 64)).astype(np.float32)
        mask = np.ones((64, 64), dtype=np.uint8)
        mask[:3, :3] = 0
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(width=64, height=64, frames=list(frames), mask=mask))
        tracemalloc.start()
        try:
            stack = read_stack(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * stack.frames.nbytes


class TestReadStackBlocks:
    """read_stack's blocks on 1 and 2 worker threads give the bits of a
    whole-stack expression, and report the first bad value in file order."""

    @pytest.mark.parametrize("n, per_block", [(7, 7), (7, 1), (10, 3)])
    def test_bits_match_whole_stack_expression(self, tmp_path, block_pool, n, per_block):
        rng = np.random.default_rng(n * per_block)
        raw = rng.uniform(-4.0, 4.0, size=(n, 9, 11)).astype("<f4")
        raw[:, 0, 0] = np.float32(np.pi)  # float32(pi) > pi: wrapped on read
        mask = circular_aperture((9, 11))
        mask[0, 0] = True
        raw[:, ~mask] = np.nan  # garbage at invalid pixels
        path = tmp_path / "s.wphs"
        mask_bytes = mask.astype(np.uint8)
        path.write_bytes(build_file(width=11, height=9, frames=list(raw), mask=mask_bytes))
        block_pool(per_block, (9, 11))
        stack = read_stack(path)
        want = wrap(np.where(mask, raw.astype(np.float64), 0.0))
        assert stack.frames.tobytes() == want.tobytes()
        assert np.array_equal(stack.mask, mask)

    def test_first_bad_block_reported_when_a_later_one_fails_first(
        self, tmp_path, block_pool, monkeypatch
    ):
        frames = np.zeros((9, 2, 2), dtype="<f4")
        frames[:, 0, 0] = np.arange(9) / 10  # frame index, readable in any block
        frames[1, 1, 0] = np.nan  # block 0
        frames[7, 0, 1] = np.inf  # block 2
        path = tmp_path / "s.wphs"
        path.write_bytes(build_file(frames=list(frames)))
        block_pool(3, (2, 2))
        finished = []
        real_wrap = wphs.wrap

        def slow_first_block(x, out=None):
            first = int(round(float(x[0, 0, 0]) * 10))
            try:
                if first == 0:
                    time.sleep(0.2)
                return real_wrap(x, out=out)
            finally:
                finished.append(first)

        monkeypatch.setattr(wphs, "wrap", slow_first_block)
        with pytest.raises(StackFormatError) as err:
            read_stack(path)
        assert err.value.offset == HEADER_SIZE + 4 + 4 * (4 * 1 + 2)
        if core.WORKERS > 1:  # block 2 failed while block 0 was still running
            assert finished == [3, 6, 0]

    def test_too_large_and_non_finite_messages(self, tmp_path, block_pool):
        block_pool(1, (2, 2))
        for value, words in ((1e30, "cannot be wrapped"), (-np.inf, "non-finite")):
            frames = np.zeros((3, 2, 2), dtype="<f4")
            frames[2, 1, 1] = value
            path = tmp_path / "s.wphs"
            path.write_bytes(build_file(frames=list(frames)))
            with pytest.raises(StackFormatError, match=words) as err:
                read_stack(path)
            assert err.value.offset == HEADER_SIZE + 4 + 4 * (4 * 2 + 3)


_VALID = build_file(
    width=3,
    height=2,
    frames=[np.full((2, 3), v, dtype="<f4") for v in (0.5, -2.0)],
    mask=np.array([[1, 1, 0], [1, 1, 1]], dtype=np.uint8),
)


class TestHeaderFuzz:
    @given(
        st.lists(
            st.tuples(st.integers(0, len(_VALID) - 1), st.integers(0, 255)),
            min_size=1,
            max_size=8,
        ),
        st.integers(-8, 8),
    )
    def test_byte_mutations_raise_only_stack_format_error(self, tmp_path_factory, edits, resize):
        data = bytearray(_VALID)
        for index, byte in edits:
            data[index] = byte
        if resize < 0:
            del data[resize:]
        else:
            data += bytes(resize)
        path = tmp_path_factory.mktemp("fuzz") / "s.wphs"
        path.write_bytes(bytes(data))
        try:
            stack = read_stack(path)
        except StackFormatError:
            return
        valid = stack.frames[:, stack.mask]
        assert np.all(valid > -math.pi) and np.all(valid <= math.pi)


class TestWriteStack:
    def test_header_fields_in_written_bytes(self, tmp_path):
        frames = np.zeros((4, 2, 3))
        stack = PhaseStack(frames=frames, mask=np.ones((2, 3), dtype=bool))
        path = tmp_path / "s.wphs"
        write_stack(stack, path)
        data = path.read_bytes()
        magic, version, dtype, reserved, w, h, n = struct.unpack_from("<4sBBHIII", data)
        assert (magic, version, dtype, reserved) == (b"WPHS", 1, 0, 0)
        assert (w, h, n) == (3, 2, 4)
        assert len(data) == HEADER_SIZE + 6 + 4 * 6 * 4

    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        frames = wrap(rng.uniform(-3.0, 3.0, size=(3, 8, 8)).astype(np.float32)
                      .astype(np.float64))
        mask = np.ones((8, 8), dtype=bool)
        mask[0, 0] = False
        frames[:, 0, 0] = 0.0
        stack = PhaseStack(frames=frames, mask=mask)
        p1 = tmp_path / "a.wphs"
        p2 = tmp_path / "b.wphs"
        write_stack(stack, p1)
        write_stack(read_stack(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReports:
    def test_round_trip_and_fixpoint(self, tmp_path):
        report = {
            "schema_version": 1,
            "method": "clustered",
            "rmse_rad": 0.123,
            "cluster_sizes_chosen": [5, 3],
            "warnings": [],
            "params": {"cut": 0.5, "modes_removed": ["piston", "power"]},
        }
        p1 = tmp_path / "r.json"
        p2 = tmp_path / "r2.json"
        write_report(report, p1)
        back = read_report(p1)
        assert back == report
        write_report(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_file_is_plain_json_with_newline(self, tmp_path):
        p = tmp_path / "r.json"
        write_report({"a": 1}, p)
        text = p.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}
