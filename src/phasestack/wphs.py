"""WPHS wrapped-phase-stack files and JSON report files.

Byte layout (all little-endian):

    offset 0   magic  "WPHS" (4 bytes)
    offset 4   version u8 = 1
    offset 5   dtype   u8 = 0  (IEEE-754 binary32)
    offset 6   reserved u16 = 0
    offset 8   width  u32
    offset 12  height u32
    offset 16  frame_count u32
    offset 20  mask, width*height bytes row-major (1 valid / 0 invalid)
    then       frame_count rasters of width*height float32, row-major,
               radians in (-pi, pi]

Storage is 32-bit to halve file size; all computation is 64-bit.  Values
that land marginally out of range in float32 (e.g. float32(pi) > pi) are
normalized with wrap() on read.

``read_stack`` reads, zeroes and wraps the rasters in blocks of frames on
``core.map_blocks``' threads, one per CPU of the process's affinity mask.
Each block is read (with ``os.preadv``) into a buffer the calling thread
allocated and written to its frames of the one float64 stack, so the
threads write only into arrays the calling thread allocated and the stack
is the same, bit for bit, for any worker count.  BLAS is not involved.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .core import WRAP_LIMIT, PhaseStack, map_blocks, wrap

MAGIC = b"WPHS"
VERSION = 1
DTYPE_F32 = 0
HEADER = struct.Struct("<4sBBHIII")
HEADER_SIZE = HEADER.size  # 20


class StackFormatError(ValueError):
    """Malformed WPHS file; offset points at the offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def read_stack(path) -> PhaseStack:
    """Parse a WPHS file into a 64-bit PhaseStack.

    Raises StackFormatError naming the byte offset for bad magic, wrong
    version or dtype, truncation, malformed mask bytes, a mask with no
    valid pixel, or the first value at a valid pixel that is non-finite or
    too large to wrap into (-pi, pi].

    The file is read block by block, never held whole (see the module
    docstring).
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < HEADER_SIZE:
            raise StackFormatError(f"{path}: truncated at offset {size}", offset=size)
        magic, version, dtype, reserved, width, height, frame_count = HEADER.unpack(
            fh.read(HEADER_SIZE)
        )
        if magic != MAGIC:
            raise StackFormatError(f"{path}: bad magic {magic!r} at offset 0", offset=0)
        if version != VERSION:
            raise StackFormatError(f"{path}: unsupported version {version} at offset 4", offset=4)
        if dtype != DTYPE_F32:
            raise StackFormatError(f"{path}: unsupported dtype code {dtype} at offset 5", offset=5)
        if reserved != 0:
            raise StackFormatError(f"{path}: nonzero reserved field at offset 6", offset=6)
        if width < 2 or height < 2:
            raise StackFormatError(
                f"{path}: frame size {width}x{height} below 2x2 minimum at offset 8", offset=8
            )
        if frame_count < 1:
            raise StackFormatError(f"{path}: zero frame count at offset 16", offset=16)

        wh = width * height
        expected = HEADER_SIZE + wh + 4 * wh * frame_count
        if size < expected:
            raise StackFormatError(f"{path}: truncated at offset {size}", offset=size)
        if size > expected:
            raise StackFormatError(
                f"{path}: {size - expected} trailing bytes at offset {expected}", offset=expected
            )

        mask_bytes = np.frombuffer(fh.read(wh), dtype=np.uint8)
        bad = np.nonzero(mask_bytes > 1)[0]
        if bad.size:
            off = HEADER_SIZE + int(bad[0])
            raise StackFormatError(
                f"{path}: mask byte {mask_bytes[bad[0]]} not 0/1 at offset {off}", offset=off
            )
        mask = mask_bytes.astype(bool).reshape(height, width)
        if not mask.any():
            raise StackFormatError(
                f"{path}: mask has no valid pixels at offset {HEADER_SIZE}", offset=HEADER_SIZE
            )
        frames = np.empty((frame_count, height, width))
        invalid = ~mask

        def load(block, buf):
            n = block.stop - block.start
            raw = buf.reshape(-1).view("<f4")[: n * wh].reshape(n, height, width)
            start = HEADER_SIZE + wh + 4 * wh * block.start
            got = os.preadv(fh.fileno(), [raw], start)
            if got < raw.nbytes:  # the file shrank after the size check
                off = start + got
                raise StackFormatError(f"{path}: truncated at offset {off}", offset=off)
            np.copyto(raw, 0.0, where=invalid)  # invalid pixels may hold anything
            try:
                wrap(raw, out=frames[block])
            except ValueError:
                first = int(np.argmax(~(np.abs(raw) <= WRAP_LIMIT)))  # NaN too
                off = start + 4 * first
                if np.isfinite(raw.flat[first]):
                    what = "value at a valid pixel cannot be wrapped into (-pi, pi]"
                else:
                    what = "non-finite value at a valid pixel"
                raise StackFormatError(f"{path}: {what}, offset {off}", offset=off) from None

        # float64 scratch of half a frame's values holds a float32 raster
        for _ in map_blocks(load, frame_count, frames[0].nbytes, scratch=((wh + 1) // 2,)):
            pass
    return PhaseStack(frames=frames, mask=mask, _wrapped=True)


def write_stack(stack: PhaseStack, path) -> None:
    """Write a PhaseStack as WPHS.

    Payload round-trips bitwise for canonical stacks (values already
    float32-representable and in range); other values incur one float32
    rounding plus read-time normalization.
    """
    n, (h, w) = len(stack), stack.shape
    header = HEADER.pack(MAGIC, VERSION, DTYPE_F32, 0, w, h, n)
    mask_bytes = stack.mask.astype(np.uint8).tobytes()
    payload = np.ascontiguousarray(stack.frames, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(mask_bytes)
        fh.write(payload)


def write_report(report_dict: dict, path) -> None:
    """Write a report dict as stable, round-trippable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
