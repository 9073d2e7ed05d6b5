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
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .core import PhaseStack, wrap

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
    valid pixel, or values at valid pixels that are non-finite or too
    large to wrap into (-pi, pi].
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < HEADER_SIZE:
        raise StackFormatError(f"{path}: truncated at offset {len(data)}", offset=len(data))
    magic, version, dtype, reserved, width, height, frame_count = HEADER.unpack_from(data)
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
    if len(data) < expected:
        raise StackFormatError(f"{path}: truncated at offset {len(data)}", offset=len(data))
    if len(data) > expected:
        raise StackFormatError(
            f"{path}: {len(data) - expected} trailing bytes at offset {expected}", offset=expected
        )

    mask_bytes = np.frombuffer(data, dtype=np.uint8, count=wh, offset=HEADER_SIZE)
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
    frames = np.frombuffer(data, dtype="<f4", count=frame_count * wh, offset=HEADER_SIZE + wh)
    frames = frames.astype(np.float64).reshape(frame_count, height, width)
    del data, mask_bytes  # drop the raw bytes before any full-size temporary
    bad = ~np.isfinite(frames)
    bad &= mask  # invalid pixels may hold anything finite or not
    if bad.any():
        off = HEADER_SIZE + wh + 4 * int(np.argmax(bad))
        raise StackFormatError(
            f"{path}: non-finite value at a valid pixel, offset {off}", offset=off
        )
    del bad
    np.copyto(frames, 0.0, where=~mask)
    frames = wrap(frames)
    try:
        return PhaseStack(frames=frames, mask=mask)
    except ValueError as exc:
        # a value too large to wrap is a format error; any other failure is not
        bad = ((frames > np.pi) | (frames <= -np.pi)) & mask
        if not bad.any():
            raise
        off = HEADER_SIZE + wh + 4 * int(np.argmax(bad))
        raise StackFormatError(
            f"{path}: value at a valid pixel cannot be wrapped into (-pi, pi], offset {off}",
            offset=off,
        ) from exc


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
