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

Storage is 32-bit to halve file size, and ``read_stack`` keeps it: its
stack holds float32 frames, which the kernels convert to float64 per block
or per frame.  A stored value outside (-pi, pi] (float32(pi) > pi, say) is
replaced by the float32 nearest its ``wrap`` inside the interval; values
inside are kept as stored.

``read_stack`` reads, zeroes and checks the rasters in blocks of frames on
``core.map_blocks``' threads, one per CPU of the process's affinity mask.
Each block is read (with ``os.preadv``) straight into its frames of the one
float32 stack, which the calling thread allocated, so the threads write
only into that array and the stack is the same, bit for bit, for any
worker count.  BLAS is not involved.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .core import _PI, WRAP_LIMIT, PhaseStack, map_blocks, wrap

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


def _wrap_in_place(x: np.ndarray) -> None:
    """Wrap the float32 array ``x`` in place, as a stack is stored: each
    value outside (-pi, pi] becomes the float32 nearest its ``wrap`` inside
    the interval (float32 of it, or one step towards 0 where that rounds
    onto float32(+-pi)); values inside are left as they are (-0.0 too), so
    an array already inside costs one min and one max.  On a non-finite
    value, or one beyond ``WRAP_LIMIT``, raises ``wrap``'s ValueError and
    leaves ``x`` as it was."""
    if -_PI < x.min() and x.max() <= _PI:  # NaN fails both
        return
    outside = ~((x > -_PI) & (x <= _PI))  # NaN too, for wrap to reject
    v = wrap(x[outside]).astype(np.float32)
    edge = np.abs(v) > _PI  # rounded onto float32(+-pi)
    v[edge] = np.nextafter(v[edge], np.float32(0.0))
    x[outside] = v


def read_stack(path) -> PhaseStack:
    """Parse a WPHS file into a PhaseStack of float32 frames, as stored.

    Invalid pixels read as 0.0.  A valid value v outside (-pi, pi] is
    stored as the float32 nearest ``wrap(v)`` inside the interval:
    float32(wrap(v)), or one float32 step towards 0 where that would round
    onto float32(+-pi).  That is at most 1.2e-7 rad (half a float32 ulp at
    pi) from the float64 ``wrap(v)``, or 1.6e-7 rad in the second case.
    Other values are kept bit for bit.

    Raises StackFormatError naming the byte offset for bad magic, wrong
    version or dtype, truncation, malformed mask bytes, a mask with no
    valid pixel, or the first value at a valid pixel that is non-finite or
    too large to wrap into (-pi, pi].

    The file is read block by block into the stack itself, with no other
    copy of the rasters (see the module docstring).
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
        frames = np.empty((frame_count, height, width), dtype="<f4")
        invalid = None if mask.all() else ~mask

        def load(block):
            raw = frames[block]
            start = HEADER_SIZE + wh + 4 * wh * block.start
            got = os.preadv(fh.fileno(), [raw], start)
            if got < raw.nbytes:  # the file shrank after the size check
                off = start + got
                raise StackFormatError(f"{path}: truncated at offset {off}", offset=off)
            if invalid is not None:  # invalid pixels may hold anything
                np.copyto(raw, 0.0, where=invalid)
            try:
                _wrap_in_place(raw)
            except ValueError:
                first = int(np.argmax(~(np.abs(raw) <= WRAP_LIMIT)))  # NaN too
                off = start + 4 * first
                if np.isfinite(raw.flat[first]):
                    what = "value at a valid pixel cannot be wrapped into (-pi, pi]"
                else:
                    what = "non-finite value at a valid pixel"
                raise StackFormatError(f"{path}: {what}, offset {off}", offset=off) from None

        # blocks as long as the other whole-stack kernels', in float64 frames
        for _ in map_blocks(load, frame_count, 8 * wh):
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
    payload = np.ascontiguousarray(stack.frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(mask_bytes)
        fh.write(payload)  # through the buffer protocol, with no bytes copy


def write_report(report_dict: dict, path) -> None:
    """Write a report dict as stable, round-trippable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
