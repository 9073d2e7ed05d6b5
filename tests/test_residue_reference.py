"""detect_residues against the float-circulation reference: the same int8
charges bit for bit, or the same error.

The kernel takes each edge's 2pi count from two comparisons with pi; the
reference wraps each difference and rounds the circulation.  The cases
crowd values onto and one float step inside +-pi, where a comparison or a
rounding would first go the other way, and fill invalid pixels with
values outside the interval.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from residue_reference import detect_residues_reference

from phasestack.core import TWO_PI, circular_aperture, detect_residues, turns, wrap
from phasestack.synth import peaks_surface

PI = math.pi
BELOW_PI = math.nextafter(PI, 0.0)  # the largest float64 below pi
ABOVE_MINUS_PI = -BELOW_PI  # the smallest float64 above -pi
EDGES = [PI, BELOW_PI, ABOVE_MINUS_PI, math.nextafter(BELOW_PI, 0.0), -math.nextafter(BELOW_PI, 0.0),
         PI / 2, -PI / 2, 0.0, -0.0, 5e-324, -5e-324, 1e-16, -1e-16]
GARBAGE = [np.nan, np.inf, -np.inf, 1e300, -1e300, 4.0, -PI]

phase = st.floats(-PI, PI, exclude_min=True)
near_edges = st.one_of(st.sampled_from(EDGES), phase)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def assert_same(frame, mask=None):
    want = outcome(detect_residues_reference, frame, mask)
    got = outcome(detect_residues, frame, mask)
    if isinstance(want, str):
        assert got == want
        return
    assert got.dtype == want.dtype == np.int8
    assert np.array_equal(got, want)


@st.composite
def masks(draw, h, w):
    kind = draw(st.sampled_from(["none", "full", "hole", "random"]))
    if kind == "none":
        return None
    mask = np.ones((h, w), dtype=bool)
    if kind == "hole":
        r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        mask[r0 : r0 + draw(st.integers(1, 3)), c0 : c0 + draw(st.integers(1, 3))] = False
    elif kind == "random":
        mask = draw(arrays(bool, (h, w), elements=st.sampled_from([True, True, True, False])))
    return mask


@st.composite
def frames(draw, elements, max_side=12):
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    frame = draw(arrays(np.float64, (h, w), elements=elements))
    mask = draw(masks(h, w))
    if mask is not None and draw(st.booleans()):
        fill = draw(arrays(np.float64, (h, w), elements=st.sampled_from(GARBAGE)))
        frame = np.where(mask, frame, fill)
    return frame, mask


@given(frames(near_edges), st.data())
def test_invalid_pixels_are_never_read(case, data):
    """NaN, +-inf or +-1e300 at the invalid pixels give the charges that
    zeros there give, and no warning: the kernel reads them only into the
    loops it zeroes."""
    frame, mask = case
    if mask is None or mask.all():
        mask = np.ones(frame.shape, dtype=bool)
        h, w = frame.shape
        mask[data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = False
    fill = data.draw(arrays(np.float64, frame.shape, elements=st.sampled_from(GARBAGE[:5])))
    zeros = np.where(mask, frame, 0.0)
    garbage = np.where(mask, frame, fill)
    with np.errstate(over="ignore"):  # 1e300 becomes inf in float32
        garbage32 = garbage.astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dirty, clean in ((garbage, zeros), (garbage32, zeros.astype(np.float32))):
            want = outcome(detect_residues, clean, mask)  # a float32 pi is out of range
            got = outcome(detect_residues, dirty, mask)
            assert got == want if isinstance(want, str) else np.array_equal(got, want)


@given(frames(near_edges))
def test_values_on_and_next_to_pi(case):
    assert_same(*case)


@given(frames(near_edges, max_side=40))
def test_values_on_and_next_to_pi_larger(case):
    assert_same(*case)


@st.composite
def antipodal_checkerboards(draw, max_side=12):
    """Corners alternating between a value and one about pi away, so that
    every edge's wrapped difference sits at or next to +-pi."""
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    a = draw(st.sampled_from(EDGES))
    other = wrap(a + PI)
    # each cell is its checkerboard value or one float step to either side,
    # kept inside (-pi, pi]
    steps = draw(arrays(np.int8, (h, w), elements=st.integers(-1, 1)))
    board = np.where(np.add.outer(np.arange(h), np.arange(w)) % 2 == 1, other, a)
    frame = np.where(steps > 0, np.nextafter(board, 4.0), np.where(steps < 0, np.nextafter(board, -4.0), board))
    frame = np.where((frame > PI) | (frame <= -PI), board, frame)
    return frame, draw(masks(h, w))


@given(antipodal_checkerboards())
def test_antipodal_checkerboards(case):
    """Where the four wrapped differences of a loop all sit at +-pi the
    circulation is at its largest, yet it stays strictly inside
    (-4pi, 4pi): the reference clamps and the kernel does not, so equal
    charges show that the clamp never acts on a frame in (-pi, pi]."""
    frame, mask = case
    assert_same(frame, mask)
    charges = detect_residues(frame, mask)
    assert set(np.unique(charges)) <= {-1, 0, 1}


def test_checkerboard_one_float_step_from_pi_makes_residues():
    """The corners 0, pi, 0, pi around a loop turn by pi at every edge: the
    wrapped differences are pi, pi, pi, pi, and the circulation 0.  Moving
    one 0 to a float step below pi brings its four edges' differences to
    near 0, and two of its four loops then carry charge."""
    frame = np.where(np.add.outer(np.arange(4), np.arange(4)) % 2 == 1, PI, 0.0)
    assert_same(frame)
    frame[1, 1] = BELOW_PI  # turns its loops by one float step less than pi
    assert_same(frame)
    assert np.count_nonzero(detect_residues(frame)) == 2


@given(frames(near_edges))
def test_float32_input(case):
    """float32 frames convert to float64 before the differences, in both;
    a float32 value next to +-pi may fall outside the interval, and then
    both raise the same error."""
    frame, mask = case
    with np.errstate(over="ignore"):  # 1e300 at an invalid pixel becomes inf
        frame = frame.astype(np.float32)
    assert_same(frame, mask)


@pytest.mark.parametrize("seed", range(3))
def test_noisy_aperture(seed):
    rng = np.random.default_rng(seed)
    mask = circular_aperture((64, 64))
    frame = wrap(peaks_surface(64, 20.0) + rng.normal(0, 1.2, (64, 64)))
    frame[~mask] = np.nan
    assert detect_residues(frame, mask).any()
    assert_same(frame, mask)
    assert_same(frame.astype(np.float32), mask)


@given(st.floats(-PI, PI, exclude_min=True), st.floats(-PI, PI, exclude_min=True))
def test_turns_is_the_count_wrap_removes(a, b):
    """wrap(d) == d - 2pi * turns(d) exactly, for the difference of
    two phases in (-pi, pi]."""
    d = np.array([a - b, b - a, a - a])
    assert np.array_equal(wrap(d), d - TWO_PI * turns(d))
