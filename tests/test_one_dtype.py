"""The per-frame kernels against their former forms, bit for bit.

Each kernel below once mixed dtypes in an element-wise step (an int8 count
times a float64 scale, an int64 k minus int8 turns, float64 sums over
integer counts) or wrote through a boolean index or a scalar ``np.where``.
Each now keeps every pass in one dtype, or writes through
``np.copyto(..., where=)``.  The former expressions are kept here as the
oracles, and the tests draw inputs with the values where the forms could
part: +-pi, +-2pi and their neighbours, -0.0, NaN, +-inf and 1e300 at
invalid pixels, and a flood whose |k| leaves the int16 range.  The inline
fold of ``circular_mean_rows`` keeps its former form in
``tests/circular_reference.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasestack import zernike
from phasestack.core import (
    _PI,
    TWO_PI,
    PhaseStack,
    check_frame,
    circular_aperture,
    detect_residues,
    fold,
    turns,
    wrap,
)
from phasestack.preprocess import _pool2, _pool_counts, center_pixel, piston_shift
from phasestack.unwrap import (
    Aperture,
    _bfs_tree,
    _cut_free_tree,
    default_seed,
    flood_unwrap,
    place_branch_cuts,
)
from phasestack.wphs import read_stack, write_stack

PI = math.pi


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- former forms


def fold_former(d, out=None):
    """``core.fold`` with the int8 count scaled in numpy's casting loop."""
    n = (d <= -_PI).view(np.int8) - (d > _PI).view(np.int8)
    return np.add(d, TWO_PI * n, out=out)


def pool2_former(frames, counts):
    """``preprocess._pool2`` dividing by the integer counts."""
    ho, wo = counts.shape
    f = frames[..., : 2 * ho, : 2 * wo]
    pairs = f[..., 0::2] + f[..., 1::2]
    sums = pairs[..., 0::2, :] + pairs[..., 1::2, :]
    sums /= np.maximum(counts, 1)
    return fold_former(sums, out=sums)


def detect_residues_former(frame, mask=None):
    """``core.detect_residues`` zeroing the invalid loops through a boolean
    index."""
    frame = np.asarray(frame, dtype=np.float64)
    check_frame(frame, mask)
    with np.errstate(invalid="ignore", over="ignore"):
        n_right = turns(frame[:, 1:] - frame[:, :-1])
        n_down = turns(frame[1:, :] - frame[:-1, :])
    charges = n_right[1:, :] - n_right[:-1, :] + n_down[:, :-1] - n_down[:, 1:]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        loop_valid = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
        charges[~loop_valid] = 0
    return charges


def check_charges_former(charges):
    """``place_branch_cuts``' charge check: an element-wise test of every
    map, whatever its dtype."""
    outside = (charges != 0) & (charges != 1) & (charges != -1)
    if outside.any():
        index = tuple(int(i) for i in np.argwhere(outside)[0])
        raise ValueError(f"place_branch_cuts: charge {charges[index]} at {index} is not -1, 0 or +1")


def moments_remove_former(fit, values, m):
    """``zernike._MomentsFit.remove`` with the scalar ``np.where`` and the
    boolean-index zeroing."""
    residual = np.where(m, values, 0.0)
    coef = fit.inverse @ (fit.cols @ residual.sum(axis=0) + fit.rows @ residual.sum(axis=1))
    residual -= (coef @ fit.rows)[:, None]
    residual -= coef @ fit.cols
    residual[fit.outside] = 0.0
    return residual, coef


def flood_former(frame, mask, cuts, seed, tree=None):
    """``flood_unwrap``'s integration with an int64 k, down the tree of a
    full search of the open edges (or ``tree``): (values, reached)."""
    h, w = frame.shape
    if tree is None:
        ok_right = mask[:, :-1] & mask[:, 1:] & ~cuts.cut_right
        ok_down = mask[:-1, :] & mask[1:, :] & ~cuts.cut_down
        tree = _bfs_tree(ok_right, ok_down, seed[0] * w + seed[1])
    order, bounds, up_at = tree.order, tree.bounds, tree.up_at
    psi = frame.ravel()[order]
    n = turns(psi - psi[up_at])
    k = np.zeros(order.size, dtype=np.int64)
    for start, stop in zip(bounds[1:-1], bounds[2:]):
        np.subtract(k[up_at[start:stop]], n[start:stop], out=k[start:stop])
    values = np.zeros((h, w))
    values.ravel()[order] = psi + TWO_PI * k
    return values, tree.depth >= 0


# ------------------------------------------------------------------ inputs

# The fold's step boundaries and domain ends, their float64 neighbours, and
# both zeros.
FOLD_SPECIALS = [s * v for s in (1.0, -1.0) for v in (
    PI, TWO_PI, math.nextafter(PI, 0.0), math.nextafter(PI, 4.0),
    math.nextafter(TWO_PI, 0.0), 0.0, 5e-324,
)]
FOLD_VALUES = st.one_of(st.sampled_from(FOLD_SPECIALS), st.floats(-TWO_PI, TWO_PI))

# Phases in (-pi, pi]: the ends, their neighbours, both zeros.
PHASE_SPECIALS = [PI, math.nextafter(PI, 0.0), math.nextafter(-PI, 0.0), 0.0, -0.0, PI / 2, -PI / 2]
PHASES = st.one_of(st.sampled_from(PHASE_SPECIALS), st.floats(-PI, PI, exclude_min=True))
F32_BELOW_PI = np.nextafter(np.float32(PI), np.float32(0.0))  # float32(pi) is above pi
F32_SPECIALS = [np.float32(v) for v in (0.0, -0.0, PI / 2, 1e-30)] + [
    s * v for s in (np.float32(1.0), np.float32(-1.0))
    for v in (F32_BELOW_PI, np.nextafter(F32_BELOW_PI, np.float32(0.0)))
]
GARBAGE = [math.nan, math.inf, -math.inf, 1e300, -1e300, 4.0, -0.0]


@st.composite
def masked_frames(draw, min_side=2, max_side=12):
    """(frame, mask): phases from PHASES at the valid pixels, one of
    GARBAGE at each invalid one; the mask all valid, a disk or random."""
    h, w = draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side))
    values = draw(arrays(np.float64, (h, w), elements=PHASES))
    kind = draw(st.sampled_from(["full", "disk", "random"]))
    if kind == "full":
        mask = np.ones((h, w), dtype=bool)
    elif kind == "disk":
        mask = circular_aperture((h, w))
    else:
        mask = draw(arrays(bool, (h, w), elements=st.sampled_from([True, True, True, False])))
    garbage = draw(arrays(np.float64, (h, w), elements=st.sampled_from(GARBAGE)))
    return np.where(mask, values, garbage), mask


# ------------------------------------------------------------------- tests


class TestFold:
    def test_specials(self):
        d = np.array(FOLD_SPECIALS)
        assert same_bits(fold(d), fold_former(d))
        assert same_bits(fold(d), wrap(d))
        assert not np.signbit(fold(np.array([-0.0]))).any()  # -0.0 gives +0.0

    @given(arrays(np.float64, st.integers(1, 64), elements=FOLD_VALUES))
    def test_fold(self, d):
        want = fold_former(d)
        assert same_bits(fold(d), want)
        assert same_bits(fold(d, out=d), want)  # in place


class TestFullMask:
    """With no invalid pixel, ``piston_shift`` and ``read_stack`` skip the
    zeroing pass, which wrote nothing."""

    @given(arrays(np.float32, st.tuples(st.integers(1, 3), st.integers(2, 9), st.integers(2, 9)),
                  elements=st.sampled_from(F32_SPECIALS)))
    def test_piston_shift(self, frames):
        mask = np.ones(frames.shape[1:], dtype=bool)
        i, j = center_pixel(mask.shape)
        want = fold_former(np.subtract(frames, frames[:, i, j, None, None], dtype=np.float64))
        assert same_bits(piston_shift(frames, mask), want)

    def test_read_stack(self, tmp_path):
        frames = np.array([[[-0.0, F32_BELOW_PI], [-F32_BELOW_PI, 0.5]]] * 3, dtype=np.float32)
        frames[1, 0, 0] = 3 * PI  # stored outside (-pi, pi]: wrapped on reading
        write_stack(PhaseStack(frames=frames, mask=np.ones((2, 2), dtype=bool), _wrapped=True),
                    tmp_path / "s.wphs")
        got = read_stack(tmp_path / "s.wphs").frames
        assert same_bits(got[[0, 2]], frames[[0, 2]])  # -0.0 kept
        assert same_bits(got[1, 1:], frames[1, 1:]) and abs(abs(got[1, 0, 0]) - PI) < 1e-6


class TestPool2:
    @given(masked_frames(min_side=8, max_side=20), st.integers(1, 3))
    def test_float64_divisors_give_the_integer_counts_bits(self, case, n):
        frame, mask = case
        frames = np.stack([np.where(mask, np.roll(frame, i, axis=1), 0.0) for i in range(n)])
        counts = _pool_counts(mask)
        got = _pool2(frames, np.maximum(counts, 1).astype(np.float64))
        assert same_bits(got, pool2_former(frames, counts))


class TestDetectResidues:
    @given(masked_frames())
    def test_garbage_at_invalid_pixels(self, case):
        frame, mask = case
        assert same_bits(detect_residues(frame, mask), detect_residues_former(frame, mask))

    def test_each_garbage_value(self):
        frame = wrap(np.add.outer(np.arange(9.0), np.arange(11.0)) * 1.9)
        mask = np.ones(frame.shape, dtype=bool)
        mask[4, 5] = mask[0, 0] = False
        for value in GARBAGE:
            frame[~mask] = value
            got = detect_residues(frame, mask)
            assert same_bits(got, detect_residues_former(frame, mask))
            assert not got[3:5, 4:6].any() and not got[0, 0]


class TestChargeCheck:
    def outcome(self, check, charges):
        try:
            check(charges)
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("value, dtype", [
        (0.5, np.float64), (2, np.int16), (255, np.uint8), (True, np.bool_), (-2, np.int8),
        (300, np.int64), (np.nan, np.float64), (-1, np.int64), (1, np.uint8),
    ])
    def test_same_message_and_index(self, value, dtype):
        charges = np.zeros((5, 6), dtype=dtype)
        charges[1, 1] = 1
        charges[2, 3] = value
        charges[4, 0] = value
        want = self.outcome(check_charges_former, charges)
        got = self.outcome(place_branch_cuts, charges)
        assert got == want
        if want is None:  # a map the former check took: the cuts of its int8 copy
            cuts = place_branch_cuts(charges)
            ref = place_branch_cuts(charges.astype(np.int8))
            assert np.array_equal(cuts.cut_right, ref.cut_right)
            assert np.array_equal(cuts.cut_down, ref.cut_down)

    @given(st.sampled_from([np.int8, np.int16, np.int64, np.uint8, np.bool_, np.float64]),
           st.data())
    def test_any_map(self, dtype, data):
        values = st.integers(-3, 3) if np.dtype(dtype).kind in "if" else st.integers(0, 3)
        if dtype == np.bool_:
            values = st.booleans()
        charges = data.draw(arrays(dtype, (4, 5), elements=values))
        assert self.outcome(place_branch_cuts, charges) == self.outcome(check_charges_former, charges)


class TestMomentsRemove:
    @given(st.integers(12, 40), st.integers(12, 40), st.integers(0, 2**32 - 1),
           st.sampled_from(GARBAGE))
    def test_garbage_off_the_mask(self, h, w, seed, value):
        mask = circular_aperture((h, w))
        fit = zernike._moments_fit(mask)
        assert fit is not None
        values = np.random.default_rng(seed).normal(size=(h, w))
        values[~mask] = value
        got = fit.remove(values, mask)
        want = moments_remove_former(fit, values, mask)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert not np.signbit(got[0][~mask]).any()


class TestFloodUnwrap:
    @settings(max_examples=60)
    @given(masked_frames(min_side=4, max_side=24), st.floats(0.5, 3.0), st.booleans(), st.data())
    def test_float64_k_gives_the_int64_bits(self, case, slope, full, data):
        """A ramp with phases from PHASES (+-pi, their neighbours, -0.0) at
        some valid pixels and garbage at the invalid ones; cut where the
        charges say, from the default seed."""
        drawn, mask = case
        h, w = drawn.shape
        mask = np.ones((h, w), dtype=bool) if full else circular_aperture((h, w))
        keep = data.draw(arrays(bool, (h, w)))
        ramp = wrap(slope * np.add.outer(np.arange(h), np.arange(w)))
        frame = np.where(mask, np.where(keep & np.isfinite(drawn) & (np.abs(drawn) <= PI), drawn, ramp),
                         data.draw(st.sampled_from(GARBAGE)))
        cuts = place_branch_cuts(detect_residues(frame, mask), mask)
        surface = flood_unwrap(frame, mask, cuts)
        values, reached = flood_former(frame, mask, cuts, default_seed(mask))
        assert np.array_equal(surface.mask, reached)
        assert same_bits(surface.values, values)

    @pytest.mark.parametrize("step", [3.1, -PI + 1e-9])
    def test_ramp_beyond_the_int16_range(self, step):
        """A 70000-pixel path from the seed: |k| climbs past 2**15."""
        w = 70_000
        frame = np.full((2, w), np.nan)
        frame[0] = wrap(step * np.arange(w))
        mask = np.zeros((2, w), dtype=bool)
        mask[0] = True
        aperture = Aperture(mask)
        surface = flood_unwrap(frame, mask, seed=(0, 0), aperture=aperture)
        values, reached = flood_former(frame, mask, None, (0, 0), aperture.derived(_cut_free_tree, 0))
        assert np.array_equal(surface.mask, reached)
        assert same_bits(surface.values, values)
        k = np.rint((surface.values[0] - frame[0]) / TWO_PI)
        assert np.abs(k).max() > 2**15
