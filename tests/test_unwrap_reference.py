"""flood_unwrap against the frontier-loop reference: bitwise equal values,
equal reach mask and warning, or the same exception type.

Bit equality needs more than path independence: where the wrapped
increments around a loop do not sum to zero, the result depends on the
spanning tree, so these cases check that the kernel builds the loop's tree.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from unwrap_reference import flood_unwrap_reference

from phasestack.core import TWO_PI, circular_aperture, detect_residues, wrap
from phasestack.synth import peaks_surface
from phasestack.unwrap import BranchCutMap, flood_unwrap, place_branch_cuts


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type below
        return type(exc)


def assert_same(frame, mask, cuts, seed):
    want = outcome(flood_unwrap_reference, frame, mask, cuts, seed)
    got = outcome(flood_unwrap, frame, mask, cuts, seed)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert np.array_equal(got.mask, want.mask)
    assert got.warning == want.warning


phase = st.floats(-math.pi, math.pi, exclude_min=True, allow_subnormal=False)
quarter_turns = st.sampled_from([-math.pi / 2, 0.0, -0.0, math.pi / 2, math.pi])
sparse_bool = st.sampled_from([False, False, False, False, True])


@st.composite
def cases(draw, max_side=12):
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    frame = draw(arrays(np.float64, (h, w), elements=st.one_of(phase, quarter_turns)))
    kind = draw(st.sampled_from(["none", "full", "hole", "random"]))
    if kind == "none":
        mask = None
    elif kind == "full":
        mask = np.ones((h, w), dtype=bool)
    elif kind == "hole":
        mask = np.ones((h, w), dtype=bool)
        r0, c0 = draw(st.integers(1, max(1, h - 2))), draw(st.integers(1, max(1, w - 2)))
        mask[r0 : r0 + draw(st.integers(1, 3)), c0 : c0 + draw(st.integers(1, 3))] = False
    else:
        mask = draw(arrays(bool, (h, w), elements=st.sampled_from([True, True, True, False])))
    cuts = draw(
        st.one_of(
            st.none(),
            st.builds(
                BranchCutMap,
                arrays(bool, (h, w - 1), elements=sparse_bool),
                arrays(bool, (h - 1, w), elements=sparse_bool),
            ),
        )
    )
    corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
    seed = draw(
        st.one_of(
            st.none(),
            st.sampled_from(corners),
            st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)),
        )
    )
    return frame, mask, cuts, seed


@given(cases())
def test_matches_reference(case):
    assert_same(*case)


@given(cases(max_side=40))
def test_matches_reference_larger(case):
    assert_same(*case)


@given(
    st.integers(2, 40),
    arrays(np.float64, (2, 40), elements=st.one_of(phase, quarter_turns)),
    st.builds(
        BranchCutMap,
        arrays(bool, (2, 39), elements=sparse_bool),
        arrays(bool, (1, 40), elements=sparse_bool),
    ),
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
)
def test_two_row_frames(w, frame, cuts, seed):
    seed = (seed[0], seed[1] * (w - 1))
    cuts = BranchCutMap(cuts.cut_right[:, : w - 1], cuts.cut_down[:, :w])
    assert_same(frame[:, :w], None, cuts, seed)


def annulus_vortex(n=24):
    """A vortex centred in the hole of an annulus: every pixel loop in the
    valid region is residue-free, yet the loop around the hole is not."""
    r, c = np.mgrid[0:n, 0:n]
    centre = (n - 1) / 2.0
    frame = wrap(np.arctan2(r - centre, c - centre))
    radius = np.hypot(r - centre, c - centre)
    mask = (radius <= n / 2.0) & (radius >= n / 5.0)
    frame[~mask] = 0.0
    return frame, mask


def test_annulus_integral_depends_on_path():
    frame, mask = annulus_vortex()
    charges = detect_residues(frame, mask)
    assert not charges.any()
    # wrapped increments around a square ring of pixels enclosing the hole
    n = frame.shape[0]
    lo, hi = n // 6, n - 1 - n // 6
    ring = [(lo, c) for c in range(lo, hi)] + [(r, hi) for r in range(lo, hi)]
    ring += [(hi, c) for c in range(hi, lo, -1)] + [(r, lo) for r in range(hi, lo, -1)]
    loop = np.array([frame[p] for p in ring + ring[:1]])
    assert all(mask[p] for p in ring)
    assert all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(ring, ring[1:]))
    assert abs(wrap(np.diff(loop)).sum()) == pytest.approx(TWO_PI)
    cuts = place_branch_cuts(charges, mask)
    for seed in [(0, n // 2), (n // 2, 0), (n - 1, n // 2 - 1), None]:
        assert_same(frame, mask, cuts, seed)
    a = flood_unwrap(frame, mask, cuts, (0, n // 2)).values
    b = flood_unwrap(frame, mask, cuts, (n - 1, n // 2 - 1)).values
    offset = (a - b)[mask]
    assert np.ptp(offset) > 1.0  # two trees, two surfaces: not one constant


@pytest.mark.parametrize("seed", range(3))
def test_noisy_aperture_with_goldstein_cuts(seed):
    rng = np.random.default_rng(seed)
    mask = circular_aperture((64, 64))
    frame = wrap(peaks_surface(64, 20.0) + rng.normal(0, 0.9, (64, 64)))
    frame[~mask] = 0.0
    cuts = place_branch_cuts(detect_residues(frame, mask), mask)
    assert cuts.edge_count > 0
    for s in [None, (32, 0), (0, 32)]:
        assert_same(frame, mask, cuts, s)
