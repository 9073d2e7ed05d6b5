"""flood_unwrap against the frontier-loop reference: bitwise equal values,
equal reach mask and warning, or the same exception type.

Bit equality needs more than path independence: where the wrapped
increments around a loop do not sum to zero, the result depends on the
spanning tree, so these cases check that the kernel builds the loop's tree.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from unwrap_reference import bfs_tree_reference, flood_unwrap_reference

from phasestack.core import TWO_PI, circular_aperture, detect_residues, wrap
from phasestack.synth import peaks_surface
from phasestack.unwrap import (
    Aperture,
    BranchCutMap,
    Surface,
    _cut_free_tree,
    _orphans,
    _repair,
    flood_unwrap,
    place_branch_cuts,
    unwrap,
)
from phasestack.zernike import zernike_fit_remove


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


# The three ways flood_unwrap builds a frame's tree: the cached cut-free tree
# as it is, where the cuts orphan no pixel (cut no pixel's edge to its
# parent); the cached tree with the orphans, and the pixels whose level the
# cuts changed, repaired; or one new search of the whole frame.
unwrap_module = sys.modules["phasestack.unwrap"]


def path_of(frame, mask, cuts, seed):
    """Which of the three paths flood_unwrap takes on these arguments."""
    real = unwrap_module._repair
    log = []

    def spy(*args):
        out = real(*args)
        log.append("full" if out is None else "repaired")
        return out

    unwrap_module._repair = spy
    try:
        flood_unwrap(frame, mask, cuts, seed)
    finally:
        unwrap_module._repair = real
    return log[0] if log else "cached"


def no_cuts(h, w):
    return BranchCutMap(np.zeros((h, w - 1), dtype=bool), np.zeros((h - 1, w), dtype=bool))


def wall(cuts, r0, r1, c0, c1):
    """Cut every edge that crosses the border of rows r0..r1, columns c0..c1."""
    h, w = cuts.cut_right.shape[0], cuts.cut_down.shape[1]
    if c0 > 0:
        cuts.cut_right[r0 : r1 + 1, c0 - 1] = True
    if c1 < w - 1:
        cuts.cut_right[r0 : r1 + 1, c1] = True
    if r0 > 0:
        cuts.cut_down[r0 - 1, c0 : c1 + 1] = True
    if r1 < h - 1:
        cuts.cut_down[r1, c0 : c1 + 1] = True


def rim_pixels(mask):
    """Valid pixels with an invalid or missing 4-neighbour."""
    padded = np.pad(mask, 1)
    inner = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    return np.argwhere(mask & ~inner)


@st.composite
def broken_levels(draw, max_side=24):
    """Cut maps that take level-up edges away from pixels of the cached tree:
    edges on the seed's row and column, at the aperture rim, and walls around
    rectangles, some of which wall off most of the frame."""
    h = draw(st.integers(3, max_side))
    w = draw(st.integers(3, max_side))
    frame = draw(arrays(np.float64, (h, w), elements=st.one_of(phase, quarter_turns)))
    if draw(st.booleans()):
        mask = circular_aperture((h, w))
        frame[~mask] = 0.0
    else:
        mask = np.ones((h, w), dtype=bool)
    valid = np.argwhere(mask)
    sr, sc = (int(v) for v in valid[draw(st.integers(0, len(valid) - 1))])
    cuts = no_cuts(h, w)
    kinds = st.sampled_from(["row", "column", "rim", "wall", "random"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "row":
            for c in draw(st.lists(st.integers(0, w - 2), min_size=1, max_size=3)):
                cuts.cut_right[sr, c] = True
        elif kind == "column":
            for r in draw(st.lists(st.integers(0, h - 2), min_size=1, max_size=3)):
                cuts.cut_down[r, sc] = True
        elif kind == "rim":
            rim = rim_pixels(mask)
            r, c = rim[draw(st.integers(0, len(rim) - 1))]
            cut_all = draw(st.booleans())  # wall the pixel off, or cut one edge
            for er, ec, arr in ((r, c - 1, cuts.cut_right), (r, c, cuts.cut_right),
                                (r - 1, c, cuts.cut_down), (r, c, cuts.cut_down)):
                if 0 <= er < arr.shape[0] and 0 <= ec < arr.shape[1]:
                    arr[er, ec] = True
                    if not cut_all:
                        break
        elif kind == "wall":
            r0, r1 = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2)))
            c0, c1 = sorted(draw(st.lists(st.integers(0, w - 1), min_size=2, max_size=2)))
            wall(cuts, r0, r1, c0, c1)
        else:
            cuts.cut_right |= draw(arrays(bool, (h, w - 1), elements=sparse_bool))
            cuts.cut_down |= draw(arrays(bool, (h - 1, w), elements=sparse_bool))
    return frame, mask, cuts, (sr, sc)


@given(broken_levels())
def test_broken_levels_match_reference(case):
    assert_same(*case)


@given(broken_levels(max_side=48))
def test_broken_levels_match_reference_larger(case):
    assert_same(*case)


def test_each_path_is_taken_and_exact():
    n = 64
    frame = wrap(peaks_surface(n, 30.0) + np.random.default_rng(1).normal(0, 0.8, (n, n)))
    mask = circular_aperture((n, n))
    frame[~mask] = 0.0
    seed = (32, 32)
    tree = Aperture(mask).derived(_cut_free_tree, 32 * n + 32)
    assert path_of(frame, mask, None, seed) == "cached"
    cuts = no_cuts(n, n)
    cuts.cut_down[10, 15] = True  # off the seed's row and column: neither
    cuts.cut_down[5, 40] = True  # end's parent is across the cut edge
    assert _orphans(tree, cuts).size == 0
    assert path_of(frame, mask, cuts, seed) == "cached"
    assert_same(frame, mask, cuts, seed)

    cuts.cut_right[10, 15] = True  # (10, 15)'s parent is on its right: it
    assert _orphans(tree, cuts).tolist() == [10 * n + 15]  # takes the one below
    assert path_of(frame, mask, cuts, seed) == "repaired"
    assert_same(frame, mask, cuts, seed)
    cuts.cut_right[32, 50] = True  # on the seed's row: the rest of the row moves
    assert path_of(frame, mask, cuts, seed) == "repaired"
    assert_same(frame, mask, cuts, seed)
    wall(cuts, 2, 3, 30, 32)  # a pocket at the rim is walled off
    assert path_of(frame, mask, cuts, seed) == "repaired"
    assert_same(frame, mask, cuts, seed)
    assert not flood_unwrap(frame, mask, cuts, seed).mask[2, 31]

    wall(cuts, 28, 36, 28, 36)  # the seed's box: most of the disk moves
    assert path_of(frame, mask, cuts, seed) == "full"
    assert_same(frame, mask, cuts, seed)
    assert flood_unwrap(frame, mask, cuts, seed).warning is not None


def test_cuts_none_matches_reference():
    frame, mask = annulus_vortex()
    for seed in [None, (0, 12), (23, 11)]:
        assert path_of(frame, mask, None, seed) == "cached"
        assert_same(frame, mask, None, seed)


def test_two_seeds_alternating_on_one_mask():
    rng = np.random.default_rng(4)
    mask = circular_aperture((48, 48))
    frames = [wrap(peaks_surface(48, 20.0) + rng.normal(0, 0.9, (48, 48))) for _ in range(3)]
    seeds = [(24, 24), (10, 20), (24, 24), (10, 20), (40, 30), (24, 24)]
    for i, seed in enumerate(seeds):
        frame = frames[i % 3]
        frame[~mask] = 0.0
        cuts = place_branch_cuts(detect_residues(frame, mask), mask)
        assert_same(frame, mask, cuts, seed)
        assert_same(frame, mask, None, seed)


def test_mask_edited_in_place_between_calls():
    frame, mask = annulus_vortex(32)
    mask = mask.copy()
    cuts = place_branch_cuts(detect_residues(frame, mask), mask)
    seed = (0, 16)
    assert_same(frame, mask, cuts, seed)
    mask[14:18, 0:8] = False  # cuts the ring on the left: the tree goes round the right
    assert_same(frame, mask, cuts, seed)
    assert not flood_unwrap(frame, mask, cuts, seed).mask[16, 5]
    mask[14:18, 0:8] = True
    assert_same(frame, mask, cuts, seed)


# Parent patches: with cuts, only the orphans, the pixels whose edge to
# their cached parent is cut, and the pixels the repair moves from them
# change parent.
dense_bool = st.sampled_from([False, True])


@st.composite
def cut_maps(draw, max_side=24):
    """A frame on a full or disk mask, a seed, and a cut map: sparse or
    dense random edges, plus edges at the seed and on the border."""
    h = draw(st.integers(3, max_side))
    w = draw(st.integers(3, max_side))
    frame = draw(arrays(np.float64, (h, w), elements=st.one_of(phase, quarter_turns)))
    mask = circular_aperture((h, w)) if draw(st.booleans()) else np.ones((h, w), dtype=bool)
    frame[~mask] = 0.0
    valid = np.argwhere(mask)
    sr, sc = (int(v) for v in valid[draw(st.integers(0, len(valid) - 1))])
    density = draw(st.sampled_from([sparse_bool, dense_bool]))
    cuts = BranchCutMap(
        draw(arrays(bool, (h, w - 1), elements=density)),
        draw(arrays(bool, (h - 1, w), elements=density)),
    )
    if draw(st.booleans()):  # some of the seed's own edges
        for er, ec, arr in ((sr, sc - 1, cuts.cut_right), (sr, sc, cuts.cut_right),
                            (sr - 1, sc, cuts.cut_down), (sr, sc, cuts.cut_down)):
            if 0 <= er < arr.shape[0] and 0 <= ec < arr.shape[1]:
                arr[er, ec] = draw(st.booleans())
    if draw(st.booleans()):  # along the border
        cuts.cut_right[[0, -1], :] |= draw(arrays(bool, (2, w - 1), elements=dense_bool))
        cuts.cut_down[:, [0, -1]] |= draw(arrays(bool, (h - 1, 2), elements=dense_bool))
    return frame, mask, cuts, (sr, sc)


def same_bits(a, b):
    """Equal results of two calls: the same exception type, or every array
    in them equal bit for bit."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dict__"):
        return type(a) is type(b) and same_bits(list(vars(a).values()), list(vars(b).values()))
    return a == b


def assert_aperture_changes_no_output(frame, mask, cuts, seed):
    """Each kernel gives the same bits with ``aperture=`` as without, on its
    first call (which derives what it needs) and on a second (which reuses
    it)."""
    aperture = Aperture(mask)
    charges = detect_residues(frame, mask)
    surface = unwrap(frame, mask, seed)
    for _ in range(2):
        assert same_bits(outcome(lambda: place_branch_cuts(charges, mask, aperture=aperture)),
                         outcome(place_branch_cuts, charges, mask))
        assert same_bits(outcome(lambda: flood_unwrap(frame, mask, cuts, seed, aperture=aperture)),
                         outcome(flood_unwrap, frame, mask, cuts, seed))
        assert same_bits(outcome(lambda: unwrap(frame, mask, seed, aperture=aperture)), surface)
        for fitted in (surface, Surface(surface.values, mask)):
            assert same_bits(outcome(lambda: zernike_fit_remove(fitted, aperture=aperture)),
                             outcome(zernike_fit_remove, fitted))


@given(cut_maps())
def test_cut_maps_match_reference(case):
    assert_same(*case)
    assert_aperture_changes_no_output(*case)


@given(cut_maps(max_side=48))
def test_cut_maps_match_reference_larger(case):
    assert_same(*case)


def parents_of(tree):
    """The flat parent of each pixel of ``tree``; -1 where unreached."""
    parents = np.full(tree.depth.size, -1)
    parents[tree.order] = tree.order[tree.up_at]
    return parents


@given(cut_maps())
def test_only_orphans_and_moved_pixels_change_parent(case):
    """The cut tree's parents (an independent search of the cut frame)
    differ from the cached ones only at orphans and at the pixels the
    repair moves, and there they are the repair's; with no orphan, the
    cached tree is the cut tree."""
    frame, mask, cuts, (sr, sc) = case
    w = mask.shape[1]
    tree = Aperture(mask).derived(_cut_free_tree, sr * w + sc)
    ok_right = mask[:, :-1] & mask[:, 1:] & ~cuts.cut_right
    ok_down = mask[:-1, :] & mask[1:, :] & ~cuts.cut_down
    want = bfs_tree_reference(ok_right, ok_down, sr * w + sc)
    cached, cut = parents_of(tree), parents_of(want)
    orphans = _orphans(tree, cuts)
    assert (cached[orphans] != cut[orphans]).all()
    repaired = _repair(tree, cuts, orphans) if orphans.size else ([], [], [], [])
    if repaired is None:
        return  # searched in full
    late, gone, moved, parents = repaired
    patched = cached.copy()
    patched[moved] = parents
    patched[gone] = -1
    assert np.array_equal(patched, cut)
    assert set(orphans.tolist()) <= set(moved) | set(gone)


def test_cached_up_at_is_read_only_and_kept():
    n = 32
    frame = wrap(peaks_surface(n, 20.0) + np.random.default_rng(2).normal(0, 0.9, (n, n)))
    mask = circular_aperture((n, n))
    frame[~mask] = 0.0
    seed = (16, 16)
    aperture = Aperture(mask)
    tree = aperture.derived(_cut_free_tree, 16 * n + 16)
    before = tree.up_at.copy()
    assert not tree.up_at.flags.writeable
    with pytest.raises(ValueError):
        tree.up_at[1] = 0
    cuts = place_branch_cuts(detect_residues(frame, mask), mask)
    assert cuts.edge_count > 0
    assert_same(frame, mask, cuts, seed)
    flood_unwrap(frame, mask, cuts, seed, aperture=aperture)
    assert aperture.derived(_cut_free_tree, 16 * n + 16) is tree
    assert np.array_equal(tree.up_at, before)


def test_one_cut_edge_whose_ends_both_lose_their_parent():
    """Below and right of the seed a pixel's parent is on its left.  Cut
    the edge between two such pixels and the edge from the left one to its
    parent, and both ends of the first edge are orphans.  Each takes the
    pixel above it as its parent: one level up, where it has that
    neighbour one level up (no level moves), or, on the seed's row, where
    it has none, after both have moved down two levels."""
    n = 32
    frame = wrap(peaks_surface(n, 30.0) + np.random.default_rng(3).normal(0, 0.8, (n, n)))
    mask = np.ones((n, n), dtype=bool)
    seed = (5, 24)
    tree = Aperture(mask).derived(_cut_free_tree, 5 * n + 24)
    for row in (9, 5):
        cuts = no_cuts(n, n)
        cuts.cut_right[row, 27] = True  # (row, 27) - (row, 28)
        cuts.cut_right[row, 26] = True  # (row, 26) - (row, 27), the parent edge of (row, 27)
        p, q = row * n + 27, row * n + 28
        assert parents_of(tree)[[p, q]].tolist() == [p - 1, q - 1]
        orphans = _orphans(tree, cuts)
        assert sorted(orphans.tolist()) == [p, q]
        late, gone, moved, parents = _repair(tree, cuts, orphans)
        chosen = dict(zip(moved, parents))
        assert chosen[p] == p - n and chosen[q] == q - n and gone == []
        if row == 9:
            assert late == [] and len(chosen) == 2
        else:
            assert p in late and q in late
        assert path_of(frame, mask, cuts, seed) == "repaired"
        assert_same(frame, mask, cuts, seed)


def test_cut_end_keeps_a_parent_across_another_edge():
    """A cut end whose cached parent lies across a different, uncut edge
    is no orphan and keeps that parent: cutting the edge below a pixel
    right of and below the seed leaves both ends' parents (each on its
    left) in place, and the cached tree serves the frame."""
    n = 16
    frame = wrap(peaks_surface(n, 30.0) + np.random.default_rng(5).normal(0, 0.8, (n, n)))
    mask = np.ones((n, n), dtype=bool)
    seed = (4, 4)
    tree = Aperture(mask).derived(_cut_free_tree, 4 * n + 4)
    cuts = no_cuts(n, n)
    cuts.cut_down[8, 9] = True  # (8, 9) - (9, 9)
    assert parents_of(tree)[[8 * n + 9, 9 * n + 9]].tolist() == [8 * n + 8, 9 * n + 8]
    assert _orphans(tree, cuts).size == 0
    assert path_of(frame, mask, cuts, seed) == "cached"
    assert_same(frame, mask, cuts, seed)


def test_repair_re_parents_a_pixel_that_keeps_its_level():
    """Right of and below the seed, q = (8, 9) has two level-up neighbours:
    p = (8, 8) on its left, its parent, and (7, 9) above.  Cut both of p's
    level-up edges and p, the one orphan, moves down, while q keeps its
    level and takes (7, 9) as its parent, across an edge where k turns.  A
    residue on the loop of those four pixels makes the two parents give q
    values 2pi apart.  Where q also ends a cut edge that is not its parent
    edge, q is still no orphan, and the repair re-parents it all the same."""
    n = 16
    frame = np.zeros((n, n))
    frame[7:9, 8:10] = [[0.0, -2.0], [-1.0, 2.0]]
    assert detect_residues(frame)[7, 8] != 0
    mask = np.ones((n, n), dtype=bool)
    seed = (4, 4)
    tree = Aperture(mask).derived(_cut_free_tree, 4 * n + 4)
    p, q = 8 * n + 8, 8 * n + 9
    assert parents_of(tree)[q] == p and tree.depth.flat[q - n] == tree.depth.flat[p]
    for q_ends_a_cut in (False, True):
        cuts = no_cuts(n, n)
        cuts.cut_right[8, 7] = True  # (8, 7) - p
        cuts.cut_down[7, 8] = True  # (7, 8) - p
        if q_ends_a_cut:
            cuts.cut_down[8, 9] = True  # q - (9, 9)
        orphans = _orphans(tree, cuts)
        assert orphans.tolist() == [p]
        late, gone, moved, parents = _repair(tree, cuts, orphans)
        assert p in late and dict(zip(moved, parents))[q] == q - n
        assert path_of(frame, mask, cuts, seed) == "repaired"
        assert_same(frame, mask, cuts, seed)
        assert flood_unwrap(frame, mask, cuts, seed).values[8, 9] == 2.0 - TWO_PI


def test_cut_at_the_seed_moves_only_the_far_side():
    """The seed ends a cut edge but has no parent to lose: only the pixels
    that reached the seed through that edge alone move, so the frame is
    repaired, not searched in full."""
    n = 64
    frame = wrap(peaks_surface(n, 30.0) + np.random.default_rng(6).normal(0, 0.8, (n, n)))
    mask = circular_aperture((n, n))
    frame[~mask] = 0.0
    seed = (32, 32)
    cuts = no_cuts(n, n)
    cuts.cut_right[32, 32] = True  # (32, 32) - (32, 33)
    assert path_of(frame, mask, cuts, seed) == "repaired"
    assert_same(frame, mask, cuts, seed)
