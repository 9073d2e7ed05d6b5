"""The numpy grid search (``core.breadth_first_levels``) and the kernels
built on it, against the scipy searches they replaced
(``unwrap_reference``): the breadth-first tree's levels, reach and parents,
the border sinks, and the connectivity of a mask, which ``flood_unwrap``
reads off the tree's reach.  The order within a level is not compared;
everything that depends on it is.  Then the orphans of a cut map
(``unwrap._orphans``) against their definition.  Last, the package imports
and runs both routes without loading scipy.
"""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from unwrap_reference import bfs_tree_reference, border_sinks_reference, mask_is_connected_reference

from phasestack.core import STEPS_8, breadth_first_levels, circular_aperture, neighbour_table
from phasestack.unwrap import (
    BranchCutMap,
    _bfs_tree,
    _border_sinks,
    _cut_free_tree,
    _orphans,
    flood_unwrap,
)

SRC = Path(__file__).resolve().parent.parent / "src"
STEPS_4 = ((0, -1), (-1, 0), (0, 1), (1, 0))


def floods_whole(mask) -> bool:
    """Whether ``flood_unwrap`` takes ``mask``: False where it rejects the
    valid region as not 4-connected."""
    try:
        flood_unwrap(np.zeros(mask.shape), mask)
    except ValueError as exc:
        assert "not 4-connected" in str(exc)
        return False
    return True


def split(h, w, rng, gap):
    """Two dense blocks on either side of an invalid column band, joined
    through it by a one-pixel corridor when ``gap``."""
    mask = rng.random((h, w)) < 0.9
    c0 = w // 2
    band = slice(max(c0 - 1, 0), min(c0 + 1, w))
    mask[:, band] = False
    if gap:
        mask[rng.integers(h), band] = True
    return mask


def holes(h, w, rng):
    mask = circular_aperture((h, w)) if min(h, w) >= 5 else np.ones((h, w), dtype=bool)
    mask &= rng.random((h, w)) > 0.15
    r0, c0 = rng.integers(1, max(h - 1, 2)), rng.integers(1, max(w - 1, 2))
    mask[r0 : r0 + rng.integers(1, 4), c0 : c0 + rng.integers(1, 4)] = False
    return mask


def diagonal(h, w, rng):
    """A checkerboard with some squares dropped: pixels of either kind meet
    their own kind only at corners."""
    r, c = np.indices((h, w))
    return ((r + c) % 2 == 0) & (rng.random((h, w)) < 0.85)


def ring(h, w, rng):
    """A random interior inside a ring of invalid border pixels."""
    mask = rng.random((h, w)) < 0.75
    mask[[0, -1], :] = mask[:, [0, -1]] = False
    return mask


SHAPES = {
    "random": lambda h, w, rng: rng.random((h, w)) < rng.choice([0.3, 0.55, 0.8, 0.95]),
    "all valid": lambda h, w, rng: np.ones((h, w), dtype=bool),
    "holes": holes,
    "diagonal": diagonal,
    "corridor": lambda h, w, rng: split(h, w, rng, gap=True),
    "disconnected": lambda h, w, rng: split(h, w, rng, gap=False),
    "ring": ring,
}


@st.composite
def masks(draw, max_side=16):
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SHAPES[shape](h, w, rng)


@st.composite
def cut_masks(draw, max_side=16):
    """(mask, cuts, seed): a mask, a random share of every edge cut (edges
    at invalid pixels too), and a valid seed.  The cut maps are sometimes
    strided views, as ``place_branch_cuts`` returns them."""
    mask = draw(masks(max_side).filter(np.any))
    h, w = mask.shape
    share = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cut_right = rng.random((h, w - 1)) < share
    cut_down = rng.random((h - 1, w)) < share
    if draw(st.booleans()):
        cut_right = np.pad(cut_right, 1)[1:-1, 1:-1]
        cut_down = np.pad(cut_down, 1)[1:-1, 1:-1]
    seed = draw(st.sampled_from(np.flatnonzero(mask).tolist()))
    return mask, BranchCutMap(cut_right, cut_down), seed


def cut_graphs(max_side=16):
    """(ok_right, ok_down, seed): the open edges of a ``cut_masks`` case."""
    def open_edges(case):
        mask, cuts, seed = case
        return (mask[:, :-1] & mask[:, 1:] & ~cuts.cut_right,
                mask[:-1, :] & mask[1:, :] & ~cuts.cut_down, seed)

    return cut_masks(max_side).map(open_edges)


def assert_same_tree(got, want):
    """Equal levels, reach and parents; order within a level is free."""
    assert got.bounds == want.bounds
    assert np.array_equal(got.depth, want.depth)
    for tree in (got, want):
        assert np.array_equal(tree.pos[tree.order], np.arange(tree.order.size))
    parent_of = [np.full(got.depth.size, -1) for _ in range(2)]
    for parents, tree in zip(parent_of, (got, want)):
        parents[tree.order] = tree.order[tree.up_at]
    assert np.array_equal(*parent_of)


@given(cut_graphs())
def test_tree_matches_scipy(case):
    assert_same_tree(_bfs_tree(*case), bfs_tree_reference(*case))


@given(cut_graphs(max_side=48))
def test_tree_matches_scipy_larger(case):
    assert_same_tree(_bfs_tree(*case), bfs_tree_reference(*case))


@given(masks().filter(np.any), st.data())
def test_cut_free_tree_matches_scipy(mask, data):
    seed = data.draw(st.sampled_from(np.flatnonzero(mask).tolist()))
    want = bfs_tree_reference(mask[:, :-1] & mask[:, 1:], mask[:-1, :] & mask[1:, :], seed)
    tree = _cut_free_tree(mask, seed)
    assert_same_tree(tree, want)
    # flood_unwrap reads connectivity off the tree's reach
    assert (tree.order.size == mask.sum()) == mask_is_connected_reference(mask)


def test_tree_on_the_disk_matches_scipy():
    """The 256x256 disk of the conventional-256 recipe, cut-free and with
    3% of its edges cut."""
    mask = circular_aperture((256, 256))
    ok_right, ok_down = mask[:, :-1] & mask[:, 1:], mask[:-1, :] & mask[1:, :]
    rng = np.random.default_rng(7)
    cut = (ok_right & (rng.random(ok_right.shape) >= 0.03),
           ok_down & (rng.random(ok_down.shape) >= 0.03))
    seed = 128 * 256 + 128
    for right, down in ((ok_right, ok_down), cut):
        assert_same_tree(_bfs_tree(right, down, seed), bfs_tree_reference(right, down, seed))


@given(masks(max_side=24))
def test_sinks_and_connectivity_match_scipy(mask):
    assert np.array_equal(_border_sinks(mask), border_sinks_reference(mask))
    if mask.any():
        assert floods_whole(mask) == mask_is_connected_reference(mask)


def pixels(*at):
    """An 8x8 mask valid at the pixels ``at`` only."""
    mask = np.zeros((8, 8), dtype=bool)
    mask[tuple(zip(*at))] = True
    return mask


@pytest.mark.parametrize("mask, connected", [
    (circular_aperture((32, 32)), True),
    (pixels((0, 0), (0, 1), (1, 1)), True),
    (pixels((0, 0), (7, 7)), False),
    (pixels((0, 0), (1, 1)), False),  # diagonal neighbours are separate regions
])
def test_flood_connectivity_is_4_connectivity(mask, connected):
    assert floods_whole(mask) == mask_is_connected_reference(mask) == connected


def winding(h, w):
    """A disk whose outside is joined by an invalid channel that turns two
    corners to an invalid pocket inside, and an interior hole: the pocket
    is border-connected although no row or column run from the border
    reaches it."""
    mask = circular_aperture((h, w))
    mask[h // 2, 2 : w // 2] = False  # from the outside, inward
    mask[h // 2 - 4 : h // 2, w // 2] = False  # turns up
    mask[h // 2 - 4, w // 2 : w // 2 + 5] = False  # turns right, into the pocket
    mask[h // 2 + 5, w // 2 + 5] = False  # a hole
    return mask


@pytest.mark.parametrize("mask, searched", [
    (circular_aperture((256, 256)), False),
    (circular_aperture((40, 31), margin=2), False),
    (winding(40, 40), True),
])
def test_sinks_search_only_past_the_border_runs(monkeypatch, mask, searched):
    calls = []

    def levels(*args, **kwargs):
        calls.append(args)
        return breadth_first_levels(*args, **kwargs)

    monkeypatch.setattr(sys.modules["phasestack.unwrap"], "breadth_first_levels", levels)
    assert np.array_equal(_border_sinks(mask), border_sinks_reference(mask))
    assert bool(calls) == searched


def test_empty_and_single_pixel_masks():
    empty = np.zeros((3, 4), dtype=bool)
    assert not mask_is_connected_reference(empty)
    assert np.array_equal(_border_sinks(empty), border_sinks_reference(empty))
    one = empty.copy()
    one[1, 2] = True
    assert floods_whole(one) and mask_is_connected_reference(one)
    assert np.array_equal(_border_sinks(one), border_sinks_reference(one))


def levels_reference(table, starts):
    """Distance of every node from the nearest start, by a FIFO queue; -1
    where unreached."""
    n = table.shape[1] - 1
    dist = np.full(n, -1)
    queue = deque(starts)
    dist[list(starts)] = 0
    while queue:
        p = queue.popleft()
        for q in table[:, p]:
            if q < n and dist[q] < 0:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


@st.composite
def graphs(draw):
    """A random directed graph as a neighbour table, and distinct starts."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 8))
    table = draw(arrays(np.intp, (k, n), elements=st.integers(0, n)))
    table = np.hstack([table, np.full((k, 1), n, dtype=np.intp)])
    starts = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
    return table, starts


@given(graphs())
def test_levels_of_any_graph(case):
    table, starts = case
    order, bounds = breadth_first_levels(table, starts)
    dist = levels_reference(table, starts)
    assert order.size == np.unique(order).size == bounds[-1]
    assert np.array_equal(np.sort(order), np.flatnonzero(dist >= 0))
    for level, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert start < stop
        assert (dist[order[start:stop]] == level).all()


@given(graphs())
def test_parents_of_any_graph(case):
    """The parents' decode changes no order or bound.  A start is its own
    parent.  Every other node's parent sits one level up and reaches it, by
    the lowest row of any node one level up that does, and is the earliest
    such node in order."""
    table, starts = case
    order, bounds, up_at = breadth_first_levels(table, starts, parents=True)
    plain = breadth_first_levels(table, starts)
    assert np.array_equal(plain[0], order) and plain[1] == bounds
    dist = levels_reference(table, starts)
    assert up_at.shape == order.shape
    assert np.array_equal(up_at[: len(starts)], np.arange(len(starts)))
    for i in range(len(starts), order.size):
        node, parent = order[i], order[up_at[i]]
        assert dist[parent] == dist[node] - 1
        rows = {q: np.flatnonzero(table[:, q] == node) for q in order[: bounds[dist[node]]]}
        lowest = min(r[0] for q, r in rows.items() if dist[q] == dist[node] - 1 and r.size)
        assert rows[parent].size and rows[parent][0] == lowest
        first = next(q for q in order if dist[q] == dist[node] - 1 and lowest in rows[q])
        assert parent == first


@given(masks(), st.sampled_from([STEPS_4, STEPS_8]))
def test_neighbour_table(mask, steps):
    table = neighbour_table(mask, steps)
    at = np.argwhere(mask)
    n = len(at)
    assert table.shape == (len(steps), n + 1) and (table[:, n] == n).all()
    number = {tuple(p): i for i, p in enumerate(at.tolist())}
    for i, (r, c) in enumerate(at.tolist()):
        assert table[:, i].tolist() == [number.get((r + dr, c + dc), n) for dr, dc in steps]


def orphans_reference(mask, cuts, seed):
    """Every reached pixel other than the seed whose edge to its parent in
    the cut-free tree is cut, pixel by pixel, in raster order."""
    tree = _cut_free_tree(mask, seed)
    h, w = mask.shape
    out = []
    for p in range(h * w):
        if tree.depth.flat[p] <= 0:
            continue
        q = int(tree.order[tree.up_at[tree.pos[p]]])
        (r, c), (rq, cq) = divmod(p, w), divmod(q, w)
        if rq == r:
            cut = cuts.cut_right[r, min(c, cq)]
        else:
            cut = cuts.cut_down[min(r, rq), c]
        if cut:
            out.append(p)
    return out


@given(cut_masks(max_side=24))
def test_orphans_match_their_definition(case):
    mask, cuts, seed = case
    orphans = _orphans(_cut_free_tree(mask, seed), cuts)
    assert np.sort(orphans).tolist() == orphans_reference(mask, cuts, seed)


GUARD = """
import sys
import numpy as np
import phasestack
from phasestack.core import PhaseStack, circular_aperture, detect_residues
from phasestack.pipeline import PipelineParams, run_clustered, run_conventional
from phasestack.synth import TrialSpec, make_trial, peaks_surface
from phasestack.unwrap import place_branch_cuts

trial, _ = make_trial(peaks_surface(32, 8.0), TrialSpec(
    frame_count=24, grid=32, snr_db=5.0, perturbation_count=2, tilt_jitter=3.0, seed=1))
mask = circular_aperture((32, 32))
stack = PhaseStack(trial.frames, mask)
assert place_branch_cuts(detect_residues(stack.frames[0], mask), mask).edge_count > 0
params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
for run in (run_clustered, run_conventional):
    assert run(stack, params).surface.mask.any()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_route_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", GUARD], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
