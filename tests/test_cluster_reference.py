"""The fast classify kernels against the reference kernels they replace.

``agglomerate`` must give exactly the merge list (pairs, order and heights)
of the full-rescan reference, ties included; ``pairwise_distances`` must
keep duplicate frames exactly 0.0 apart and agree with ``pdist`` elsewhere;
and the clustered route must choose the same partition and produce the same
surface whichever pair of kernels it runs.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import squareform

from cluster_reference import (
    agglomerate_reference,
    pairwise_distances_compressed,
    pairwise_distances_reference,
)
from phasestack import PipelineParams, TrialSpec, make_trial, peaks_surface, pipeline, run_clustered
from phasestack import core
from phasestack.cluster import agglomerate, pairwise_distances


def merge_list(kernel, d):
    """Merges of ``kernel(d)``, or the name of the error it raised."""
    try:
        return kernel(d).merges
    except AssertionError:
        return "AssertionError"


def assert_same_merges(d):
    assert merge_list(agglomerate, d) == merge_list(agglomerate_reference, d)


sizes = st.integers(min_value=2, max_value=60)


@st.composite
def condensed(draw, elements):
    n = draw(sizes)
    v = draw(arrays(np.float64, n * (n - 1) // 2, elements=elements))
    return squareform(v)


class TestAgglomerateMatchesReference:
    @settings(max_examples=60)
    @given(condensed(st.floats(0.0, 10.0, allow_subnormal=False)))
    def test_random_floats(self, d):
        assert_same_merges(d)

    @settings(max_examples=60)
    @given(condensed(st.integers(0, 6).map(lambda k: k / 2)))
    def test_small_integers_heavy_ties(self, d):
        assert_same_merges(d)

    @settings(max_examples=20)
    @given(sizes, st.floats(0.0, 10.0, allow_subnormal=False))
    def test_all_equal(self, n, value):
        d = np.full((n, n), value)
        np.fill_diagonal(d, 0.0)
        assert_same_merges(d)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=60),
        arrays(np.float64, 15, elements=st.integers(1, 4).map(float)),
    )
    def test_zero_distance_blocks(self, groups, between):
        # frames in one group are duplicates: 0 apart, identical rows
        g = squareform(between)
        d = g[np.ix_(groups, groups)]
        assert_same_merges(d)

    def test_zero_matrix(self):
        assert_same_merges(np.zeros((7, 7)))

    def test_merged_distance_rounds_to_a_cached_tie(self):
        # distances 1 and 1 + k * 2**-52 for k in (-1, 1, 2): merging slots 2
        # and 5 gives slot 0 exactly its cached nearest distance (to slot
        # 4), so the lower slot 2 must become its nearest neighbour
        u = 2.0**-52
        v = {"0": 0.0, "h": 0.5, "1": 1.0, "L": 1.0 - u, "U": 1.0 + u, "V": 1.0 + 2 * u}
        rows = ["0U1hVLh", "U01hUVL", "110UVLV", "hhU0LUh", "VUVL0VL", "LVLUV0U", "hLVhLU0"]
        d = np.array([[v[c] for c in r] for r in rows])
        assert agglomerate(d).merges[-2:] == [(9, 10, 1.0), (11, 4, v["U"])]
        assert_same_merges(d)


@st.composite
def frame_stacks(draw):
    """Wrapped-phase stacks in which some frames duplicate or nearly
    duplicate others; returns (frames, mask, duplicate pairs)."""
    n = draw(st.integers(2, 30))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.uniform(-math.pi, math.pi, (n,) + shape)
    mask = rng.random(shape) < draw(st.floats(0.2, 1.0))
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    duplicates = []
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            continue
        frames[j] = frames[i]
        if draw(st.booleans()):
            frames[j] += draw(st.sampled_from([1e-12, 1e-9, 1e-6])) * rng.standard_normal(shape)
    for i in range(n):
        for j in range(i + 1, n):
            if np.array_equal(frames[i][mask], frames[j][mask]):
                duplicates.append((i, j))
    return frames, mask, duplicates


class TestPairwiseDistancesMatchesReference:
    @settings(max_examples=150)
    @given(frame_stacks())
    def test_exact_zeros_symmetry_and_pdist_agreement(self, stack):
        frames, mask, duplicates = stack
        d = pairwise_distances(frames, mask)
        ref = pairwise_distances_reference(frames, mask)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for i, j in duplicates:
            assert d[i, j] == 0.0
        assert np.all(np.abs(d - ref) <= 1e-12 * ref)

    def test_all_identical_frames(self):
        frames = np.repeat(np.linspace(-3.0, 3.0, 64).reshape(1, 8, 8), 12, axis=0)
        d = pairwise_distances(frames, np.ones((8, 8), dtype=bool))
        assert np.array_equal(d, np.zeros((12, 12)))


class TestPairwiseDistancesPanels:
    """Stacks taller than one 128-row panel: panel edges, duplicates across
    panels and inside a diagonal block, and the same bits for any number of
    worker threads."""

    @staticmethod
    def stack(n, near):
        rng = np.random.default_rng(n)
        frames = rng.uniform(-math.pi, math.pi, (n, 5, 7))
        mask = rng.random((5, 7)) < 0.7
        mask[2, 3] = True
        # (i, j) inside one diagonal block, and across panels
        pairs = [(0, n - 1), (1, 2), (60, 63), (126, 127), (127, 128), (5, 130), (64, 257)]
        for k, (i, j) in enumerate(p for p in pairs if p[1] < n):
            frames[j] = frames[i]
            if near and k % 2:
                frames[j] += 1e-12 * rng.standard_normal((5, 7))
        return frames, mask

    @pytest.mark.parametrize("near", [False, True], ids=["exact", "near"])
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 128, 129, 300])
    def test_matches_reference_and_any_worker_count(self, n, near, monkeypatch):
        frames, mask = self.stack(n, near)
        ref = pairwise_distances_reference(frames, mask)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(core, "WORKERS", workers)
            runs.append(pairwise_distances(frames, mask))
        d = runs[0]
        assert all(r.tobytes() == d.tobytes() for r in runs[1:])
        assert d.tobytes() == d.T.tobytes()
        assert np.all(np.diag(d) == 0.0)
        assert np.all(np.abs(d - ref) <= 1e-12 * ref)
        # identical rows over the mask, and only those, are exactly 0.0 apart
        x = frames[:, mask]
        same = (x[:, None, :] == x[None, :, :]).all(axis=2)
        assert np.array_equal(d == 0.0, same)
        if near and n > 2:
            assert 0.0 < d[1, 2] < 1e-11


@st.composite
def all_valid_stacks(draw):
    """(frames, layout): N in {2, 7, 8, 129, 300} small frames, on a coarse
    grid of values (ties, exact duplicates) or uniform in [-pi, pi], with
    some frames copied over others, given as C-contiguous float64, as
    float32, or as a strided view."""
    n = draw(st.sampled_from([2, 7, 8, 129, 300]))
    h, w = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        frames = rng.integers(-4, 5, (n, h, w)) * (math.pi / 4)
    else:
        frames = rng.uniform(-math.pi, math.pi, (n, h, w))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
        frames[j] = frames[i]
    return frames, draw(st.sampled_from(["float64", "float32", "strided"]))


class TestPairwiseDistancesInPlace:
    """With every pixel valid the kernel reads the stack in place; its bits
    are those of the kernel that always gathered an (N, P) copy."""

    @settings(max_examples=60)
    @given(all_valid_stacks())
    def test_same_bits_as_the_compressed_copy(self, stack):
        frames, layout = stack
        if layout == "float32":
            frames = frames.astype(np.float32)
        given_frames = frames
        if layout == "strided":
            wide = np.zeros((*frames.shape[:2], 2 * frames.shape[2]))
            wide[..., ::2] = frames
            given_frames = wide[..., ::2]
        mask = np.ones(frames.shape[1:], dtype=bool)
        d = pairwise_distances(given_frames, mask)
        assert d.tobytes() == pairwise_distances_compressed(frames, mask).tobytes()

    def test_the_stack_is_not_copied(self, monkeypatch):
        """Beyond d, one call allocates less than a quarter of the stack:
        its panel's temporaries (under 1 MB here, on one thread)."""
        monkeypatch.setattr(core, "WORKERS", 1)
        rng = np.random.default_rng(0)
        frames = rng.uniform(-math.pi, math.pi, (300, 64, 64))
        mask = np.ones((64, 64), dtype=bool)
        d_bytes = 8 * len(frames) ** 2

        def traced_peak():
            tracemalloc.start()
            try:
                pairwise_distances(frames, mask)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak() < d_bytes + frames.nbytes / 4
        mask[0, 0] = False  # a mask with an invalid pixel still copies
        assert traced_peak() > d_bytes + frames.nbytes * 0.9


def _run(stack, params, monkeypatch, reference: bool):
    """run_clustered with the package or the reference kernels; returns
    the report and the ClusterSet it selected."""
    select = pipeline.select_clusters
    selected = []

    def recording_select(*args):
        selected.append(select(*args))
        return selected[-1]

    with monkeypatch.context() as m:
        if reference:
            m.setattr(pipeline, "pairwise_distances", pairwise_distances_reference)
            m.setattr(pipeline, "agglomerate", agglomerate_reference)
        m.setattr(pipeline, "select_clusters", recording_select)
        report = run_clustered(stack, params)
    return report, selected[0]


TRIALS = [
    pytest.param(dict(snr_db=20.0, contaminant_fraction=0.03, seed=s), id=f"noisy-seed{s}")
    for s in (0, 1, 2)
] + [
    # every frame identical: every distance is an exact 0.0 tie (N=100, as
    # the reference rescans all O(N^2) tied pairs at every merge)
    pytest.param(
        dict(frame_count=100, snr_db=math.inf, perturbation_count=1, seed=0),
        id="noise-free-all-tied",
    ),
    # two families of duplicates plus contaminants
    pytest.param(
        dict(frame_count=100, snr_db=math.inf, contaminant_fraction=0.03, seed=3),
        id="noise-free-families",
    ),
]


@pytest.mark.parametrize("trial", TRIALS)
def test_clustered_partition_and_surface_identical(trial, monkeypatch):
    spec = TrialSpec(
        **{"frame_count": 200, "grid": 64, "perturbation_count": 2, "tilt_jitter": 6.0, **trial}
    )
    stack, _ = make_trial(peaks_surface(64, 37.82), spec)
    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    fast, fast_clusters = _run(stack, params, monkeypatch, reference=False)
    ref, ref_clusters = _run(stack, params, monkeypatch, reference=True)
    assert fast_clusters.chosen == ref_clusters.chosen
    assert fast_clusters.abandoned == ref_clusters.abandoned
    assert np.array_equal(fast.surface.mask, ref.surface.mask)
    assert np.array_equal(fast.surface.values, ref.surface.values)
