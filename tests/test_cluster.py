import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from phasestack.cluster import (
    ClusterSet,
    NoClusterError,
    agglomerate,
    check_distance_matrix,
    min_samples_from_fraction,
    pairwise_distances,
    select_clusters,
)


def blob_distances():
    """1-D blobs at 0, 10, 20 with members {0,3,5,7,9}, {1,4,8}, {2,6}."""
    x = np.zeros(10)
    a, b, c = [0, 3, 5, 7, 9], [1, 4, 8], [2, 6]
    for k, i in enumerate(a):
        x[i] = 0.0 + 0.01 * k
    for k, i in enumerate(b):
        x[i] = 10.0 + 0.01 * k
    for k, i in enumerate(c):
        x[i] = 20.0 + 0.01 * k
    return np.abs(x[:, None] - x[None, :]), (a, b, c)


def scipy_linkage(dend):
    """Scipy-style (n-1, 4) linkage matrix [a, b, height, size] of ``dend``."""
    sizes = [1] * dend.n_leaves
    out = np.zeros((len(dend.merges), 4))
    for t, (a, b, h) in enumerate(dend.merges):
        sizes.append(sizes[a] + sizes[b])
        out[t] = [a, b, h, sizes[-1]]
    return out


class TestPairwiseDistances:
    def test_identical_frames_distance_zero(self):
        f = np.full((2, 3, 3), 0.7)
        d = pairwise_distances(f, np.ones((3, 3), dtype=bool))
        assert d.shape == (2, 2)
        assert np.array_equal(d, np.zeros((2, 2)))

    def test_rms_normalization(self):
        # constant offset of 1 rad at every pixel gives RMS distance 1
        frames = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        d = pairwise_distances(frames, np.ones((2, 2), dtype=bool))
        assert d[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert d[1, 0] == d[0, 1]

    def test_mask_restricts_pixels(self):
        frames = np.stack([np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]])])
        mask = np.array([[False, True], [True, True]])
        d = pairwise_distances(frames, mask)
        assert d[0, 1] == 0.0

    def test_direct_metric_sees_branch_cut_as_far(self):
        near_pi = np.full((2, 2), math.pi - 0.05)
        frames = np.stack([near_pi, -near_pi])
        mask = np.ones((2, 2), dtype=bool)
        direct = pairwise_distances(frames, mask)
        assert direct[0, 1] == pytest.approx(2 * math.pi - 0.1, abs=1e-9)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((1, 4, 4)), np.ones((4, 4), dtype=bool))


class TestCheckDistanceMatrix:
    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            check_distance_matrix(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            check_distance_matrix(d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            check_distance_matrix(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        d = np.array([[0.0, bad, 1.0], [bad, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="distance matrix must be finite"):
            check_distance_matrix(d)
        with pytest.raises(ValueError, match="distance matrix must be finite"):
            agglomerate(d)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_non_finite_reported_before_negative(self, bad):
        """min() reaches -inf and propagates NaN, so the finiteness message
        comes first even where a negative entry is also present."""
        d = np.array([[0.0, bad, -1.0], [bad, 0.0, 1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="distance matrix must be finite"):
            check_distance_matrix(d)


class TestAgglomerate:
    def test_two_leaves(self):
        d = np.array([[0.0, 2.5], [2.5, 0.0]])
        dend = agglomerate(d)
        assert dend.n_leaves == 2
        assert dend.merges == [(0, 1, 2.5)]
        assert np.array_equal(dend.normalized_heights, [1.0])

    def test_three_leaf_average_linkage_by_hand(self):
        # d(0,1)=1, d(0,2)=d(1,2)=5: merge 0+1 at 1, then average dist 5
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        dend = agglomerate(d)
        assert dend.merges == [(0, 1, 1.0), (3, 2, 5.0)]
        assert np.allclose(dend.normalized_heights, [0.2, 1.0])

    def test_average_update_is_size_weighted(self):
        # after {0,1} at height 1, dist({0,1}, 2) = (2 + 4) / 2 = 3
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
        dend = agglomerate(d)
        assert dend.merges[0] == (0, 1, 1.0)
        assert dend.merges[1][2] == pytest.approx(3.0, abs=1e-12)

    def test_all_equal_ties_broken_by_min_leaf(self):
        d = np.full((4, 4), 7.0)
        np.fill_diagonal(d, 0.0)
        dend = agglomerate(d)
        assert dend.merges == [(0, 1, 7.0), (4, 2, 7.0), (5, 3, 7.0)]

    def test_matches_scipy_cophenetic_distances(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(12, 5))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        np.fill_diagonal(d, 0.0)
        d = (d + d.T) / 2
        mine = scipy_linkage(agglomerate(d))
        ref = linkage(squareform(d, checks=False), method="average")
        assert np.allclose(np.sort(mine[:, 2]), np.sort(ref[:, 2]), atol=1e-10)
        assert np.allclose(cophenet(mine), cophenet(ref), atol=1e-10)

    def test_heights_nondecreasing_property(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = rng.normal(size=(9, 3))
            d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            np.fill_diagonal(d, 0.0)
            d = (d + d.T) / 2
            h = agglomerate(d).heights
            assert np.all(np.diff(h) >= 0)

    def test_to_dict_round_trips_linkage_sizes(self):
        d, _ = blob_distances()
        dend = agglomerate(d)
        info = dend.to_dict()
        assert info["leaf_count"] == 10
        assert len(info["merges"]) == 9
        assert info["normalized_heights"][-1] == 1.0
        link = scipy_linkage(dend)
        assert link[-1, 3] == 10  # root holds every leaf


class TestSelectClusters:
    def test_minimum_sampling_partitions(self):
        d, (a, b, c) = blob_distances()
        dend = agglomerate(d)
        cs = select_clusters(dend, cut=0.5, min_samples=3)
        assert cs.chosen == [sorted(a), sorted(b)]
        assert cs.abandoned == [sorted(c)]
        assert cs.abandoned_frame_indices == sorted(c)
        assert cs.all_frames == 10

    def test_min_samples_one_keeps_everything(self):
        d, (a, b, c) = blob_distances()
        cs = select_clusters(agglomerate(d), cut=0.5, min_samples=1)
        assert cs.chosen == [sorted(a), sorted(b), sorted(c)]
        assert cs.abandoned == []

    def test_cut_one_stops_below_final_merge(self):
        # merges at normalized height exactly 1 never apply: >= 2 clusters
        d, (a, b, c) = blob_distances()
        cs = select_clusters(agglomerate(d), cut=1.0, min_samples=1)
        assert len(cs.chosen) == 2
        assert cs.chosen[0] == sorted(a + b)  # a joins b just below the top
        assert cs.chosen[1] == sorted(c)

    def test_tiny_cut_gives_singletons(self):
        d, _ = blob_distances()
        cs = select_clusters(agglomerate(d), cut=1e-9, min_samples=1)
        assert cs.chosen == [[i] for i in range(10)]

    def test_no_cluster_error_carries_census(self):
        d, _ = blob_distances()
        with pytest.raises(NoClusterError) as err:
            select_clusters(agglomerate(d), cut=1e-9, min_samples=2)
        census = err.value.clusters
        assert isinstance(census, ClusterSet)
        assert census.chosen == []
        assert census.all_frames == 10

    def test_degenerate_zero_distances_form_one_cluster(self):
        # identical frames: every height is 0, so every merge applies
        d = np.zeros((4, 4))
        cs = select_clusters(agglomerate(d), cut=0.5, min_samples=2)
        assert cs.chosen == [[0, 1, 2, 3]]

    def test_parameter_validation(self):
        d, _ = blob_distances()
        dend = agglomerate(d)
        with pytest.raises(ValueError):
            select_clusters(dend, cut=0.0, min_samples=1)
        with pytest.raises(ValueError):
            select_clusters(dend, cut=1.5, min_samples=1)
        with pytest.raises(ValueError):
            select_clusters(dend, cut=0.5, min_samples=0)


class TestMinSamplesFromFraction:
    def test_ceil_of_fraction(self):
        assert min_samples_from_fraction(0.04, 100) == 4
        assert min_samples_from_fraction(0.3, 10) == 3
        assert min_samples_from_fraction(0.25, 10) == 3

    def test_floor_of_one(self):
        assert min_samples_from_fraction(0.01, 10) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            min_samples_from_fraction(0.0, 10)
        with pytest.raises(ValueError):
            min_samples_from_fraction(1.0, 10)
