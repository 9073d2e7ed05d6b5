import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from unwrap_reference import mask_is_connected_reference

from phasestack.core import TWO_PI, circular_aperture, detect_residues, wrap
from phasestack.synth import peaks_surface
from phasestack.unwrap import (
    Aperture,
    BranchCutMap,
    _border_sinks,
    _cut_free_tree,
    default_seed,
    flood_unwrap,
    place_branch_cuts,
    unwrap,
)


def vortex(n, yc, xc, sign=1):
    r, c = np.mgrid[0:n, 0:n]
    return wrap(sign * np.arctan2(r - yc, c - xc))


def empty_cuts(h, w):
    return BranchCutMap(
        cut_right=np.zeros((h, w - 1), dtype=bool),
        cut_down=np.zeros((h - 1, w), dtype=bool),
    )


def assert_consistent(frame, surf, cuts, atol=1e-9):
    """Every un-cut adjacent reached pair must differ by the wrapped diff."""
    vis = surf.mask
    ok_r = vis[:, :-1] & vis[:, 1:] & ~cuts.cut_right
    if ok_r.any():
        got = (surf.values[:, 1:] - surf.values[:, :-1])[ok_r]
        want = wrap(frame[:, 1:] - frame[:, :-1])[ok_r]
        assert np.abs(got - want).max() < atol
    ok_d = vis[:-1, :] & vis[1:, :] & ~cuts.cut_down
    if ok_d.any():
        got = (surf.values[1:, :] - surf.values[:-1, :])[ok_d]
        want = wrap(frame[1:, :] - frame[:-1, :])[ok_d]
        assert np.abs(got - want).max() < atol


class TestBranchCutPlacement:
    def test_no_residues_no_cuts(self):
        charges = np.zeros((7, 7), dtype=np.int8)
        cuts = place_branch_cuts(charges)
        assert cuts.edge_count == 0

    def test_dipole_gets_straight_cut(self):
        charges = np.zeros((15, 15), dtype=np.int8)
        charges[5, 5] = 1
        charges[5, 8] = -1
        cuts = place_branch_cuts(charges)
        assert cuts.edge_count == 3
        assert cuts.cut_down[5, 6] and cuts.cut_down[5, 7] and cuts.cut_down[5, 8]
        assert not cuts.cut_right.any()

    def test_adjacent_dipole_single_edge(self):
        charges = np.zeros((7, 7), dtype=np.int8)
        charges[3, 3] = 1
        charges[3, 4] = -1
        cuts = place_branch_cuts(charges)
        assert cuts.edge_count == 1
        assert cuts.cut_down[3, 4]

    def test_near_border_residue_grounds_out(self):
        charges = np.zeros((7, 7), dtype=np.int8)
        charges[0, 3] = 1
        cuts = place_branch_cuts(charges)
        assert cuts.edge_count >= 1

    def test_lone_residue_far_from_border_still_balanced(self):
        charges = np.zeros((15, 15), dtype=np.int8)
        charges[7, 7] = 1
        cuts = place_branch_cuts(charges)
        assert cuts.edge_count >= 8  # a chain all the way to the border

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            place_branch_cuts(np.zeros(5, dtype=np.int8))
        with pytest.raises(ValueError):
            place_branch_cuts(np.zeros((4, 4), dtype=np.int8), np.ones((4, 4), dtype=bool))

    @pytest.mark.parametrize("value, dtype", [
        (2, np.int8), (-2, np.int8), (127, np.int8), (-128, np.int8), (300, np.int64),
        (255, np.uint8), (0.5, np.float64), (np.nan, np.float64),
    ])
    def test_rejects_charges_outside_unit_range(self, value, dtype):
        """None of these is a charge; as int8 bytes, 2 would read as a sink,
        255 as -1 and 300 as 44."""
        charges = np.zeros((5, 6), dtype=dtype)
        charges[1, 1] = 1
        charges[2, 3] = value
        with pytest.raises(ValueError, match=rf"charge {value} at \(2, 3\)"):
            place_branch_cuts(charges)


class TestDefaultSeed:
    def test_full_mask_center(self):
        assert default_seed(np.ones((5, 5), dtype=bool)) == (2, 2)

    def test_invalid_centroid_picks_nearest_valid(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        assert default_seed(mask) == (0, 1)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            default_seed(np.zeros((3, 3), dtype=bool))


class TestFloodUnwrap:
    def test_plane_recovered_exactly(self):
        r, c = np.mgrid[0:32, 0:32]
        truth = 0.05 * r + 0.08 * c
        surf = flood_unwrap(wrap(truth), seed=(0, 0))
        assert surf.mask.all()
        assert surf.warning is None
        assert np.abs(surf.values - truth).max() < 1e-9

    def test_constant_frame_identity(self):
        frame = np.full((8, 8), 1.3)
        surf = flood_unwrap(frame)
        assert np.array_equal(surf.values, frame)

    def test_seed_keeps_its_wrapped_value(self):
        frame = wrap(np.linspace(0, 12, 64).reshape(8, 8))
        surf = flood_unwrap(frame, seed=(4, 4))
        assert surf.values[4, 4] == frame[4, 4]

    def test_output_minus_input_is_2pi_multiple(self):
        truth = peaks_surface(64, 12.0)
        psi = wrap(truth)
        surf = flood_unwrap(psi, seed=(32, 32))
        kk = (surf.values - psi) / TWO_PI
        assert np.abs(kk - np.rint(kk)).max() < 1e-9

    def test_path_independence_exact_constant(self):
        truth = peaks_surface(48, 12.0)
        psi = wrap(truth)
        a = flood_unwrap(psi, seed=(0, 0)).values
        b = flood_unwrap(psi, seed=(47, 47)).values
        diff = a - b
        dev = diff - diff[24, 24]
        assert np.abs(dev).max() < 1e-9
        assert abs(diff[24, 24] / TWO_PI - round(diff[24, 24] / TWO_PI)) < 1e-9

    def test_round_trip_matches_truth_up_to_piston(self):
        truth = peaks_surface(64, 12.0)
        surf = flood_unwrap(wrap(truth), seed=(10, 50))
        diff = surf.values - truth
        assert np.abs(diff - diff[10, 50]).max() < 1e-9

    def test_cut_edge_never_crossed(self):
        frame = wrap(np.linspace(0, 6, 16).reshape(4, 4))
        cuts = empty_cuts(4, 4)
        cuts.cut_right[0, 0] = True  # between (0,0) and (0,1)
        surf = flood_unwrap(frame, cuts=cuts, seed=(0, 0))
        assert surf.mask.all()  # reachable the long way around
        assert_consistent(frame, surf, cuts)

    def test_wall_of_cuts_isolates_and_warns(self):
        frame = np.zeros((8, 8))
        cuts = empty_cuts(8, 8)
        cuts.cut_right[:, 1] = True  # full wall between columns 1 and 2
        surf = flood_unwrap(frame, cuts=cuts, seed=(0, 0))
        assert surf.mask.sum() == 16
        assert not surf.mask[:, 2:].any()
        assert surf.warning is not None and "reached only 16 of 64" in surf.warning
        assert np.array_equal(surf.values[:, 2:], np.zeros((8, 6)))

    def test_disconnected_mask_rejected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[3, 3] = True
        with pytest.raises(ValueError):
            flood_unwrap(np.zeros((4, 4)), mask)

    def test_bad_seed_rejected(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 1] = False
        with pytest.raises(ValueError):
            flood_unwrap(np.zeros((4, 4)), mask, seed=(1, 1))
        with pytest.raises(ValueError):
            flood_unwrap(np.zeros((4, 4)), mask, seed=(9, 0))

    def test_mask_with_interior_hole(self):
        truth = peaks_surface(32, 8.0)
        mask = np.ones((32, 32), dtype=bool)
        mask[14:18, 14:18] = False
        surf = flood_unwrap(wrap(truth), mask, seed=(0, 0))
        assert np.array_equal(surf.mask, mask)
        diff = (surf.values - truth)[mask]
        assert np.abs(diff - diff[0]).max() < 1e-9


def assert_facts_are_fresh(aperture, mask):
    assert aperture.derived(mask_is_connected_reference) == mask_is_connected_reference(mask)
    assert np.array_equal(aperture.derived(_border_sinks), _border_sinks(mask))


class TestAperture:
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
           st.integers(2, 12), st.integers(2, 12))
    def test_facts_match_the_mask(self, seeds, h, w):
        masks = [np.random.default_rng(seed).random((h, w)) > 0.3 for seed in seeds]
        masks = [m for m in masks if m.any()]
        for mask in masks + masks[::-1] + masks:  # A, B, ..., B, A, A, B, ...
            assert_facts_are_fresh(Aperture(mask), mask)

    def test_mask_edited_in_place_gets_fresh_facts(self):
        mask = circular_aperture((16, 16))
        before = Aperture(mask)
        assert before.derived(mask_is_connected_reference)
        mask[8, :] = False  # cut the disk in two
        with pytest.raises(ValueError, match="4-connected"):
            flood_unwrap(np.zeros((16, 16)), mask)
        with pytest.raises(ValueError, match="does not match"):
            flood_unwrap(np.zeros((16, 16)), mask, aperture=before)
        with pytest.raises(ValueError, match="does not match"):
            place_branch_cuts(np.zeros((15, 15), dtype=np.int8), mask, aperture=before)
        after = Aperture(mask)
        assert_facts_are_fresh(after, mask)
        assert not after.derived(mask_is_connected_reference)
        mask[8, :] = circular_aperture((16, 16))[8, :]
        assert flood_unwrap(np.zeros((16, 16)), mask).mask.sum() == mask.sum()
        assert flood_unwrap(np.zeros((16, 16)), mask, aperture=before).mask.sum() == mask.sum()

    def test_editing_the_callers_array_leaves_the_aperture(self):
        mask = circular_aperture((16, 16))
        aperture = Aperture(mask)
        tree = aperture.derived(_cut_free_tree, 8 * 16 + 8)
        mask[8, :] = False
        assert np.array_equal(aperture.mask, circular_aperture((16, 16)))
        assert_facts_are_fresh(aperture, circular_aperture((16, 16)))
        assert aperture.derived(_cut_free_tree, 8 * 16 + 8) is tree
        assert np.array_equal(tree.depth >= 0, circular_aperture((16, 16)))

    def test_one_tree_per_seed(self, monkeypatch):
        built = []
        unwrap_module = sys.modules["phasestack.unwrap"]  # the package attribute is the function
        real = unwrap_module._bfs_tree

        def counted(ok_right, ok_down, seed):
            built.append(seed)
            return real(ok_right, ok_down, seed)

        monkeypatch.setattr(unwrap_module, "_bfs_tree", counted)
        mask = circular_aperture((16, 16))
        aperture = Aperture(mask)
        frame = wrap(peaks_surface(16, 8.0))
        for seed in [(8, 8), (3, 8), (8, 8), (3, 8), (8, 8)]:
            surf = flood_unwrap(frame, mask, seed=seed, aperture=aperture)
            assert np.array_equal(surf.values, flood_unwrap(frame, mask, seed=seed).values)
        assert built.count(8 * 16 + 8) == 1 + 3  # once kept, once per call without the aperture
        assert built.count(3 * 16 + 8) == 1 + 2
        kept = aperture.derived(_cut_free_tree, 8 * 16 + 8)
        assert aperture.derived(_cut_free_tree, 8 * 16 + 8) is kept
        assert built.count(8 * 16 + 8) == 1 + 3

    def test_kept_arrays_are_read_only(self):
        mask = circular_aperture((10, 10))
        aperture = Aperture(mask)
        tree = aperture.derived(_cut_free_tree, 5 * 10 + 5)
        sinks = aperture.derived(_border_sinks)
        for a in (aperture.mask, sinks, tree.order, tree.pos, tree.depth, tree.up_at):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]
        assert mask.flags.writeable  # the caller's array is left as it was

    @pytest.mark.parametrize("mask, message", [
        (np.ones((4, 4), dtype=np.uint8), "2-D bool"),
        (np.ones((2, 4, 4), dtype=bool), "2-D bool"),
        (np.zeros((4, 4), dtype=bool), "no valid pixels"),
    ])
    def test_mask_is_validated_once_at_construction(self, mask, message):
        with pytest.raises(ValueError, match=message):
            Aperture(mask)


class TestCutMapShape:
    @pytest.mark.parametrize("right, down", [
        ((1, 7), (7, 8)),  # too few rows: an IndexError without the check
        ((8, 6), (7, 8)),  # too few columns: a broadcast error without the check
        ((8, 7), (1, 8)),  # no cut set: accepted silently without the check
        ((7, 8), (8, 7)),  # the two arrays swapped
    ])
    def test_flood_rejects_a_cut_map_of_another_frame(self, right, down):
        cuts = BranchCutMap(np.zeros(right, dtype=bool), np.zeros(down, dtype=bool))
        if right == (1, 7):
            cuts.cut_right[0, 3] = True
        if right == (8, 6):
            cuts.cut_right[4, 5] = True
        shapes = f"{right} and {down}"
        with pytest.raises(ValueError, match=rf"cut map shapes {re.escape(shapes)} do not fit a 8x8 frame"):
            flood_unwrap(np.zeros((8, 8)), cuts=cuts)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_flood_rejects_a_cut_map_that_is_not_bool(self, dtype):
        # a numpy casting error inside the flood without the check, which
        # the pipeline and the CLI do not catch
        cuts = BranchCutMap(np.zeros((8, 7), dtype=dtype), np.zeros((7, 8), dtype=dtype))
        cuts.cut_right[4, 3] = 1
        cuts.cut_down[3, 4] = 1
        name = np.dtype(dtype).name
        with pytest.raises(ValueError, match=f"cut maps must be bool, not {name} and {name}"):
            flood_unwrap(np.zeros((8, 8)), cuts=cuts)


class TestGoldsteinEndToEnd:
    def test_vortex_is_consistent_after_cuts(self):
        frame = vortex(16, 7.5, 7.5)
        charges = detect_residues(frame)
        assert np.abs(charges).sum() == 1
        cuts = place_branch_cuts(charges)
        surf = flood_unwrap(frame, cuts=cuts)
        assert_consistent(frame, surf, cuts)
        # the cut chain costs at most a thin set of pixels
        assert surf.mask.sum() >= 0.9 * frame.size

    def test_vortex_pair_is_consistent(self):
        frame = wrap(vortex(24, 11.5, 6.5, 1) + vortex(24, 11.5, 16.5, -1))
        charges = detect_residues(frame)
        assert charges.sum() == 0 and np.abs(charges).sum() == 2
        cuts = place_branch_cuts(charges)
        surf = flood_unwrap(frame, cuts=cuts)
        assert_consistent(frame, surf, cuts)

    def test_one_shot_unwrap_on_aperture(self):
        truth = peaks_surface(48, 12.0)
        mask = circular_aperture((48, 48))
        surf = unwrap(wrap(truth), mask)
        reached = surf.mask
        assert reached.sum() > 0.9 * mask.sum()
        diff = (surf.values - truth)[reached]
        assert np.abs(diff - diff[0]).max() < 1e-9

    def test_noisy_frame_stays_consistent(self):
        rng = np.random.default_rng(12)
        truth = peaks_surface(32, 10.0)
        frame = wrap(truth + rng.normal(0, 0.6, truth.shape))
        charges = detect_residues(frame)
        cuts = place_branch_cuts(charges)
        surf = flood_unwrap(frame, cuts=cuts)
        assert_consistent(frame, surf, cuts)
