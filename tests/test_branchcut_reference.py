"""place_branch_cuts against the ring-loop reference: the same cut maps,
shape, dtype and bytes, with and without an aperture.

The cases cover what the padded cell grid must get right: lattices one
cell wide or high, searches that end one cell past the lattice, masks with
interior holes (which are not sinks) and border-connected invalid regions
(which are), charges on sink cells, lattices where every cell is a sink,
and the dense residue fields of contaminant frames and 0 dB apertures.
"""

import numpy as np
import pytest
from branchcut_reference import place_branch_cuts_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasestack.core import circular_aperture, detect_residues, wrap
from phasestack.synth import CONTAMINANT, TrialSpec, add_awgn, make_trial, peaks_surface
from phasestack.unwrap import Aperture, place_branch_cuts


def same_bits(got, want):
    return all(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in ((got.cut_right, want.cut_right), (got.cut_down, want.cut_down)))


def assert_same_cuts(charges, mask):
    want = place_branch_cuts_reference(charges, mask)
    assert same_bits(place_branch_cuts(charges, mask), want)
    if mask is not None:  # and with the sinks kept by an aperture
        assert same_bits(place_branch_cuts(charges, mask, aperture=Aperture(mask)), want)


charge = st.sampled_from([-1, 0, 0, 1])


@st.composite
def charge_maps(draw, max_side=13):
    """Charges of any density on a lattice 1 to max_side cells a side, with
    no mask or a mask with 0, 10 or 30% invalid pixels in random places."""
    hh, ww = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    charges = draw(arrays(np.int8, (hh, ww), elements=charge))
    invalid = draw(st.sampled_from([None, 0.0, 0.1, 0.3]))
    if invalid is None:
        return charges, None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((hh + 1, ww + 1)) >= invalid
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return charges, mask


@st.composite
def holed_masks(draw):
    """Charges on a lattice with an interior hole, which is not a sink,
    and invalid strips along some borders, which are."""
    h, w = draw(st.integers(6, 20)), draw(st.integers(6, 20))
    mask = np.ones((h, w), dtype=bool)
    r, c = draw(st.integers(2, h - 4)), draw(st.integers(2, w - 4))
    mask[r:r + draw(st.integers(1, h - 2 - r)), c:c + draw(st.integers(1, w - 2 - c))] = False
    for edge in draw(st.lists(st.sampled_from(["top", "bottom", "left", "right"]), unique=True)):
        depth = draw(st.integers(1, 2))
        {"top": mask[:depth], "bottom": mask[-depth:],
         "left": mask[:, :depth], "right": mask[:, -depth:]}[edge][...] = False
    if not mask.any():
        mask[h // 2, w // 2] = True
    charges = draw(arrays(np.int8, (h - 1, w - 1), elements=charge))
    return charges, mask


@given(charge_maps())
def test_random_charge_maps_match_reference(case):
    assert_same_cuts(*case)


@given(charge_maps(max_side=40))
def test_larger_charge_maps_match_reference(case):
    assert_same_cuts(*case)


@given(holed_masks())
def test_holes_and_border_sinks_match_reference(case):
    assert_same_cuts(*case)


@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_all_sink_lattice_matches_reference(h, w, data):
    """Every other row invalid and running to the border: every 2x2 loop
    touches one, so every cell, charged or not, is a sink."""
    mask = np.zeros((h + 1, w + 1), dtype=bool)
    mask[1::2] = True
    charges = data.draw(arrays(np.int8, (h, w), elements=charge))
    assert_same_cuts(charges, mask)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1)])
@pytest.mark.parametrize("fill", [-1, 1])
def test_full_thin_lattices_match_reference(shape, fill):
    assert_same_cuts(np.full(shape, fill, dtype=np.int8), None)


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_contaminant_frames_match_reference(seed):
    """The cluster recipe's contaminant frames (a tilt of 5 to 10 times the
    jitter, doubled noise): hundreds to thousands of residues a frame."""
    spec = TrialSpec(frame_count=4, grid=128, snr_db=20.0, perturbation_count=2,
                     contaminant_fraction=0.5, tilt_jitter=30.0, seed=seed)
    stack, labels = make_trial(peaks_surface(128, 37.82), spec)
    for frame in stack.frames[labels == CONTAMINANT]:
        charges = detect_residues(frame)
        assert_same_cuts(charges, stack.mask)


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_zero_db_apertures_match_reference(seed):
    n = 64
    mask = circular_aperture((n, n))
    frame = np.where(mask, wrap(add_awgn(peaks_surface(n, 37.82), 0.0, seed)), 0.0)
    charges = detect_residues(frame, mask)
    assert np.count_nonzero(charges) > 100
    assert_same_cuts(charges, mask)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_unit_charges_of_any_dtype_are_accepted(dtype):
    charges = np.zeros((5, 6), dtype=dtype)
    charges[2, 3] = 1
    charges[1, 1] = -1
    assert_same_cuts(charges, None)
