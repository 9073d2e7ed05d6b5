import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zernike_reference import (
    FIT_TOL,
    geometry_reference,
    zernike_fit_remove_copy_form,
    zernike_fit_remove_reference,
)

from phasestack import zernike
from phasestack.core import circular_aperture
from phasestack.unwrap import Aperture, Surface
from phasestack.zernike import (
    DEFAULT_WAVELENGTH_NM,
    MAX_GRAM_COND,
    MODES,
    ZernikeFit,
    _factor,
    _geometry,
    _MomentsFit,
    _SvdFit,
    phase_to_height,
    rmse,
    zernike_fit_remove,
)


def disk_mask(n):
    return circular_aperture((n, n))


def annulus(shape, inner):
    """The circular aperture less the disk of ``inner`` times its radius."""
    h, w = shape
    r = np.arange(h)[:, None] - (h - 1) / 2.0
    c = np.arange(w)[None, :] - (w - 1) / 2.0
    return circular_aperture(shape) & (r * r + c * c >= (inner * min(h, w) / 2.0) ** 2)


def svd_path():
    """Every fit made inside takes the SVD path."""
    return mock.patch.object(zernike, "MAX_GRAM_COND", 0.0)


def fit_remove_fancy_index(values, m):
    """The lstsq fit with rows, cols fancy indexing: the oracle for the
    reference's boolean-mask gather and scatter."""
    rows, cols = np.nonzero(m)
    cy, cx = rows.mean(), cols.mean()
    radius = float(np.sqrt(((rows - cy) ** 2 + (cols - cx) ** 2).max()))
    dx = (cols - cx) / radius
    dy = (rows - cy) / radius
    design = np.column_stack([np.ones_like(dx), dx, dy, 2.0 * (dx * dx + dy * dy) - 1.0])
    coef = np.linalg.lstsq(design, values[rows, cols], rcond=None)[0]
    residual = values.copy()
    residual[rows, cols] -= design @ coef
    residual[~m] = 0.0
    return residual, coef


class TestFitRemove:
    @pytest.mark.parametrize("seed", range(6))
    def test_bits_match_fancy_indexing(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(8, 40, size=2))
        values = rng.normal(0.0, 3.0, size=shape)
        mask = rng.random(shape) > rng.uniform(0.1, 0.7)
        residual, fit = zernike_fit_remove_reference(values, mask)
        want_residual, want_coef = fit_remove_fancy_index(values, mask)
        assert fit.coefficients.tobytes() == want_coef.tobytes()
        assert residual.tobytes() == want_residual.tobytes()

    def test_plane_removed_to_zero(self):
        r, c = np.mgrid[0:33, 0:33]
        values = 0.4 + 0.03 * r - 0.05 * c
        mask = disk_mask(33)
        residual, fit = zernike_fit_remove(values, mask)
        assert np.abs(residual[mask]).max() < 1e-9
        assert fit.coefficient("power") == pytest.approx(0.0, abs=1e-9)

    def test_pure_defocus_lands_in_power(self):
        mask = disk_mask(33)
        rows, cols = np.nonzero(mask)
        cy, cx = rows.mean(), cols.mean()
        radius = float(np.sqrt(((rows - cy) ** 2 + (cols - cx) ** 2).max()))
        rr, cc = np.mgrid[0:33, 0:33]
        rho2 = ((rr - cy) ** 2 + (cc - cx) ** 2) / radius**2
        values = 1.5 * (2 * rho2 - 1)
        residual, fit = zernike_fit_remove(values, mask)
        assert fit.coefficient("power") == pytest.approx(1.5, abs=1e-6)
        assert np.abs(residual[mask]).max() < 1e-6

    def test_tilt_coefficient_recovered(self):
        mask = disk_mask(33)
        rows, cols = np.nonzero(mask)
        cy, cx = rows.mean(), cols.mean()
        radius = float(np.sqrt(((rows - cy) ** 2 + (cols - cx) ** 2).max()))
        rr, cc = np.mgrid[0:33, 0:33]
        values = 2.0 * (cc - cx) / radius  # 2 * tilt_x basis exactly
        _, fit = zernike_fit_remove(values, mask)
        assert fit.coefficient("tilt_x") == pytest.approx(2.0, abs=1e-6)
        assert fit.coefficient("tilt_y") == pytest.approx(0.0, abs=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(21, 21))
        mask = disk_mask(21)
        once, _ = zernike_fit_remove(values, mask)
        twice, fit2 = zernike_fit_remove(once, mask)
        assert np.abs(once - twice)[mask].max() < 1e-9
        assert np.abs(fit2.coefficients).max() < 1e-9

    def test_residual_orthogonal_to_fitted_component(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(25, 25))
        mask = disk_mask(25)
        residual, fit = zernike_fit_remove(values, mask)
        comp = fit.evaluate((25, 25))
        dot = float((residual[mask] * comp[mask]).sum())
        scale = np.linalg.norm(residual[mask]) * max(np.linalg.norm(comp[mask]), 1e-30)
        assert abs(dot) < 1e-6 * max(scale, 1.0)

    def test_surface_in_surface_out(self):
        values = np.zeros((16, 16))
        mask = np.ones((16, 16), dtype=bool)
        surf = Surface(values=values, mask=mask, warning="w")
        residual, _ = zernike_fit_remove(surf)
        assert isinstance(residual, Surface)
        assert residual.warning == "w"
        assert np.array_equal(residual.mask, mask)

    def test_invalid_pixels_zeroed(self):
        values = np.ones((16, 16))
        mask = np.ones((16, 16), dtype=bool)
        mask[3, 3] = False
        residual, _ = zernike_fit_remove(values, mask)
        assert residual[3, 3] == 0.0

    def test_collinear_mask_rank_deficient(self):
        values = np.zeros((12, 12))
        mask = np.zeros((12, 12), dtype=bool)
        mask[5, :] = True  # 12 pixels on one row: tilt_y indistinguishable
        with pytest.raises(ValueError, match="rank-deficient"):
            zernike_fit_remove(values, mask)

    def test_too_few_pixels(self):
        values = np.zeros((8, 8))
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:3, 0:3] = True
        with pytest.raises(ValueError, match="at least 10"):
            zernike_fit_remove(values, mask)

    def test_fit_evaluate_matches_design_on_valid_pixels(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(19, 19))
        mask = disk_mask(19)
        residual, fit = zernike_fit_remove(values, mask)
        recon = residual + fit.evaluate((19, 19))
        assert np.abs(recon - values)[mask].max() < 1e-9


KINDS = ("disk", "hole", "scattered", "annulus", "off_centre", "strip", "collinear", "few", "random")


@st.composite
def fit_masks(draw):
    """Masks of every shape the fit must handle or reject: disks, disks
    with holes, disks less scattered pixels (a walled-off part), annuli,
    disks off the grid's centre, strips, collinear pixels, fewer than 10
    pixels, noise."""
    h, w = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("disk", "hole", "scattered"):
        mask = circular_aperture((h, w), margin=draw(st.integers(0, 2)))
        if kind == "hole":
            r, c = rng.integers(0, h), rng.integers(0, w)
            mask[r : r + rng.integers(1, 5), c : c + rng.integers(1, 5)] = False
        elif kind == "scattered":
            lost = draw(st.integers(1, 6))
            mask[rng.integers(0, h, lost), rng.integers(0, w, lost)] = False
    elif kind == "annulus":
        mask = annulus((h, w), draw(st.floats(0.1, 0.95)))
    elif kind == "off_centre":
        r = np.arange(h)[:, None] - draw(st.floats(0.0, h - 1))
        c = np.arange(w)[None, :] - draw(st.floats(0.0, w - 1))
        mask = r * r + c * c <= draw(st.floats(1.0, 12.0)) ** 2
    elif kind == "strip":
        mask = np.zeros((h, w), dtype=bool)
        r = rng.integers(0, h)
        mask[r : r + draw(st.integers(1, 3)), :] = True
        if draw(st.booleans()):
            mask = np.ascontiguousarray(mask.T)
    elif kind == "collinear":
        mask = np.zeros((h, w), dtype=bool)
        i = np.arange(min(h, w))
        mask[i, i if draw(st.booleans()) else i[::-1]] = True
        if draw(st.booleans()):  # one pixel off the line
            mask[rng.integers(0, h), rng.integers(0, w)] = True
    elif kind == "few":
        mask = np.zeros(h * w, dtype=bool)
        mask[rng.choice(h * w, size=min(h * w, draw(st.integers(0, 9))), replace=False)] = True
        mask = mask.reshape(h, w)
    else:
        mask = rng.random((h, w)) > draw(st.floats(0.05, 0.95))
    return mask


@st.composite
def thin_rings(draw):
    """Rings a pixel or so wide, whole or cut by the grid's edge."""
    h, w = draw(st.integers(4, 48)), draw(st.integers(4, 48))
    cy, cx = draw(st.floats(-2.0, h + 1.0)), draw(st.floats(-2.0, w + 1.0))
    inner, width = draw(st.floats(1.0, 30.0)), draw(st.floats(0.3, 1.5))
    r2 = (np.arange(h)[:, None] - cy) ** 2 + (np.arange(w)[None, :] - cx) ** 2
    return (r2 >= inner**2) & (r2 <= (inner + width) ** 2)


@st.composite
def near_lines(draw):
    """Pixels rounded onto a line of any slope, plus up to two off it."""
    h, w = draw(st.integers(2, 48)), draw(st.integers(2, 48))
    slope, offset = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, w - 1.0))
    mask = np.zeros((h, w), dtype=bool)
    r = np.arange(h)
    c = np.rint(offset + slope * r).astype(int)
    on = (c >= 0) & (c < w)
    mask[r[on], c[on]] = True
    for _ in range(draw(st.integers(0, 2))):
        mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    return np.ascontiguousarray(mask.T) if draw(st.booleans()) else mask


def fit_or_error(fit_remove, values, mask):
    try:
        return fit_remove(values, mask)
    except ValueError as exc:
        return str(exc)


class TestGeometry:
    """_geometry's centre and radius, from the mask's counts and each row's
    outermost valid columns, against the mean and max over every valid
    pixel's np.nonzero indices: the same bits, and the same error on fewer
    than 10 valid pixels."""

    @staticmethod
    def check(mask):
        try:
            (cy, cx), radius = geometry_reference(mask)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                _geometry(mask)
            assert str(info.value) == str(exc)
            return
        col_count, row_count, center, got_radius = _geometry(mask)
        assert np.array_equal(col_count, mask.sum(axis=0))
        assert np.array_equal(row_count, mask.sum(axis=1))
        assert np.array([*center, got_radius]).tobytes() == np.array([cy, cx, radius]).tobytes()
        assert got_radius > 0.0

    @given(fit_masks())
    def test_fit_masks(self, mask):
        self.check(mask)

    @given(thin_rings())
    def test_thin_rings(self, mask):
        self.check(mask)

    @given(near_lines())
    def test_near_lines(self, mask):
        self.check(mask)

    @pytest.mark.parametrize("inner", [0.5, 0.8, 0.95, 0.99])
    def test_annuli(self, inner):
        self.check(annulus((128, 128), inner))


class TestCachedFactorization:
    """zernike_fit_remove, on either path, against the lstsq oracle of
    zernike_reference."""

    @given(fit_masks(), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    @example(disk_mask(256), 0, 0.0)
    def test_within_bound_of_lstsq(self, mask, seed, log_scale):
        values = np.random.default_rng(seed).normal(0.0, 10.0**log_scale, size=mask.shape)
        want = fit_or_error(zernike_fit_remove_reference, values, mask)
        got = fit_or_error(zernike_fit_remove, values, mask)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want  # the same check fails, with the same message
            return
        (residual, fit), (want_residual, want_fit) = got, want
        v_max = np.abs(values[mask]).max()
        c_max = np.abs(want_fit.coefficients).max()
        assert np.abs(fit.coefficients - want_fit.coefficients).max() <= FIT_TOL * max(c_max, v_max)
        assert np.abs(residual - want_residual).max() <= FIT_TOL * (1.0 + v_max)
        assert not np.signbit(residual[~mask]).any() and not residual[~mask].any()  # +0.0
        assert (fit.center, fit.radius) == (want_fit.center, want_fit.radius)

    @pytest.mark.parametrize("case", ["few", "collinear_row", "collinear_diagonal", "column"])
    def test_same_errors_as_lstsq(self, case):
        mask = np.zeros((12, 12), dtype=bool)
        if case == "few":
            mask[0:3, 0:3] = True
        elif case == "collinear_row":
            mask[5, :] = True
        elif case == "collinear_diagonal":
            mask[np.arange(12), np.arange(12)[::-1]] = True
        else:
            mask[:, 4] = True
        want = fit_or_error(zernike_fit_remove_reference, np.zeros((12, 12)), mask)
        assert isinstance(want, str)
        with pytest.raises(ValueError) as info:
            zernike_fit_remove(np.zeros((12, 12)), mask)
        assert str(info.value) == want

    def test_mask_edited_in_place_gets_a_fresh_factorization(self, fit_builds):
        mask = disk_mask(21)
        aperture = Aperture(mask)
        values = np.random.default_rng(1).normal(size=(21, 21))
        zernike_fit_remove(values, mask, aperture=aperture)
        mask[10, 10] = False
        for kwargs in ({}, {"aperture": aperture}):
            got, fit = zernike_fit_remove(values, mask, **kwargs)
            want, want_fit = zernike_fit_remove_reference(values, mask)
            assert got[10, 10] == 0.0
            v_max = np.abs(values[mask]).max()
            assert np.abs(got - want).max() <= FIT_TOL * (1.0 + v_max)
            assert fit.center == want_fit.center
        assert len(fit_builds) == 3  # the aperture once, the edited mask once per call
        assert aperture.mask[10, 10]

    def test_one_factorization_per_aperture(self, fit_builds):
        values = np.random.default_rng(3).normal(size=(16, 16))
        aperture = Aperture(disk_mask(16))
        want = zernike_fit_remove(values, disk_mask(16))
        assert len(fit_builds) == 1
        for _ in range(3):
            got = zernike_fit_remove(values, disk_mask(16), aperture=aperture)
            assert got[0].tobytes() == want[0].tobytes()
        assert len(fit_builds) == 1 + 1
        zernike_fit_remove(values, disk_mask(16))
        assert len(fit_builds) == 1 + 1 + 1  # a call without the aperture builds for its mask

    def test_kept_factorization_is_read_only(self):
        aperture = Aperture(disk_mask(16))
        zernike_fit_remove(np.zeros((16, 16)), disk_mask(16), aperture=aperture)
        kept = aperture.derived(_factor)
        assert isinstance(kept, _MomentsFit)
        for a in (kept.gram, kept.inverse, kept.cols, kept.rows, kept.outside):
            with pytest.raises(ValueError):
                a[0, 0] = 0

    def test_kept_svd_factorization_is_read_only(self):
        mask = annulus((16, 16), 0.9)
        aperture = Aperture(mask)
        zernike_fit_remove(np.zeros((16, 16)), mask, aperture=aperture)
        kept = aperture.derived(_factor)
        assert isinstance(kept, _SvdFit)
        for a in (kept.design, kept.pinv):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_surface_in_surface_out(self):
        mask = disk_mask(16)
        values = np.random.default_rng(2).normal(size=(16, 16))
        surf = Surface(values=values, mask=mask, warning="w")
        residual, _ = zernike_fit_remove(surf)
        want, _ = zernike_fit_remove_reference(surf)
        assert isinstance(residual, Surface)
        assert residual.warning == "w"
        assert np.array_equal(residual.mask, want.mask)
        assert residual.values.tobytes() == zernike_fit_remove(values, mask)[0].tobytes()
        v_max = np.abs(values[mask]).max()
        assert np.abs(residual.values - want.values).max() <= FIT_TOL * (1.0 + v_max)


class TestConditioningLimit:
    """A mask takes the moments path exactly when its design's condition
    number, squared, is at most MAX_GRAM_COND, and either path holds
    FIT_TOL."""

    def test_limit_is_derived_from_the_bound(self):
        assert FIT_TOL == 1e-12
        assert MAX_GRAM_COND == FIT_TOL / (2**8 * np.finfo(float).eps)

    @given(st.integers(24, 64), st.integers(24, 64), st.floats(0.5, 0.85), st.integers(0, 2**32 - 1))
    @example(64, 64, 0.6, 0)  # the moments path
    @example(64, 64, 0.8, 0)  # the SVD path
    def test_both_sides_of_the_limit(self, h, w, inner, seed):
        mask = annulus((h, w), inner)
        design = zernike._design(mask)[2]
        cond = np.linalg.cond(design) ** 2
        if abs(cond / MAX_GRAM_COND - 1.0) < 1e-6:
            return  # the two eigenvalue routines may disagree this close
        kind = _MomentsFit if cond <= MAX_GRAM_COND else _SvdFit
        assert isinstance(_factor(mask), kind)
        values = np.random.default_rng(seed).normal(0.0, 1.0, size=mask.shape)
        (residual, fit), (want, want_fit) = (
            zernike_fit_remove(values, mask), zernike_fit_remove_reference(values, mask))
        v_max = np.abs(values[mask]).max()
        c_max = np.abs(want_fit.coefficients).max()
        assert np.abs(fit.coefficients - want_fit.coefficients).max() <= FIT_TOL * max(c_max, v_max)
        assert np.abs(residual - want).max() <= FIT_TOL * (1.0 + v_max)

    @pytest.mark.parametrize("inner, kind", [(0.6, _MomentsFit), (0.8, _SvdFit)])
    def test_annuli_either_side(self, inner, kind):
        assert isinstance(_factor(annulus((64, 64), inner)), kind)


class TestSingleGather:
    """zernike_fit_remove's SVD-path residual, scattered into zeros from one
    gather of the valid values, against the copy-subtract-zero form: the
    same bits."""

    @given(fit_masks(), st.integers(0, 2**32 - 1))
    def test_bits_of_the_copy_form(self, mask, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 3.0, size=mask.shape)
        values[rng.random(mask.shape) < 0.2] = -0.0
        values[~mask] = rng.choice([np.nan, np.inf, -0.0, 1e300], size=int((~mask).sum()))
        want = fit_or_error(zernike_fit_remove_copy_form, values, mask)
        with svd_path():
            got = fit_or_error(zernike_fit_remove, values, mask)
        if isinstance(want, str):
            assert got == want
            return
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].coefficients.tobytes() == want[1].coefficients.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_reached_masks_on_an_aperture(self, seed):
        """The pipeline's case: a Surface fitted on the mask its unwrap
        reached, with the stack's aperture, whether the two masks are equal
        (the kept factorization) or not (a new one)."""
        rng = np.random.default_rng(seed)
        aperture = Aperture(disk_mask(33))
        reached = aperture.mask.copy()
        lost = rng.integers(1, 40) if seed % 2 else 0
        reached[rng.integers(0, 33, lost), rng.integers(0, 33, lost)] = False
        values = np.where(reached, rng.normal(0.0, 5.0, size=(33, 33)), 0.0)
        surface = Surface(values=values, mask=reached, warning=None)
        with svd_path():
            got, fit = zernike_fit_remove(surface, aperture=aperture)
        want, want_fit = zernike_fit_remove_copy_form(surface, aperture=aperture)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.mask, want.mask)
        assert fit.coefficients.tobytes() == want_fit.coefficients.tobytes()


class TestRmse:
    def test_constant_surface_zero(self):
        assert rmse(np.full((8, 8), 3.0)) == 0.0

    def test_alternating_unit_values(self):
        v = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert rmse(v) == pytest.approx(1.0, abs=1e-12)

    def test_mean_removed(self):
        v = np.array([[10.0, 12.0], [10.0, 12.0]])
        assert rmse(v) == pytest.approx(1.0, abs=1e-12)

    def test_mask_and_surface_forms_agree(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(10, 10))
        mask = disk_mask(10)
        a = rmse(values, mask)
        b = rmse(Surface(values=values, mask=mask))
        assert a == b

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))


class TestPhaseToHeight:
    def test_full_period_is_half_wavelength(self):
        assert phase_to_height(4 * math.pi) == pytest.approx(DEFAULT_WAVELENGTH_NM, abs=1e-9)

    def test_zero_is_zero(self):
        assert phase_to_height(0.0) == 0.0

    def test_quarter(self):
        assert phase_to_height(math.pi) == pytest.approx(632.8 / 4, abs=1e-9)

    def test_custom_wavelength(self):
        assert phase_to_height(4 * math.pi, wavelength_nm=1000.0) == pytest.approx(1000.0)

    def test_surface_input(self):
        s = Surface(values=np.full((2, 2), 4 * math.pi), mask=np.ones((2, 2), dtype=bool))
        out = phase_to_height(s)
        assert np.allclose(out, DEFAULT_WAVELENGTH_NM)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ValueError):
            phase_to_height(1.0, wavelength_nm=0.0)


class TestZernikeFitObject:
    def test_coefficient_lookup_and_evaluate_shape(self):
        fit = ZernikeFit(coefficients=np.array([1.0, 0.0, 0.0, 0.0]), center=(2.0, 2.0), radius=2.0)
        out = fit.evaluate((5, 5))
        assert out.shape == (5, 5)
        assert np.allclose(out, 1.0)
        assert [fit.coefficient(mode) for mode in MODES] == [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            fit.coefficient("coma")
