"""Reference Zernike fits.

``zernike_fit_remove_reference``: one ``np.linalg.lstsq`` per call, the
solve that ``phasestack.zernike.zernike_fit_remove``'s cached factorization
must stay within ``FIT_TOL`` of.  It gathers the valid pixels with the
boolean mask, checks the mask with the kernel's own helpers (so both
raise the same ``ValueError``s) and takes the same arguments as the kernel
it checks.

``zernike_fit_remove_copy_form``: the kernel's SVD-path factorization with
the residual formed as it was before the single gather: a copy of the
values, the fit subtracted on the mask, zeros written off it.  The kernel's
SVD path must give its bits.

``geometry_reference``: a mask's centre and radius as the mean and the max
over the ``np.nonzero`` indices of every valid pixel, as the SVD path's
design computed them before ``zernike._geometry`` found them from the
mask's row and column counts.  ``_geometry`` must give its bits.
"""

from __future__ import annotations

import numpy as np

from phasestack.unwrap import Surface
from phasestack.zernike import (
    _RANK_DEFICIENT,
    FIT_TOL,
    MODES,
    ZernikeFit,
    _design,
    _svd_fit,
    _values_mask,
)

# The kernel against this oracle, on either path: coefficients within
# FIT_TOL (1e-12) of max(max|coef|, max|v|), residuals within
# FIT_TOL * (1 + max|v|) rad.
__all__ = [
    "FIT_TOL",
    "geometry_reference",
    "zernike_fit_remove_copy_form",
    "zernike_fit_remove_reference",
]


def geometry_reference(m):
    """(centre, radius) of the bool mask ``m``, from every valid pixel's
    indices; raises ``_geometry``'s error on fewer than 10 of them."""
    rows, cols = np.nonzero(m)
    if rows.size < 10:
        raise ValueError("zernike_fit_remove: need at least 10 valid pixels")
    cy, cx = rows.mean(), cols.mean()
    radius = float(np.sqrt(((rows - cy) ** 2 + (cols - cx) ** 2).max()))
    return (float(cy), float(cx)), radius


def zernike_fit_remove_reference(surface, mask=None):
    values, m = _values_mask(surface, mask)
    v = values[m]
    center, radius, design = _design(m)
    coef, _res, rank, _sv = np.linalg.lstsq(design, v, rcond=None)
    if rank < len(MODES):
        raise ValueError(_RANK_DEFICIENT)
    fit = ZernikeFit(coefficients=coef, center=center, radius=radius)
    residual = values.copy()
    residual[m] -= design @ coef
    residual[~m] = 0.0
    if isinstance(surface, Surface):
        return Surface(values=residual, mask=m, warning=surface.warning), fit
    return residual, fit


def zernike_fit_remove_copy_form(surface, mask=None, *, aperture=None):
    values, m = _values_mask(surface, mask)
    kept = aperture is not None and np.array_equal(aperture.mask, m)
    f = aperture.derived(_svd_fit) if kept else _svd_fit(m)
    coef = f.pinv @ values[m]
    fit = ZernikeFit(coefficients=coef, center=f.center, radius=f.radius)
    residual = values.copy()
    residual[m] -= f.design @ coef
    residual[~m] = 0.0
    if isinstance(surface, Surface):
        return Surface(values=residual, mask=m, warning=surface.warning), fit
    return residual, fit
