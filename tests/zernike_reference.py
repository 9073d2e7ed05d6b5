"""Reference Zernike fits.

``zernike_fit_remove_reference``: one ``np.linalg.lstsq`` per call, the
solve that ``phasestack.zernike.zernike_fit_remove``'s cached factorization
must stay within ``FIT_TOL`` of.  It gathers the valid pixels with the
boolean mask, checks the mask and the modes with the kernel's own helpers
(so both raise the same ``ValueError``s) and takes the same arguments as
the kernel it checks.

``zernike_fit_remove_copy_form``: the kernel's SVD-path factorization with
the residual formed as it was before the single gather: a copy of the
values, the fit subtracted on the mask, zeros written off it.  The kernel's
SVD path must give its bits.
"""

from __future__ import annotations

import numpy as np

from phasestack.unwrap import Surface
from phasestack.zernike import (
    _RANK_DEFICIENT,
    FIT_TOL,
    MODES,
    ZernikeFit,
    _check_modes,
    _design,
    _svd_fit,
    _values_mask,
)

# The kernel against this oracle, on either path: coefficients within
# FIT_TOL (1e-12) of max(max|coef|, max|v|), residuals within
# FIT_TOL * (1 + max|v|) rad.
__all__ = ["FIT_TOL", "zernike_fit_remove_copy_form", "zernike_fit_remove_reference"]


def zernike_fit_remove_reference(surface, mask=None, modes=MODES):
    values, m = _values_mask(surface, mask)
    modes = _check_modes(modes)
    v = values[m]
    center, radius, design = _design(m, modes)
    coef, _res, rank, _sv = np.linalg.lstsq(design, v, rcond=None)
    if rank < len(modes):
        raise ValueError(_RANK_DEFICIENT)
    fit = ZernikeFit(modes=modes, coefficients=coef, center=center, radius=radius)
    residual = values.copy()
    residual[m] -= design @ coef
    residual[~m] = 0.0
    if isinstance(surface, Surface):
        return Surface(values=residual, mask=m, warning=surface.warning), fit
    return residual, fit


def zernike_fit_remove_copy_form(surface, mask=None, modes=MODES, *, aperture=None):
    values, m = _values_mask(surface, mask)
    modes = _check_modes(modes)
    kept = aperture is not None and np.array_equal(aperture.mask, m)
    f = aperture.derived(_svd_fit, modes) if kept else _svd_fit(m, modes)
    coef = f.pinv @ values[m]
    fit = ZernikeFit(modes=modes, coefficients=coef, center=f.center, radius=f.radius)
    residual = values.copy()
    residual[m] -= f.design @ coef
    residual[~m] = 0.0
    if isinstance(surface, Surface):
        return Surface(values=residual, mask=m, warning=surface.warning), fit
    return residual, fit
