"""Reference Zernike fits.

``zernike_fit_remove_reference``: one ``np.linalg.lstsq`` per call, the
solve that ``phasestack.zernike.zernike_fit_remove``'s cached factorization
must stay within ``FIT_TOL`` of.  It gathers the valid pixels with the
boolean mask, checks the mask and the modes with the kernel's own helpers
(so both raise the same ``ValueError``s) and takes the same arguments as
the kernel it checks.

``zernike_fit_remove_copy_form``: the kernel's own factorization with the
residual formed as it was before the single gather: a copy of the values,
the fit subtracted on the mask, zeros written off it.  The kernel must give
its bits.
"""

from __future__ import annotations

import numpy as np

from phasestack.unwrap import Surface
from phasestack.zernike import (
    _RANK_DEFICIENT,
    MODES,
    ZernikeFit,
    _check_modes,
    _design,
    _factor,
    _values_mask,
)

# The cached factorization against this oracle: coefficients within
# FIT_TOL of max(max|coef|, max|v|), residuals within FIT_TOL * (1 + max|v|)
# rad.  The largest seen over the zernike suites and the 256x256 disk of
# BENCH_fit.json is under 2e-13 and 1e-14 of those scales.
FIT_TOL = 1e-12


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
    center, radius, design, pinv = aperture.derived(_factor, modes) if kept else _factor(m, modes)
    coef = pinv @ values[m]
    fit = ZernikeFit(modes=modes, coefficients=coef, center=center, radius=radius)
    residual = values.copy()
    residual[m] -= design @ coef
    residual[~m] = 0.0
    if isinstance(surface, Surface):
        return Surface(values=residual, mask=m, warning=surface.warning), fit
    return residual, fit
