"""Low-order Zernike removal and surface figure metrics.

The four modes the comparison removes, always all four, in ``MODES``
order: piston Z0 = 1, tilt-x Z1 = rho*cos(theta), tilt-y
Z2 = rho*sin(theta), and power (defocus) Z3 = 2*rho^2 - 1.  The unit disk
is the mask's bounding circle centered at the mask centroid, so rho <= 1
on every valid pixel; ``_geometry`` finds both once per fit build.

Each mode is a function of the column plus a function of the row, so
``zernike_fit_remove`` solves the normal equations from the masked
surface's column and row sums, with the modes' 4 x 4 Gram inverted once
per mask (the moments path).  A mask whose Gram is too ill-conditioned
for that solve to stay within ``FIT_TOL`` of a least-squares one, or that
the design rejects, takes the SVD path instead: its design factored by
one thin SVD.  Either factorization is kept by an ``unwrap.Aperture``
that holds the fitted mask, so fits of many surfaces on one aperture
build it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .unwrap import Aperture, Surface

DEFAULT_WAVELENGTH_NM = 632.8  # HeNe, double-pass

MODES = ("piston", "tilt_x", "tilt_y", "power")


def _values_mask(surface, mask):
    if isinstance(surface, Surface):
        return np.asarray(surface.values, dtype=np.float64), np.asarray(surface.mask, dtype=bool)
    values = np.asarray(surface, dtype=np.float64)
    mask = np.ones(values.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"surface shape {values.shape} does not match mask shape {mask.shape}")
    return values, mask


@dataclass
class ZernikeFit:
    """Least-squares coefficients (radians) of ``MODES``, in that order,
    and the disk mapping used."""

    coefficients: np.ndarray
    center: tuple
    radius: float

    def evaluate(self, shape: tuple) -> np.ndarray:
        """Fitted component on the full grid."""
        rr, cc = np.mgrid[0 : shape[0], 0 : shape[1]]
        dx = (cc - self.center[1]) / self.radius
        dy = (rr - self.center[0]) / self.radius
        piston, tilt_x, tilt_y, power = self.coefficients
        return piston + tilt_x * dx + tilt_y * dy + power * (2.0 * (dx * dx + dy * dy) - 1.0)

    def coefficient(self, mode: str) -> float:
        return float(self.coefficients[MODES.index(mode)])


def _geometry(m: np.ndarray):
    """(column counts, row counts, centre, radius) of the mask ``m``.

    The centre is the centroid, from integer moments; the radius is the
    largest distance from it to a valid pixel, found from each row's
    outermost valid columns, where (c - cx)**2 peaks.  Both are the bits of
    the mean and the max over every valid pixel.  Raises on fewer than 10
    valid pixels; ten distinct pixels are never all at their centroid, so
    the radius is then positive.
    """
    h, w = m.shape
    col_count, row_count = m.sum(axis=0), m.sum(axis=1)
    n = int(row_count.sum())
    if n < 10:
        raise ValueError("zernike_fit_remove: need at least 10 valid pixels")
    cy, cx = (row_count @ np.arange(h)) / n, (col_count @ np.arange(w)) / n
    r = np.flatnonzero(row_count)
    first, last = m[r].argmax(axis=1), w - 1 - m[r, ::-1].argmax(axis=1)
    ry2 = (r - cy) ** 2
    radius = float(np.sqrt(np.maximum(ry2 + (first - cx) ** 2, ry2 + (last - cx) ** 2).max()))
    return col_count, row_count, (float(cy), float(cx)), radius


def _design(m: np.ndarray):
    """Centre, radius and (pixels x modes) design of the mask ``m``."""
    _, _, center, radius = _geometry(m)
    rows, cols = np.nonzero(m)
    dx = (cols - center[1]) / radius
    dy = (rows - center[0]) / radius
    design = np.column_stack([np.ones_like(dx), dx, dy, 2.0 * (dx * dx + dy * dy) - 1.0])
    return center, radius, design


_RANK_DEFICIENT = "zernike_fit_remove: rank-deficient design (collinear valid pixels)"


#: The stated bound of the fit against a least-squares solve: coefficients
#: within FIT_TOL * max(max|coef|, max|v|), residuals within
#: FIT_TOL * (1 + max|v|) rad (README "Conventions").
FIT_TOL = 1e-12

#: The largest Gram condition number the moments path takes, read off the
#: Gram's eigenvalues.  The Gram's condition number is the design's
#: squared, so solving through it loses about cond(Gram) * eps (Bjorck
#: 1996, section 2.2).  Measured, the moments path came within
#: 3.2 * eps * cond(Gram) of lstsq, so this limit (17.6) leaves a factor of
#: about 80 below FIT_TOL.
MAX_GRAM_COND = FIT_TOL / (2**8 * np.finfo(float).eps)


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class _SvdFit:
    """The design of a mask and its pseudo-inverse, from one thin SVD of
    the design, ranked by numpy's default least-squares cutoff (a singular
    value counts when it exceeds eps * max(M, N) times the largest)."""

    center: tuple
    radius: float
    design: np.ndarray
    pinv: np.ndarray

    def remove(self, values: np.ndarray, m: np.ndarray) -> tuple:
        """(residual, coefficients): ``pinv @ v`` and ``v - design @ coef``,
        v gathered once and the residual scattered into zeros."""
        vm = values[m]
        coef = self.pinv @ vm
        residual = np.zeros(values.shape)
        residual[m] = vm - self.design @ coef
        return residual, coef


def _svd_fit(m: np.ndarray) -> _SvdFit:
    center, radius, design = _design(m)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[0]) < len(s):
        raise ValueError(_RANK_DEFICIENT)
    pinv = np.ascontiguousarray((vt.T / s) @ u.T)
    _read_only(design, pinv)
    return _SvdFit(center, radius, design, pinv)


@dataclass(frozen=True)
class _MomentsFit:
    """The modes of a mask split as ``cols[:, c] + rows[:, r]`` at pixel
    (r, c), their Gram over the mask and its inverse."""

    center: tuple
    radius: float
    gram: np.ndarray
    inverse: np.ndarray
    cols: np.ndarray  # 4 x w
    rows: np.ndarray  # 4 x h
    outside: np.ndarray  # ~mask

    def remove(self, values: np.ndarray, m: np.ndarray) -> tuple:
        """(residual, coefficients) from the masked copy's two axis sums:
        the design's transpose times v is cols @ (column sums) + rows @
        (row sums), and the fitted surface is a row plus a column."""
        residual = values.copy()  # zeroed by copyto: np.where took twice as long
        np.copyto(residual, 0.0, where=self.outside)
        coef = self.inverse @ (self.cols @ residual.sum(axis=0) + self.rows @ residual.sum(axis=1))
        residual -= (coef @ self.rows)[:, None]
        residual -= coef @ self.cols
        np.copyto(residual, 0.0, where=self.outside)
        return residual, coef


def _moments_fit(m: np.ndarray) -> _MomentsFit | None:
    """The moments path's fit of ``m``, or None where the SVD path must
    fit it: a Gram whose condition number exceeds ``MAX_GRAM_COND``.
    Raises ``_geometry``'s error on fewer than 10 valid pixels."""
    col_count, row_count, (cy, cx), radius = _geometry(m)
    h, w = m.shape
    dx, dy = (np.arange(w) - cx) / radius, (np.arange(h) - cy) / radius
    cols = np.array([np.ones(w), dx, np.zeros(w), 2.0 * dx * dx - 1.0])
    rows = np.array([np.zeros(h), np.zeros(h), dy, 2.0 * dy * dy])
    cross = (rows @ m) @ cols.T  # sum over the mask of rows[:, r] cols[:, c]^T
    gram = (cols * col_count) @ cols.T + (rows * row_count) @ rows.T + cross + cross.T
    low, high = np.linalg.eigvalsh(gram)[[0, -1]]
    if not (low > 0.0 and high <= MAX_GRAM_COND * low):
        return None
    inverse = np.linalg.inv(gram)
    outside = ~m
    _read_only(gram, inverse, cols, rows, outside)
    return _MomentsFit((cy, cx), radius, gram, inverse, cols, rows, outside)


def _factor(m: np.ndarray):
    """The fit of the bool mask ``m``: the moments path where it holds
    ``FIT_TOL``, else the SVD path, which raises the design's errors.
    Read-only, because an aperture shares it between fits."""
    return _moments_fit(m) or _svd_fit(m)


def zernike_fit_remove(surface, mask=None, *, aperture: Aperture | None = None):
    """Fit piston, tilt and power (``MODES``) over valid pixels and
    subtract them.

    Returns (residual, fit); residual is a Surface when a Surface was
    passed in, otherwise a plain array, +0.0 off the mask.  Raises on
    fewer than 10 valid pixels or a rank-deficient design (e.g., all
    valid pixels collinear).  The fit is built once per mask
    (``_factor``): on the moments path, from the masked surface's row and
    column sums and the inverse of the modes' Gram; on the SVD path, for a
    Gram too ill-conditioned for that, ``pinv @ v`` and
    ``v - design @ coef``.  Either is within ``FIT_TOL`` of a
    least-squares solve (README "Conventions").  The build is kept by
    ``aperture`` when it holds the fitted mask.
    """
    values, m = _values_mask(surface, mask)
    kept = aperture is not None and np.array_equal(aperture.mask, m)
    factored = aperture.derived(_factor) if kept else _factor(m)
    residual, coef = factored.remove(values, m)
    fit = ZernikeFit(coefficients=coef, center=factored.center, radius=factored.radius)
    if isinstance(surface, Surface):
        return Surface(values=residual, mask=m, warning=surface.warning), fit
    return residual, fit


def rmse(surface, mask=None) -> float:
    """Mean-removed RMS over valid pixels, in input units."""
    values, m = _values_mask(surface, mask)
    v = values[m]
    if v.size == 0:
        raise ValueError("rmse: no valid pixels")
    return float(np.sqrt(np.mean((v - v.mean()) ** 2)))


def phase_to_height(values, wavelength_nm: float = DEFAULT_WAVELENGTH_NM):
    """Phase in radians to surface height in nm, double-pass convention."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    if isinstance(values, Surface):
        values = values.values
    return np.asarray(values, dtype=np.float64) * (wavelength_nm / (4.0 * np.pi))
