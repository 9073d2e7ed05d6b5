"""Low-order Zernike removal and surface figure metrics.

Only the four modes the comparison needs: piston Z0 = 1, tilt-x
Z1 = rho*cos(theta), tilt-y Z2 = rho*sin(theta), and power (defocus)
Z3 = 2*rho^2 - 1.  The unit disk is the mask's bounding circle centered
at the mask centroid, so rho <= 1 on every valid pixel.

``zernike_fit_remove`` factors the design of the fitted mask by one thin
SVD, kept by an ``unwrap.Aperture`` that holds that mask, so fits of many
surfaces on one aperture cost two matrix-vector products each.
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
    """Least-squares coefficients (radians) and the disk mapping used."""

    modes: tuple
    coefficients: np.ndarray
    center: tuple
    radius: float

    def evaluate(self, shape: tuple) -> np.ndarray:
        """Fitted component on the full grid."""
        rr, cc = np.mgrid[0 : shape[0], 0 : shape[1]]
        dx = (cc - self.center[1]) / self.radius
        dy = (rr - self.center[0]) / self.radius
        out = np.zeros(shape, dtype=np.float64)
        for mode, coef in zip(self.modes, self.coefficients):
            out += coef * _mode_values(mode, dx, dy)
        return out

    def coefficient(self, mode: str) -> float:
        return float(self.coefficients[self.modes.index(mode)])


def _mode_values(mode: str, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    if mode == "piston":
        return np.ones_like(dx)
    if mode == "tilt_x":
        return dx
    if mode == "tilt_y":
        return dy
    if mode == "power":
        return 2.0 * (dx * dx + dy * dy) - 1.0
    raise ValueError(f"unknown Zernike mode {mode!r}")


def _design(m: np.ndarray, modes: tuple):
    """Centre, radius and (pixels x modes) design of the mask ``m``."""
    rows, cols = np.nonzero(m)
    if rows.size < 10:
        raise ValueError("zernike_fit_remove: need at least 10 valid pixels")
    cy, cx = rows.mean(), cols.mean()
    radius = float(np.sqrt(((rows - cy) ** 2 + (cols - cx) ** 2).max()))
    if radius == 0.0:
        raise ValueError("zernike_fit_remove: degenerate mask geometry")
    dx = (cols - cx) / radius
    dy = (rows - cy) / radius
    design = np.column_stack([_mode_values(name, dx, dy) for name in modes])
    return (float(cy), float(cx)), radius, design


def _check_modes(modes) -> tuple:
    modes = tuple(modes)
    if not modes or any(name not in MODES for name in modes):
        raise ValueError(f"modes must be a nonempty subset of {MODES}")
    return modes


_RANK_DEFICIENT = "zernike_fit_remove: rank-deficient design (collinear valid pixels)"


def _factor(m: np.ndarray, modes: tuple) -> tuple:
    """(center, radius, design, pinv) of the bool mask ``m`` and these modes.

    The pseudo-inverse comes from one thin SVD of the design, ranked by
    numpy's default least-squares cutoff (a singular value counts when it
    exceeds eps * max(M, N) times the largest).  Read-only, because an
    aperture shares it between fits.
    """
    center, radius, design = _design(m, modes)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[0]) < len(s):
        raise ValueError(_RANK_DEFICIENT)
    pinv = np.ascontiguousarray((vt.T / s) @ u.T)
    design.flags.writeable = pinv.flags.writeable = False
    return center, radius, design, pinv


def zernike_fit_remove(surface, mask=None, modes=MODES, *, aperture: Aperture | None = None):
    """Fit the selected modes over valid pixels and subtract them.

    Returns (residual, fit); residual is a Surface when a Surface was
    passed in, otherwise a plain array.  Raises on a rank-deficient
    design (e.g., all valid pixels collinear).  The coefficients are
    ``pinv @ v`` and the residual ``v - design @ coef``, within the bounds
    in README "Conventions" of a least-squares solve.  The factorization
    is kept by ``aperture`` when it holds the fitted mask.
    """
    values, m = _values_mask(surface, mask)
    modes = _check_modes(modes)
    kept = aperture is not None and np.array_equal(aperture.mask, m)
    center, radius, design, pinv = aperture.derived(_factor, modes) if kept else _factor(m, modes)
    vm = values[m]
    coef = pinv @ vm
    fit = ZernikeFit(modes=modes, coefficients=coef, center=center, radius=radius)
    residual = np.zeros(values.shape)
    residual[m] = vm - design @ coef
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
