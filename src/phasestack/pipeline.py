"""One measurement pipeline: preprocess -> partition -> for each part
(circular mean -> unwrap -> Zernike fit) -> combine.

The routes differ only in the partition.  Clustered uses the chosen
clusters of an average-linkage dendrogram cut on pooled copies of the
piston-shifted frames; no-classify uses one part of all frames;
conventional uses one part per frame.  A one-frame part skips the
circular mean; a larger one is denoised by ``circular_mean_rows``, which
reads its rows of the piston-shifted stack in place.  The unwrap count
equals the number of parts, not frames.

Every part has ``modes_removed`` fitted and removed before the parts
enter a running weighted mean.  Piston must be among those modes: it
aligns the arbitrary 2*pi*k offset that unwrapping leaves per part.

Failure policy: a part whose unwrap or fit raises ValueError is dropped
with a warning naming its frames and the reason; the run raises
ValueError only when no part is left.  Other exceptions propagate.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# circular_mean_frame stays importable here: perfbench's tracer rebinds it
from .circular import circular_mean_frame, circular_mean_rows  # noqa: F401
from .cluster import NoClusterError, agglomerate, min_samples_from_fraction
from .cluster import pairwise_distances, select_clusters
from .core import PhaseStack
from .preprocess import center_pixel, prepare_for_clustering
from .unwrap import Surface, default_seed, unwrap
from .zernike import DEFAULT_WAVELENGTH_NM, MODES, phase_to_height, rmse, zernike_fit_remove

WEIGHTINGS = ("by-size", "uniform")
STAGES = ("preprocess", "classify", "denoise", "unwrap", "fit", "combine")


@dataclass
class PipelineParams:
    """Knobs of the measurement; the conventional route uses only
    modes_removed and wavelength_nm.

    Exactly one of min_samples / min_fraction may be set; min_fraction is
    converted with ceil(fraction * N) at run time.  modes_removed must
    include "piston", which aligns the parts before they are combined.
    """

    cut: float = 0.5
    min_samples: int | None = 2
    min_fraction: float | None = None
    pool_levels: int = 1
    cluster_weighting: str = "by-size"
    modes_removed: tuple = MODES
    wavelength_nm: float = DEFAULT_WAVELENGTH_NM
    classify: bool = True

    def __post_init__(self):
        if not 0.0 < self.cut <= 1.0:
            raise ValueError("cut must be in (0, 1]")
        if (self.min_samples is None) == (self.min_fraction is None):
            raise ValueError("set exactly one of min_samples / min_fraction")
        if self.min_samples is not None and self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.min_fraction is not None and not 0.0 < self.min_fraction < 1.0:
            raise ValueError("min_fraction must be in (0, 1)")
        if self.pool_levels < 0:
            raise ValueError("pool_levels must be >= 0")
        if self.cluster_weighting not in WEIGHTINGS:
            raise ValueError(f"cluster_weighting must be one of {WEIGHTINGS}")
        self.modes_removed = tuple(self.modes_removed)
        if any(m not in MODES for m in self.modes_removed):
            raise ValueError(f"modes_removed must be a subset of {MODES}")
        if "piston" not in self.modes_removed:
            raise ValueError("modes_removed must include 'piston' to align the parts")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength_nm must be positive")

    def resolve_min_samples(self, n_frames: int) -> int:
        if self.min_samples is not None:
            return self.min_samples
        return min_samples_from_fraction(self.min_fraction, n_frames)


@dataclass
class SurfaceReport:
    """Result of one measurement run."""

    method: str
    surface: Surface
    rmse_rad: float
    rmse_nm: float
    frame_count: int
    unwrap_call_count: int
    chosen_sizes: list
    abandoned_sizes: list
    abandoned_frames: list
    fits: list = field(default_factory=list)
    stage_times_ms: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def total_time_ms(self) -> float:
        return float(sum(self.stage_times_ms.values()))

    def to_dict(self, params=None, seed=None, with_surface: bool = False) -> dict:
        """Report-file form: JSON-native types only, stable field set."""
        out = {
            "schema_version": 1,
            "method": self.method,
            "params": None if params is None else dataclasses.asdict(params),
            "seed": seed,
            "rmse_rad": self.rmse_rad,
            "rmse_nm": self.rmse_nm,
            "frame_count": self.frame_count,
            "unwrap_call_count": self.unwrap_call_count,
            "cluster_sizes_chosen": [int(v) for v in self.chosen_sizes],
            "cluster_sizes_abandoned": [int(v) for v in self.abandoned_sizes],
            "abandoned_frame_indices": [int(v) for v in self.abandoned_frames],
            "zernike_fits": [
                {"modes": list(f.modes), "coefficients": [float(c) for c in f.coefficients]}
                for f in self.fits
            ],
            "stage_times_ms": {k: float(v) for k, v in self.stage_times_ms.items()},
            "total_time_ms": self.total_time_ms,
            "warnings": list(self.warnings),
        }
        if params is not None:
            out["params"]["modes_removed"] = list(params.modes_removed)
        if with_surface:
            out["surface"] = {
                "values": self.surface.values.tolist(),
                "mask": self.surface.mask.astype(int).tolist(),
            }
        return out


def _anchor_for(mask: np.ndarray):
    """Center pixel when valid, else the valid pixel nearest the centroid."""
    i, j = center_pixel(mask.shape)
    if mask[i, j]:
        return (i, j)
    return default_seed(mask)


@contextmanager
def _timed(times: dict, stage: str):
    """Add the wall time of the block, in ms, to times[stage]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[stage] += (time.perf_counter() - t0) * 1e3


def _measure(stack: PhaseStack, params: PipelineParams, method: str) -> SurfaceReport:
    """The one pipeline; ``method`` selects the partition."""
    times = dict.fromkeys(STAGES, 0.0)
    warnings: list = []
    n = len(stack)
    classify = method == "clustered"

    with _timed(times, "preprocess"):
        shifted, pooled, pooled_mask = prepare_for_clustering(
            stack.frames, stack.mask, params.pool_levels if classify else 0, _anchor_for(stack.mask)
        )

    with _timed(times, "classify"):
        abandoned: list = []
        if classify:
            if n < 2:
                raise ValueError("run_clustered: need at least 2 frames to classify")
            d = pairwise_distances(pooled, pooled_mask)
            dendrogram = agglomerate(d)
            clusters = select_clusters(dendrogram, params.cut, params.resolve_min_samples(n))
            parts, abandoned = clusters.chosen, clusters.abandoned
        elif method == "no-classify":
            parts = [list(range(n))]
        else:
            parts = [[i] for i in range(n)]

    # running per-pixel weighted mean of the part surfaces
    num = np.zeros(stack.shape)
    den = np.zeros(stack.shape)
    kept, fits = [], []
    unwraps = 0
    for members in parts:
        try:
            if len(members) == 1:
                frame, mask = shifted[members[0]], stack.mask
            else:
                with _timed(times, "denoise"):
                    frame, _resultant, mask = circular_mean_rows(shifted, members, stack.mask)
            with _timed(times, "unwrap"):
                seed = _anchor_for(mask)
                unwraps += 1
                s = unwrap(frame, mask, seed=seed)
            with _timed(times, "fit"):
                residual, fit = zernike_fit_remove(s, modes=params.modes_removed)
        except ValueError as exc:
            warnings.append(f"frames {members} dropped: {exc}")
            continue
        if s.warning:
            warnings.append(f"frames {members}: {s.warning}")
        with _timed(times, "combine"):
            w = len(members) if params.cluster_weighting == "by-size" else 1
            num += np.where(residual.mask, w * residual.values, 0.0)
            den += np.where(residual.mask, float(w), 0.0)
        kept.append(members)
        fits.append(fit)
    if not kept:
        raise ValueError(f"{method}: every part was dropped: {'; '.join(warnings)}")

    with _timed(times, "combine"):
        mask = den > 0
        values = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
        surface = Surface(values=values, mask=mask, warning=None)
        rmse_rad = rmse(surface)

    return SurfaceReport(
        method=method,
        surface=surface,
        rmse_rad=rmse_rad,
        rmse_nm=float(phase_to_height(rmse_rad, params.wavelength_nm)),
        frame_count=n,
        unwrap_call_count=unwraps,
        # the conventional route reports its kept frames as one "chosen" size
        chosen_sizes=[len(kept)] if method == "conventional" else [len(m) for m in kept],
        abandoned_sizes=[len(m) for m in abandoned],
        abandoned_frames=sorted(i for m in abandoned for i in m),
        fits=fits,
        stage_times_ms=times,
        warnings=warnings,
    )


def run_clustered(stack: PhaseStack, params: PipelineParams) -> SurfaceReport:
    """Classify, denoise per cluster, unwrap once per chosen cluster; with
    ``params.classify`` False, one part of all frames.

    Raises NoClusterError (with the cluster census attached) when no
    cluster reaches the minimum sampling number.
    """
    return _measure(stack, params, "clustered" if params.classify else "no-classify")


def run_conventional(stack: PhaseStack, params: PipelineParams) -> SurfaceReport:
    """Unwrap and fit every frame on its own, then average them."""
    return _measure(stack, params, "conventional")


def snr_from_min_fraction(fraction: float) -> float:
    """Signal-to-noise ratio guaranteed by a minimum sampling fraction.

    A cluster holding a fraction f of the frames leaves at most (1 - f)
    contaminated, so the worst-case power ratio is (1 - f) / f.
    """
    if not 0.0 < fraction < 0.5:
        raise ValueError("min fraction must be in (0, 0.5)")
    return 10.0 * math.log10((1.0 - fraction) / fraction)


@dataclass
class ComparisonReport:
    """Aggregate of repeated trials run through both routes."""

    trial_count: int
    success_count: int
    clustered_rmse_rad: list
    conventional_rmse_rad: list
    clustered_mean: float
    conventional_mean: float
    clustered_sd: float
    conventional_sd: float
    sd_ratio: float | None
    time_ratio: float | None
    clustered_time_ms: float
    conventional_time_ms: float
    errors: list

    def to_dict(self, params=None, seed=None) -> dict:
        out = {
            "schema_version": 1,
            "params": None if params is None else dataclasses.asdict(params),
            "seed": seed,
            "trial_count": self.trial_count,
            "success_count": self.success_count,
            "clustered_rmse_rad": [float(v) for v in self.clustered_rmse_rad],
            "conventional_rmse_rad": [float(v) for v in self.conventional_rmse_rad],
            "clustered_mean": self.clustered_mean,
            "conventional_mean": self.conventional_mean,
            "clustered_sd": self.clustered_sd,
            "conventional_sd": self.conventional_sd,
            "sd_ratio": self.sd_ratio,
            "time_ratio": self.time_ratio,
            "clustered_time_ms": self.clustered_time_ms,
            "conventional_time_ms": self.conventional_time_ms,
            "errors": list(self.errors),
        }
        if params is not None:
            out["params"]["modes_removed"] = list(params.modes_removed)
        return out


def compare(trials: list) -> ComparisonReport:
    """Run both routes on each (stack, params) trial and aggregate.

    A trial that raises ValueError or NoClusterError is recorded and
    skipped; statistics cover the successful trials only.
    """
    if len(trials) < 2:
        raise ValueError("compare: need at least 2 trials")
    rms_c, rms_v, errors = [], [], []
    t_c = t_v = 0.0
    for idx, (stack, params) in enumerate(trials):
        try:
            rep_c = run_clustered(stack, params)
            rep_v = run_conventional(stack, params)
        except (ValueError, NoClusterError) as exc:
            errors.append(f"trial {idx}: {exc}")
            continue
        rms_c.append(rep_c.rmse_rad)
        rms_v.append(rep_v.rmse_rad)
        t_c += rep_c.total_time_ms
        t_v += rep_v.total_time_ms

    def _mean(v):
        return float(np.mean(v)) if v else float("nan")

    def _sd(v):
        return float(np.std(v, ddof=1)) if len(v) >= 2 else float("nan")

    sd_c, sd_v = _sd(rms_c), _sd(rms_v)
    return ComparisonReport(
        trial_count=len(trials),
        success_count=len(rms_c),
        clustered_rmse_rad=rms_c,
        conventional_rmse_rad=rms_v,
        clustered_mean=_mean(rms_c),
        conventional_mean=_mean(rms_v),
        clustered_sd=sd_c,
        conventional_sd=sd_v,
        sd_ratio=(sd_c / sd_v) if sd_v and math.isfinite(sd_v) and sd_v > 0 else None,
        time_ratio=(t_c / t_v) if t_v > 0 else None,
        clustered_time_ms=t_c,
        conventional_time_ms=t_v,
        errors=errors,
    )
