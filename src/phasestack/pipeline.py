"""One measurement pipeline: preprocess -> partition -> for each part
(circular mean -> unwrap -> Zernike fit) -> combine.

The routes differ only in the partition.  Clustered uses the chosen
clusters of an average-linkage dendrogram cut on pooled copies of the
piston-shifted frames; no-classify uses one part of all frames;
conventional uses one part per frame.  Only the clustered route pools.  A
one-frame part is its frame, piston-shifted, and skips the circular mean;
a larger one is denoised by ``circular_mean_rows``, which reads its rows of
the stack in place and shifts each one itself, so no piston-shifted copy of
the stack is held.  The unwrap count equals the number of parts, not
frames.

Every part has piston, tilt and power fitted and removed before the
parts enter a running weighted mean; removing piston aligns the arbitrary
2*pi*k offset that unwrapping leaves per part.  The fit is made on the
mask the unwrap reached.  What depends on a part's mask alone is derived
once in an ``unwrap.Aperture``: the stack's, shared by every part whose
mask equals it, or one of the part's own.  Each is dropped when the run
returns, so none outlives a measurement.

Failure policy: a part whose unwrap or fit raises ValueError is dropped
with a warning naming its frames and the reason; the run raises
ValueError only when no part is left.  Other exceptions propagate.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# circular_mean_frame stays importable here: perfbench's tracer rebinds it
from .circular import circular_mean_frame, circular_mean_rows  # noqa: F401
from .cluster import NoClusterError, agglomerate, min_samples_from_fraction
from .cluster import pairwise_distances, select_clusters
from .core import PhaseStack
from .preprocess import center_pixel, piston_shift, prepare_for_clustering
from .unwrap import Aperture, Surface, default_seed, unwrap
from .zernike import DEFAULT_WAVELENGTH_NM, MODES, phase_to_height, rmse, zernike_fit_remove

WEIGHTINGS = ("by-size", "uniform")
STAGES = ("preprocess", "classify", "denoise", "unwrap", "fit", "combine")


@dataclass
class PipelineParams:
    """Knobs of the measurement; the conventional route uses only
    wavelength_nm.

    Exactly one of min_samples / min_fraction may be set; min_fraction is
    converted with ceil(fraction * N) at run time.
    """

    cut: float = 0.5
    min_samples: int | None = 2
    min_fraction: float | None = None
    pool_levels: int = 1
    cluster_weighting: str = "by-size"
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
                {"modes": list(MODES), "coefficients": [float(c) for c in f.coefficients]}
                for f in self.fits
            ],
            "stage_times_ms": {k: float(v) for k, v in self.stage_times_ms.items()},
            "total_time_ms": self.total_time_ms,
            "warnings": list(self.warnings),
        }
        if with_surface:
            out["surface"] = {
                "values": self.surface.values.tolist(),
                "mask": self.surface.mask.astype(int).tolist(),
            }
        return out


def anchor_for(mask: np.ndarray):
    """The pipeline's piston anchor and unwrap seed: the center pixel when
    valid, else the valid pixel nearest the centroid."""
    i, j = center_pixel(mask.shape)
    if mask[i, j]:
        return (i, j)
    return default_seed(mask)


def physical_memory_bytes() -> int:
    """The machine's physical memory, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_classify_fits(n: int, shape: tuple, pool_levels: int) -> None:
    """Raise ValueError when classifying ``n`` frames of ``shape`` would
    hold more bytes than the machine's physical memory: the float64 pooled
    stack and ``d`` (n x n), then ``d`` and ``agglomerate``'s copy of it.
    ``run_clustered`` and the CLI's ``inspect`` call it before pooling."""
    h, w = shape
    for _ in range(pool_levels):
        h, w = h // 2, w // 2
    need = 8 * (n * n + max(n * h * w, n * n))
    have = physical_memory_bytes()
    if need > have:
        raise ValueError(
            f"classifying {n} frames would hold {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


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
    if classify and n < 2:
        raise ValueError("run_clustered: need at least 2 frames to classify")
    anchor = anchor_for(stack.mask)
    aperture = Aperture(stack.mask)

    with _timed(times, "preprocess"):
        if classify:
            _check_classify_fits(n, stack.shape, params.pool_levels)
            pooled, pooled_mask = prepare_for_clustering(
                stack.frames, stack.mask, params.pool_levels, anchor
            )

    with _timed(times, "classify"):
        abandoned: list = []
        if classify:
            d = pairwise_distances(pooled, pooled_mask)
            # each dropped once read: agglomerate's N x N copy never sits
            # beside the pooled stack, nor d beside the denoise
            del pooled
            dendrogram = agglomerate(d)
            del d
            clusters = select_clusters(dendrogram, params.cut, params.resolve_min_samples(n))
            parts, abandoned = clusters.chosen, clusters.abandoned
        elif method == "no-classify":
            parts = [list(range(n))]
        else:
            parts = [[i] for i in range(n)]

    # running per-pixel weighted mean of the part surfaces; the weights of
    # the parts that reached the whole aperture are counted, and added to
    # den at once: every term is a small whole number, so the sum is exact
    # in any order
    num = np.zeros(stack.shape)
    den = np.zeros(stack.shape)
    whole = 0
    n_valid = aperture.derived(np.count_nonzero)
    kept, fits = [], []
    unwraps = 0
    for members in parts:
        try:
            if len(members) == 1:
                with _timed(times, "preprocess"):
                    frame = piston_shift(stack.frames[members[0]], stack.mask, anchor)
                part = aperture
            else:
                with _timed(times, "denoise"):
                    frame, _resultant, mask = circular_mean_rows(
                        stack.frames, members, stack.mask, anchor
                    )
                part = aperture if np.array_equal(mask, aperture.mask) else Aperture(mask)
            with _timed(times, "unwrap"):
                seed = anchor_for(part.mask)
                unwraps += 1
                s = unwrap(frame, part.mask, seed=seed, aperture=part)
            with _timed(times, "fit"):
                residual, fit = zernike_fit_remove(s, aperture=part)
        except ValueError as exc:
            warnings.append(f"frames {members} dropped: {exc}")
            continue
        if s.warning:
            warnings.append(f"frames {members}: {s.warning}")
        with _timed(times, "combine"):
            # the residual is 0.0 off its mask, so it adds nothing there
            w = len(members) if params.cluster_weighting == "by-size" else 1
            num += residual.values if w == 1 else w * residual.values
            # the reached mask lies inside the aperture: equal when as large
            if np.count_nonzero(residual.mask) == n_valid:
                whole += w
            else:
                den += residual.mask if w == 1 else w * residual.mask
        kept.append(members)
        fits.append(fit)
    if not kept:
        raise ValueError(f"{method}: every part was dropped: {'; '.join(warnings)}")

    with _timed(times, "combine"):
        if whole:
            den += whole * aperture.mask
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
    cluster reaches the minimum sampling number, and ValueError, before
    any work, when classifying would hold more bytes than the machine's
    physical memory.
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
