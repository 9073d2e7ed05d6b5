"""The benchmark's workloads: trial parameters, route and output bounds.

Every workload is a ``make_trial`` stack of the peaks surface with two
tilt families (tilt jitter 30 rad), measured with
``PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)``.
"""

from __future__ import annotations

from dataclasses import dataclass

PV_RAD = 37.82
TILT_JITTER = 30.0
PERTURBATION_COUNT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    grid: int
    snr_db: float
    contaminant_fraction: float
    aperture: bool  # zero the pixels outside circular_aperture((grid, grid))
    route: str  # "clustered" or "conventional"
    max_err_rad: float  # output check: surface_err_rad must not exceed this
    exact_abandon: bool  # output check: abandoned frames == contaminant frames


WORKLOADS = {
    w.name: w
    for w in (
        # Scaling point of the clustered route: classification is ~85% of the
        # time, unwrap runs twice.
        Workload("cluster-n1000", 1000, 128, 20.0, 0.03, False, "clustered", 0.01, True),
        # The paper's baseline: one unwrap per noisy frame, no classification.
        # No contaminant frames: their random tilts made surface_err_rad range
        # 0.13-0.33 rad across seeds, against 0.072-0.073 rad without them.
        Workload("conventional-256", 60, 256, 5.0, 0.0, True, "conventional", 0.15, False),
    )
}
