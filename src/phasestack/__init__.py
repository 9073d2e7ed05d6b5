"""Wrapped-phase-stack measurement toolkit.

Classifies a stack of wrapped interferometer frames into perturbation
patterns, denoises each pattern with a pixel-wise circular mean, and
unwraps once per pattern instead of once per frame.  Includes the
conventional unwrap-every-frame baseline, a synthetic interferometry
lab, Goldstein branch-cut unwrapping, low-order Zernike metrics, and a
binary stack file format.
"""

from .circular import RESULTANT_EPS, circular_mean_frame, circular_mean_rows
from .cluster import (
    ClusterSet,
    Dendrogram,
    NoClusterError,
    agglomerate,
    min_samples_from_fraction,
    pairwise_distances,
    select_clusters,
)
from .core import (
    TWO_PI,
    PhaseStack,
    circular_aperture,
    detect_residues,
    residue_count,
    wrap,
)
from .pipeline import (
    ComparisonReport,
    PipelineParams,
    SurfaceReport,
    compare,
    run_clustered,
    run_conventional,
    snr_from_min_fraction,
)
from .preprocess import piston_shift, prepare_for_clustering
from .synth import (
    CONTAMINANT,
    TrialSpec,
    add_awgn,
    four_bucket_demodulate,
    four_bucket_patterns,
    make_trial,
    noise_sigma,
    peaks_surface,
)
from .unwrap import (
    BranchCutMap,
    Surface,
    flood_unwrap,
    place_branch_cuts,
    unwrap,
)
from .wphs import StackFormatError, read_stack, write_report, write_stack
from .zernike import (
    DEFAULT_WAVELENGTH_NM,
    ZernikeFit,
    phase_to_height,
    rmse,
    zernike_fit_remove,
)

__all__ = [
    "RESULTANT_EPS",
    "circular_mean_frame",
    "circular_mean_rows",
    "ClusterSet",
    "Dendrogram",
    "NoClusterError",
    "agglomerate",
    "min_samples_from_fraction",
    "pairwise_distances",
    "select_clusters",
    "TWO_PI",
    "PhaseStack",
    "circular_aperture",
    "detect_residues",
    "residue_count",
    "wrap",
    "ComparisonReport",
    "PipelineParams",
    "SurfaceReport",
    "compare",
    "run_clustered",
    "run_conventional",
    "snr_from_min_fraction",
    "piston_shift",
    "prepare_for_clustering",
    "CONTAMINANT",
    "TrialSpec",
    "add_awgn",
    "four_bucket_demodulate",
    "four_bucket_patterns",
    "make_trial",
    "noise_sigma",
    "peaks_surface",
    "BranchCutMap",
    "Surface",
    "flood_unwrap",
    "place_branch_cuts",
    "unwrap",
    "StackFormatError",
    "read_stack",
    "write_report",
    "write_stack",
    "DEFAULT_WAVELENGTH_NM",
    "ZernikeFit",
    "phase_to_height",
    "rmse",
    "zernike_fit_remove",
]

__version__ = "0.1.0"
