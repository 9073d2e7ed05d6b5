"""Measurement chain, output checks and metrics of one benchmark run.

One measurement does what ``phasestack run`` / ``phasestack conventional``
do: read_stack -> run_clustered or run_conventional -> SurfaceReport.to_dict
-> write_report, timed from before read_stack until the report is written.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from phasestack import CONTAMINANT, PipelineParams, pipeline, read_stack, write_report, zernike_fit_remove
import speed
from spans import Tracer
from workloads import Workload

PARAMS = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)

# Untraced measurements per run at least, even when --seconds has passed.
MIN_UNTRACED = {False: 2, True: 2}

# Span names reported as "<name>.s" by a traced run.
SPAN_METRICS = (
    "wphs.read_stack",
    "wphs.write_report",
    "preprocess.prepare_for_clustering",
    "cluster.pairwise_distances",
    "cluster.agglomerate",
    "cluster.select_clusters",
    "circular.circular_mean_frame",
    "core.detect_residues",
    "unwrap.place_branch_cuts",
    "unwrap.flood_unwrap",
    "zernike.zernike_fit_remove",
)
# Counts reported as they are by a traced run, with their units.
COUNT_METRICS = {
    "wphs.read_stack.peak_mb": "MB",
    "preprocess.px": "px",
    "cluster.pairs": "pairs",
    "cluster.chosen": "clusters",
    "cluster.abandoned": "frames",
    "circular.frames_averaged": "frames",
    "core.residues": "residues",
    "unwrap.cut_edges": "edges",
    "unwrap.calls": "calls",
    "zernike.fits": "fits",
}


@dataclass
class Inputs:
    stack_path: Path
    report_path: Path
    truth: np.ndarray
    labels: np.ndarray

    @classmethod
    def load(cls, work_dir) -> "Inputs":
        work = Path(work_dir)
        with np.load(work / "truth.npz") as data:
            truth, labels = data["truth"], data["labels"]
        return cls(work / "stack.wphs", work / "report.json", truth, labels)


@dataclass
class Outcome:
    """Checked output of one measurement."""

    surface_err_rad: float
    label_agreement_frac: float
    digest: str | None  # None when the warm-up raised
    problems: list


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    tracer: Tracer | None = None


def measure_once(w: Workload, inputs: Inputs, seed: int, tracer: Tracer | None = None):
    """One timed measurement; returns (seconds, report)."""
    route = getattr(pipeline, f"run_{w.route}")
    if tracer is None:
        t0 = time.perf_counter()
        report = route(read_stack(inputs.stack_path), PARAMS)
        write_report(report.to_dict(params=PARAMS, seed=seed), inputs.report_path)
        return time.perf_counter() - t0, report

    t0 = time.perf_counter()
    with tracer.span("measurement"):
        with tracer.span("wphs.read_stack"):
            tracemalloc.start()
            try:
                stack = read_stack(inputs.stack_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        with tracer.patched(), tracer.span(f"pipeline.{route.__name__}"):
            report = route(stack, PARAMS)
        with tracer.span("pipeline.to_dict"):
            doc = report.to_dict(params=PARAMS, seed=seed)
        with tracer.span("wphs.write_report"):
            write_report(doc, inputs.report_path)
    seconds = time.perf_counter() - t0
    tracer.count("wphs.read_stack.peak_mb", peak / 2**20)
    return seconds, report


def check(w: Workload, inputs: Inputs, report, reference_digest: str | None = None) -> Outcome:
    """Compare a report with the truth; problems lists every failed check."""
    surface = report.surface
    expected, _ = zernike_fit_remove(inputs.truth, surface.mask)
    d = (surface.values - expected)[surface.mask]
    err = float(np.sqrt(np.mean((d - d.mean()) ** 2)))
    contaminants = set(np.flatnonzero(inputs.labels == CONTAMINANT).tolist())
    disagree = len(contaminants.symmetric_difference(report.abandoned_frames))
    digest = hashlib.sha256(surface.values.tobytes() + surface.mask.tobytes()).hexdigest()
    # one unwrap per chosen cluster; the conventional route reports its
    # kept frames as its single "chosen" size
    unwraps = len(report.chosen_sizes) if w.route == "clustered" else report.chosen_sizes[0]

    problems = []
    if not err <= w.max_err_rad:
        problems.append(f"surface_err_rad {err:.6g} exceeds {w.max_err_rad}")
    if report.unwrap_call_count != unwraps:
        problems.append(f"unwrap_call_count {report.unwrap_call_count}, expected {unwraps}")
    if w.exact_abandon and disagree:
        problems.append(f"{disagree} frames where abandoned != contaminant")
    if reference_digest is not None and digest != reference_digest:
        problems.append("output surface differs from the warm-up measurement's")
    return Outcome(err, 1.0 - disagree / report.frame_count, digest, problems)


def warm_up(w: Workload, inputs: Inputs, seed: int) -> Outcome:
    """Untimed first measurement; its checked output is the run's reference.

    A warm-up that raises gives a reference with no digest and one problem.
    """
    try:
        _, report = measure_once(w, inputs, seed)
    except Exception:
        traceback.print_exc()
        return Outcome(float("nan"), float("nan"), None, ["warm-up measurement raised"])
    return check(w, inputs, report)


def measure(
    w: Workload, inputs: Inputs, seed: int, seconds: float, trace: bool, reference: Outcome
) -> RunResult:
    """Measure until `seconds` have passed and the minimum counts are met.

    A traced run alternates untraced and traced measurements, so both see
    the same machine state; an untraced run measures with no tracer at all.
    A run of ``speed.kernel`` follows each measurement, and one precedes the
    first; a measurement's time at the reference speed divides by the mean
    of the two kernel times around it.
    A measurement that raises or fails a check counts in `failed`; when no
    measurement of a kind passed, the result has no metrics.
    """
    tracer = Tracer() if trace else None
    times = {False: [], True: []}  # traced? -> wall seconds of passed measurements
    ref_times = {False: [], True: []}  # the same, at the reference speed
    attempts = {False: 0, True: 0}
    traced_ids = []
    failed = int(bool(reference.problems))
    for line in reference.problems:
        print(f"warm-up check failed: {line}", file=sys.stderr)
    speed.kernel()  # untimed, so the first timed kernel runs warm
    kernel_times = [speed.kernel_seconds()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        enough = attempts[False] >= MIN_UNTRACED[trace] and (attempts[True] >= 1 or not trace)
        if enough and time.perf_counter() >= deadline:
            break
        traced = trace and i % 2 == 1
        i += 1
        attempts[traced] += 1
        if traced:
            tracer.measurement = i
        try:
            seconds_taken, report = measure_once(w, inputs, seed, tracer if traced else None)
            problems = check(w, inputs, report, reference.digest).problems
        except Exception:  # a measurement that raises counts as failed; keep measuring
            traceback.print_exc()
            problems = ["measurement raised"]
        kernel_times.append(speed.kernel_seconds())
        if problems:
            for line in problems:
                print(f"check failed: {line}", file=sys.stderr)
            failed += 1
            continue
        times[traced].append(seconds_taken)
        ref_times[traced].append(seconds_taken * speed.REFERENCE_S / statistics.mean(kernel_times[-2:]))
        if traced:
            traced_ids.append(i)

    attempted = 1 + attempts[False] + attempts[True]
    if reference.digest is None or not times[False] or (trace and not times[True]):
        # Nothing passed to take a median of: report the failures alone.
        return RunResult(attempted, failed, {}, tracer)
    untraced_ref_s = statistics.median(ref_times[False])
    if trace:
        metrics = layer_metrics(tracer, traced_ids)
        metrics["trace.measure_s"] = (statistics.median(times[True]), "s")
        metrics["measure_wall_s"] = (statistics.median(times[False]), "s")
        metrics["speed.kernel_s"] = (statistics.median(kernel_times), "s")
        metrics["tracing_overhead_frac"] = (statistics.median(ref_times[True]) / untraced_ref_s - 1.0, "ratio")
    else:
        metrics = {
            "measure_ref_s": (untraced_ref_s, "s"),
            "frames_per_ref_s": (w.frames / untraced_ref_s, "frames/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "surface_err_rad": (reference.surface_err_rad, "rad"),
            "label_agreement_frac": (reference.label_agreement_frac, "ratio"),
        }
    return RunResult(attempted, failed, metrics, tracer)


def layer_metrics(tracer: Tracer, traced_ids: list) -> dict:
    """Per-layer medians over the passed traced measurements."""
    rows = []
    for measurement in traced_ids:
        self_s = tracer.self_times(measurement)
        counts = tracer.counts[measurement]
        row = {f"{name}.s": self_s.get(name, 0.0) for name in SPAN_METRICS}
        row["pipeline.self.s"] = sum(v for k, v in self_s.items() if k.startswith("pipeline."))
        row.update({name: counts.get(name, 0.0) for name in COUNT_METRICS})
        row["unwrap.reached_frac"] = counts["unwrap.reached_px"] / counts["unwrap.valid_px"]
        rows.append(row)
    units = {name: "s" for name in rows[0]}
    units.update(COUNT_METRICS)
    units["unwrap.reached_frac"] = "ratio"
    return {name: (statistics.median(r[name] for r in rows), units[name]) for name in rows[0]}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }
