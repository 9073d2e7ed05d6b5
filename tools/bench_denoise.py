"""Denoise-layer benchmark: ``circular_mean_rows`` against its oracle.

Builds perfbench's cluster-n1000 recipe (1000 frames of the 128x128 peaks
surface, two tilt families with 30 rad jitter, 3% contaminants, seed 0) at
20 and 5 dB, piston-shifts and classifies it as ``run_clustered`` does with
``PipelineParams(cut=0.5, min_fraction=0.04)``, and for each chosen cluster
records:

- ``oracle_s``: median of 7 calls of ``circular_mean_frame(shifted[rows],
  mask)``, the float64 kernel the pipeline used to call, with its gather
- ``rows_s``: median of 7 calls of ``circular_mean_rows(shifted, rows,
  mask)``, the float32 kernel it calls now (the calls alternate)
- the largest wrapped |mean difference| where both means are defined, the
  largest |resultant difference|, and the count of ``out_mask`` pixels on
  which the two disagree

and writes them to ``BENCH_denoise.json``.

Run from the repository root:

    PYTHONPATH=src python tools/bench_denoise.py [--out BENCH_denoise.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from phasestack import core
from phasestack.circular import circular_mean_frame, circular_mean_rows
from phasestack.cluster import agglomerate, pairwise_distances, select_clusters
from phasestack.core import wrap
from phasestack.pipeline import PipelineParams
from phasestack.preprocess import center_pixel, prepare_for_clustering
from phasestack.synth import TrialSpec, make_trial, peaks_surface

PARAMS = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
SNRS_DB = (20.0, 5.0)
REPEATS = 7
# circular_mean_rows' stated bound on the mean-vector error (its docstring)
DELTA = 3.2e-7


def clusters(snr_db: float):
    """Piston-shifted stack, mask and chosen clusters of the recipe."""
    spec = TrialSpec(
        frame_count=1000, grid=128, snr_db=snr_db, perturbation_count=2,
        contaminant_fraction=0.03, tilt_jitter=30.0, seed=0,
    )
    stack, _ = make_trial(peaks_surface(128, 37.82), spec)
    # the recipe's mask is full, so the pipeline's anchor is the center pixel
    shifted, pooled, pooled_mask = prepare_for_clustering(
        stack.frames, stack.mask, PARAMS.pool_levels, center_pixel(stack.shape)
    )
    dendrogram = agglomerate(pairwise_distances(pooled, pooled_mask))
    chosen = select_clusters(dendrogram, PARAMS.cut, PARAMS.resolve_min_samples(len(stack)))
    return shifted, stack.mask, chosen.chosen


def compare(shifted, mask, rows) -> dict:
    oracle_t, rows_t = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        want = circular_mean_frame(shifted[rows], mask)
        t1 = time.perf_counter()
        got = circular_mean_rows(shifted, rows, mask)
        t2 = time.perf_counter()
        oracle_t.append(t1 - t0)
        rows_t.append(t2 - t1)
    (mean, resultant, out_mask), (o_mean, o_resultant, o_mask) = got, want
    both = out_mask & o_mask
    oracle_s, rows_s = statistics.median(oracle_t), statistics.median(rows_t)
    return {
        "cluster_size": len(rows),
        "oracle_s": oracle_s,
        "rows_s": rows_s,
        "speedup": oracle_s / rows_s,
        "max_abs_dmean_rad": float(np.abs(wrap(mean[both] - o_mean[both])).max(initial=0.0)),
        "max_abs_dresultant": float(np.abs(resultant - o_resultant)[mask].max()),
        "out_mask_disagreements": int(np.count_nonzero(out_mask != o_mask)),
        "min_oracle_resultant": float(o_resultant[mask].min()),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_denoise.json")
    args = parser.parse_args(argv)
    results = []
    for snr_db in SNRS_DB:
        shifted, mask, chosen = clusters(snr_db)
        for rows in chosen:
            row = {"snr_db": snr_db, **compare(shifted, mask, rows)}
            results.append(row)
            print(json.dumps(row))
        del shifted
    doc = {
        "benchmark": "denoise: circular_mean_rows vs circular_mean_frame with its gather",
        "recipe": "cluster-n1000 (1000 x 128x128, 2 families, 3% contaminants, seed 0)",
        "repeats": REPEATS,
        "delta_bound": DELTA,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "workers": core.WORKERS,
        },
        "clusters": results,
        "totals": {
            "oracle_s": sum(r["oracle_s"] for r in results),
            "rows_s": sum(r["rows_s"] for r in results),
            "max_abs_dmean_rad": max(r["max_abs_dmean_rad"] for r in results),
            "max_abs_dresultant": max(r["max_abs_dresultant"] for r in results),
            "out_mask_disagreements": sum(r["out_mask_disagreements"] for r in results),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
