"""Denoise-layer benchmark: ``circular_mean_rows`` against its oracle, for
this tree and for another one (such as the parent commit).

Builds perfbench's cluster-n1000 recipe (``harness.trial``: 1000 frames of
the 128x128 peaks surface, two tilt families with 30 rad jitter, 3%
contaminants, seed 0) at 20 and 5 dB, writes it as one WPHS file, which
both trees read back as the float32 stack the pipeline denoises, and
classifies it as ``run_clustered`` does with ``PipelineParams(cut=0.5,
min_fraction=0.04)``.  Each chosen cluster is measured in ``ROUNDS``
rounds of fresh processes, one per tree, whose ``PYTHONPATH`` is that
tree's ``src``; the trees alternate which runs first, so that a slow spell
of the machine falls on both.  Per (cluster, tree) it records:

- ``oracle_s``: ``REPEATS`` calls a round of ``circular_mean_frame(
  piston_shift(frames[rows], mask, anchor), mask)``, the float64 oracle
  with its gather
- ``rows_s``: ``REPEATS`` calls a round of ``circular_mean_rows(frames,
  rows, mask, anchor)``, the kernel the pipeline calls (the calls
  alternate with the oracle's)
- the largest wrapped |mean difference| where both means are defined, the
  largest |resultant difference|, and the count of ``out_mask`` pixels on
  which the two disagree
- ``outputs_sha256`` of the kernel's three outputs, and
  ``outputs_equal_across_trees``: whether it is the same in every round of
  both trees

Each ``*_s`` is [q1, median, q3] over every call of every round.  The
totals add the medians over the clusters, per tree.

Run from the repository root, optionally with the ``src`` of the tree to
compare with, labelled ``parent`` (for example a ``git archive`` of the
parent commit):

    PYTHONPATH=src python tools/bench_denoise.py [--other PATH/src] [--out BENCH_denoise.json]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

import harness

SNRS_DB = (20.0, 5.0)
REPEATS = 7
ROUNDS = 3
# circular_mean_rows' stated bound on the mean-vector error (its docstring)
DELTA = 3.2e-7
HERE = Path(__file__).resolve()


def clusters(path: str) -> list:
    """The chosen clusters of the stack at ``path``, as the pipeline
    classifies it."""
    from phasestack.cluster import agglomerate, pairwise_distances, select_clusters
    from phasestack.pipeline import PipelineParams
    from phasestack.preprocess import center_pixel, prepare_for_clustering
    from phasestack.wphs import read_stack

    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    stack = read_stack(path)
    # the recipe's mask is full, so the pipeline's anchor is the center pixel
    pooled, pooled_mask = prepare_for_clustering(
        stack.frames, stack.mask, params.pool_levels, center_pixel(stack.shape)
    )
    dendrogram = agglomerate(pairwise_distances(pooled, pooled_mask))
    return select_clusters(dendrogram, params.cut, params.resolve_min_samples(len(stack))).chosen


def worker(path: str, rows: list) -> dict:
    """The measurements of one cluster in the tree on the import path."""
    from phasestack import core
    from phasestack.circular import circular_mean_frame, circular_mean_rows
    from phasestack.core import wrap
    from phasestack.preprocess import center_pixel, piston_shift
    from phasestack.wphs import read_stack

    stack = read_stack(path)
    frames, mask = stack.frames, stack.mask
    anchor = center_pixel(stack.shape)
    oracle_t, rows_t = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        want = circular_mean_frame(piston_shift(frames[rows], mask, anchor), mask)
        t1 = time.perf_counter()
        got = circular_mean_rows(frames, rows, mask, anchor)
        t2 = time.perf_counter()
        oracle_t.append(t1 - t0)
        rows_t.append(t2 - t1)
    (mean, resultant, out_mask), (o_mean, o_resultant, o_mask) = got, want
    both = out_mask & o_mask
    return {
        "workers": core.WORKERS,
        "oracle_s": oracle_t,
        "rows_s": rows_t,
        "max_abs_dmean_rad": float(np.abs(wrap(mean[both] - o_mean[both])).max(initial=0.0)),
        "max_abs_dresultant": float(np.abs(resultant - o_resultant)[mask].max()),
        "out_mask_disagreements": int(np.count_nonzero(out_mask != o_mask)),
        "min_oracle_resultant": float(o_resultant[mask].min()),
        "outputs_sha256": harness.sha256_of(got),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", default="BENCH_denoise.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--rows", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, [int(r) for r in args.rows.split(",")])))
        return
    from phasestack.wphs import write_stack

    trees = harness.trees(args.other)
    results, job = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stack.wphs"
        for snr_db in SNRS_DB:
            write_stack(harness.trial("cluster-n1000", snr_db=snr_db), path)
            for rows in clusters(path):
                argv = [HERE, "--worker", path, "--rows", ",".join(map(str, rows))]
                label = {"snr_db": snr_db, "cluster_size": len(rows)}
                runs = harness.alternate(trees, lambda name, src: harness.run_tree(src, argv), ROUNDS, job, label)
                equal = harness.outputs_equal(runs)
                for name, r in runs.items():
                    row = harness.merge_rounds(r, ("oracle_s", "rows_s"))
                    results.append({"tree": name, **label, **row, "outputs_equal_across_trees": equal})
                job += 1
    totals = {}
    for name, _ in trees:
        mine = [r for r in results if r["tree"] == name]
        totals[name] = {
            "oracle_s": sum(r["oracle_s"][1] for r in mine),
            "rows_s": sum(r["rows_s"][1] for r in mine),
            "max_abs_dmean_rad": max(r["max_abs_dmean_rad"] for r in mine),
            "max_abs_dresultant": max(r["max_abs_dresultant"] for r in mine),
            "out_mask_disagreements": sum(r["out_mask_disagreements"] for r in mine),
        }
    if len(trees) == 2:
        totals["rows_s_change_over_parent"] = totals["change"]["rows_s"] / totals["parent"]["rows_s"]
    harness.write_json(args.out, {
        "benchmark": "denoise: circular_mean_rows vs circular_mean_frame with its gather",
        "recipe": "cluster-n1000 (1000 x 128x128, 2 families, 3% contaminants, seed 0), "
                  "read back from WPHS as float32",
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "times": "[q1, median, q3] over every call of every round, s; totals add the medians",
        "delta_bound": DELTA,
        "environment": harness.environment(blas_threads="1"),
        "totals": totals,
        "clusters": results,
    })


if __name__ == "__main__":
    main()
