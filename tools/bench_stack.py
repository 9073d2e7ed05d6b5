"""Stack-holding benchmark: time and traced peak memory of read, preprocess,
classify and denoise, for this tree and for another one (such as the parent
commit).

Builds perfbench's cluster-n1000 recipe (the 128x128 peaks surface, two tilt
families with 30 rad jitter, 3% contaminants, 20 dB, seed 0) at N = 500,
1000 and 2000 frames and writes each as one WPHS file, which both trees
then read.  Each (tree, N) is measured in a fresh process whose
``PYTHONPATH`` is that tree's ``src``; the trees alternate.  Per layer it
records:

- ``read``: ``read_stack(path)``
- ``preprocess``: ``prepare_for_clustering(frames, mask, 1, anchor)``
- ``classify``: ``agglomerate(pairwise_distances(pooled, pooled_mask))`` on
  the pooled stack, which the harness holds
- ``denoise``: ``circular_mean_rows`` over every chosen cluster, called as
  that tree's ``run_clustered`` calls it
- ``clustered``: ``read_stack`` then ``run_clustered``, the chain perfbench
  times

Each ``*_s`` is the median of ``REPEATS`` calls.  Each ``*_peak_mb`` is the
tracemalloc peak of one more call, traced on its own because tracing slows
numpy's allocations; it counts what the call allocates, not the stack it
is given.  The process's peak RSS is not recorded: each worker holds the
stack, the pooled stack and ``d`` around the calls it times, so it reads
the same for both trees.  ``pooled_sha256``, ``d_sha256``,
``merges_sha256`` and ``denoised_sha256`` hash the pooled stack, the
distance matrix, the merge list and the denoised frames;
``outputs_equal_across_trees`` says whether every hash of one N is the same
in both trees.

A tree whose ``prepare_for_clustering`` returns (shifted, pooled,
pooled_mask) held a float64 piston-shifted stack; it is denoised with
``circular_mean_rows(shifted, rows, mask)``, as its pipeline did.

Run from the repository root, with the ``src`` of the tree to compare with,
labelled ``parent`` (for example a ``git archive`` of the parent commit):

    PYTHONPATH=src python tools/bench_stack.py --other PATH/src [--out BENCH_stack.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SIZES = (500, 1000, 2000)
GRID = 128
REPEATS = 5
HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"


def write_recipe(n: int, path: Path) -> None:
    from phasestack.synth import TrialSpec, make_trial, peaks_surface
    from phasestack.wphs import write_stack

    spec = TrialSpec(
        frame_count=n, grid=GRID, snr_db=20.0, perturbation_count=2,
        contaminant_fraction=0.03, tilt_jitter=30.0, seed=0,
    )
    stack, _ = make_trial(peaks_surface(GRID, 37.82), spec)
    write_stack(stack, path)


def median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def worker(path: str) -> dict:
    """The measurements of one tree, the one on the import path."""
    from phasestack.circular import circular_mean_rows
    from phasestack.cluster import agglomerate, pairwise_distances, select_clusters
    from phasestack.pipeline import PipelineParams, run_clustered
    from phasestack.preprocess import center_pixel, prepare_for_clustering
    from phasestack.wphs import read_stack

    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    out = {"read_s": median_s(lambda: read_stack(path)), "read_peak_mb": peak_mb(lambda: read_stack(path))}
    stack = read_stack(path)
    out["frames_dtype"] = str(stack.frames.dtype)
    anchor = center_pixel(stack.shape)  # the recipe's mask is full

    def prepare():
        return prepare_for_clustering(stack.frames, stack.mask, params.pool_levels, anchor)

    out["preprocess_s"] = median_s(prepare)
    out["preprocess_peak_mb"] = peak_mb(prepare)
    prepared = prepare()
    pooled, pooled_mask = prepared[-2:]
    out["pooled_sha256"] = hashlib.sha256(pooled.tobytes()).hexdigest()

    def classify():
        return agglomerate(pairwise_distances(pooled, pooled_mask))

    out["classify_s"] = median_s(classify)
    out["classify_peak_mb"] = peak_mb(classify)
    d = pairwise_distances(pooled, pooled_mask)
    dendrogram = agglomerate(d)
    out["d_sha256"] = hashlib.sha256(d.tobytes()).hexdigest()
    out["merges_sha256"] = hashlib.sha256(repr(dendrogram.merges).encode()).hexdigest()
    chosen = select_clusters(dendrogram, params.cut, params.resolve_min_samples(len(stack))).chosen
    del pooled, d, dendrogram
    if len(prepared) == 3:  # (shifted, pooled, pooled_mask): the shifted stack is held

        def denoise():
            return [circular_mean_rows(prepared[0], rows, stack.mask) for rows in chosen]

    else:
        del prepared

        def denoise():
            return [circular_mean_rows(stack.frames, rows, stack.mask, anchor) for rows in chosen]

    out["cluster_sizes"] = [len(rows) for rows in chosen]
    out["denoise_s"] = median_s(denoise)
    out["denoise_peak_mb"] = peak_mb(denoise)
    means = b"".join(mean.tobytes() for mean, _, _ in denoise())
    out["denoised_sha256"] = hashlib.sha256(means).hexdigest()
    prepared = stack = None
    out["clustered_s"] = median_s(lambda: run_clustered(read_stack(path), params))
    out["clustered_peak_mb"] = peak_mb(lambda: run_clustered(read_stack(path), params))
    return out


def run_tree(src: Path, path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(HERE), "--worker", str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", default="BENCH_stack.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return
    trees = [("change", SRC)] + ([("parent", args.other.resolve())] if args.other else [])
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, n in enumerate(SIZES):
            path = Path(tmp) / f"n{n}.wphs"
            write_recipe(n, path)
            group = []
            for name, src in trees if i % 2 == 0 else trees[::-1]:
                row = {"tree": name, "n": n, **run_tree(src, path)}
                group.append(row)
                print(json.dumps(row), flush=True)
            hashes = [k for k in group[0] if k.endswith("sha256")]
            equal = all(r[k] == group[0][k] for r in group for k in hashes)
            for row in group:
                row["outputs_equal_across_trees"] = equal
            runs += group
            path.unlink()
    doc = {
        "benchmark": "stack holding: read, preprocess, classify and denoise, time and traced peak",
        "recipe": f"cluster-n1000 at N = {SIZES} ({GRID}x{GRID}, 2 families, 3% contaminants, 20 dB, seed 0)",
        "repeats": REPEATS,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
