"""Stack-holding benchmark: time and traced peak memory of read, preprocess,
classify and denoise, for this tree and for another one (such as the parent
commit).

Builds perfbench's cluster-n1000 recipe (``harness.trial``: the 128x128
peaks surface, two tilt families with 30 rad jitter, 3% contaminants,
20 dB, seed 0) at N = 500, 1000 and 2000 frames and writes each as one
WPHS file, which both trees then read.  Each N is measured in ``ROUNDS``
rounds of fresh processes, one per tree, whose ``PYTHONPATH`` is that
tree's ``src``; the trees alternate which runs first, so that a slow spell
of the machine falls on both.  Per layer it records:

- ``read``: ``read_stack(path)``
- ``preprocess``: ``prepare_for_clustering(frames, mask, 1, anchor)``
- ``classify``: ``agglomerate(pairwise_distances(pooled, pooled_mask))`` on
  the pooled stack, which the harness holds
- ``denoise``: ``circular_mean_rows`` over every chosen cluster, called as
  ``run_clustered`` calls it
- ``clustered``: ``read_stack`` then ``run_clustered``, the chain perfbench
  times

Each ``*_s`` is [q1, median, q3] of the ``REPEATS`` calls of every round.
Each ``*_peak_mb`` is [q1, median, q3] over the rounds of the tracemalloc
peak of one more call, traced on its own because tracing slows numpy's
allocations; it counts what the call allocates, not the stack it is given.
The process's peak RSS is not recorded: each worker holds the stack, the
pooled stack and ``d`` around the calls it times, so it reads the same for
both trees.  ``pooled_sha256``, ``d_sha256``, ``merges_sha256`` and
``denoised_sha256`` hash the pooled stack, the distance matrix, the merge
list and the denoised frames; ``outputs_equal_across_trees`` says whether
every hash of one N is the same in every round of both trees.

Run from the repository root, with the ``src`` of the tree to compare with,
labelled ``parent`` (for example a ``git archive`` of the parent commit):

    PYTHONPATH=src python tools/bench_stack.py --other PATH/src [--out BENCH_stack.json]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import tracemalloc
from pathlib import Path

import harness
from harness import call_s

SIZES = (500, 1000, 2000)
GRID = 128
REPEATS = 5
ROUNDS = 3
LAYERS = ("read", "preprocess", "classify", "denoise", "clustered")
TIMES = tuple(f"{layer}_s" for layer in LAYERS)
PEAKS = tuple(f"{layer}_peak_mb" for layer in LAYERS)
HERE = Path(__file__).resolve()


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
    out = {
        "read_s": call_s(lambda: read_stack(path), REPEATS),
        "read_peak_mb": peak_mb(lambda: read_stack(path)),
    }
    stack = read_stack(path)
    out["frames_dtype"] = str(stack.frames.dtype)
    anchor = center_pixel(stack.shape)  # the recipe's mask is full

    def prepare():
        return prepare_for_clustering(stack.frames, stack.mask, params.pool_levels, anchor)

    out["preprocess_s"] = call_s(prepare, REPEATS)
    out["preprocess_peak_mb"] = peak_mb(prepare)
    pooled, pooled_mask = prepare()
    out["pooled_sha256"] = harness.sha256_of([pooled])

    def classify():
        return agglomerate(pairwise_distances(pooled, pooled_mask))

    out["classify_s"] = call_s(classify, REPEATS)
    out["classify_peak_mb"] = peak_mb(classify)
    d = pairwise_distances(pooled, pooled_mask)
    dendrogram = agglomerate(d)
    out["d_sha256"] = harness.sha256_of([d])
    out["merges_sha256"] = harness.sha256_of([repr(dendrogram.merges).encode()])
    chosen = select_clusters(dendrogram, params.cut, params.resolve_min_samples(len(stack))).chosen
    del pooled, d, dendrogram

    def denoise():
        return [circular_mean_rows(stack.frames, rows, stack.mask, anchor) for rows in chosen]

    out["cluster_sizes"] = [len(rows) for rows in chosen]
    out["denoise_s"] = call_s(denoise, REPEATS)
    out["denoise_peak_mb"] = peak_mb(denoise)
    out["denoised_sha256"] = harness.sha256_of(mean for mean, _, _ in denoise())
    del stack
    out["clustered_s"] = call_s(lambda: run_clustered(read_stack(path), params), REPEATS)
    out["clustered_peak_mb"] = peak_mb(lambda: run_clustered(read_stack(path), params))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", default="BENCH_stack.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return
    from phasestack.wphs import write_stack

    trees = harness.trees(args.other)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stack.wphs"
        for i, n in enumerate(SIZES):
            write_stack(harness.trial("cluster-n1000", frames=n), path)
            results = harness.alternate(
                trees, lambda name, src: harness.run_tree(src, [HERE, "--worker", path]), ROUNDS, i, {"n": n}
            )
            equal = harness.outputs_equal(results)
            for name, r in results.items():
                row = harness.merge_rounds(r, TIMES, PEAKS)
                runs.append({"tree": name, "n": n, **row, "outputs_equal_across_trees": equal})
    harness.write_json(args.out, {
        "benchmark": "stack holding: read, preprocess, classify and denoise, time and traced peak",
        "recipe": f"cluster-n1000 at N = {SIZES} ({GRID}x{GRID}, 2 families, 3% contaminants, 20 dB, seed 0)",
        "repeats": REPEATS,
        "environment": harness.environment(blas_threads=1),
        "runs": runs,
    })


if __name__ == "__main__":
    main()
