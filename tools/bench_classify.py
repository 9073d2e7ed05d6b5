"""Classify benchmark: time, page faults and output hashes of
``pairwise_distances`` and ``agglomerate``, for this tree and for another one
(such as the parent commit).

Builds perfbench's cluster-n1000 recipe (``harness.trial``: the 128x128
peaks surface, two tilt families with 30 rad jitter, 3% contaminants,
20 dB, seed 0) at N = 500, 1000 and 2000 frames and writes each as one
WPHS file, which both trees read and pool with ``prepare_for_clustering``.
Each (N, BLAS setting) is measured in ``ROUNDS`` rounds of fresh
processes, one per tree, whose ``PYTHONPATH`` is that tree's ``src``; the
trees alternate which runs first, so that a slow spell of the machine
falls on both.  BLAS runs with one thread (``OPENBLAS_NUM_THREADS=1``, as
perfbench sets it) and at OpenBLAS's default (one thread per CPU).  Per
(N, BLAS setting, tree) it records:

- ``pairwise_s`` and ``agglomerate_s``: the tree's own functions
- ``pairwise_peak_mb``: the tracemalloc peak of one ``pairwise_distances``
  call, and ``copies_stack``: whether that peak exceeds d plus half the
  pooled stack, as it does in a tree that gathers the valid pixels into an
  (N, P) copy even when every pixel is valid
- the steps of ``pairwise_distances``, re-enacted here in the tree's
  layout (one whole matrix, or the 128-row panels of a tree whose
  ``cluster`` has ``_PANEL_ROWS``, each step on ``core.WORKERS`` threads
  and finished before the next starts): ``compress_s`` (gather of the
  valid pixels; only where the tree copies, else the panels read the
  pooled stack in place), ``gram_s`` (the Gram products),
  ``elementwise_s`` (norms, clamp, triangle, near-duplicate test and
  recompute, sqrt, scale) and ``mirror_s`` (``d + d.T``, or each panel's
  transposed copy)
- ``minflt``: minor page faults of each ``pairwise_distances`` call made
  right after a ``prepare_for_clustering`` (whose worker threads leave
  their arenas behind), as the pipeline calls it
- ``d_sha256`` and ``merges_sha256``

Each ``*_s`` is [q1, median, q3] of the ``REPEATS`` calls of every round,
``minflt`` the same of its counts, and ``pairwise_peak_mb`` [q1, median,
q3] over the rounds.  ``outputs_equal_across_trees`` says whether both
hashes of one (N, BLAS setting) are the same in every round of both
trees; each row's ``d`` and merge list are also checked against
``tests/cluster_reference.py`` (``pdist`` within the tests' 1e-12
relative bound; the full-rescan linkage exactly).

Run from the repository root, with the ``src`` of the tree to compare with,
labelled ``parent`` (for example a ``git archive`` of the parent commit):

    PYTHONPATH=src python tools/bench_classify.py --other PATH/src [--out BENCH_classify.json]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import harness
from harness import call_s

SIZES = (500, 1000, 2000)
GRID = 128
REPEATS = 5
ROUNDS = 3
BLAS_SETTINGS = ("1", "default")
STEPS = ("pairwise_s", "agglomerate_s", "compress_s", "gram_s", "elementwise_s", "mirror_s")
HERE = Path(__file__).resolve()


def step_times(pooled, mask, cluster, core, copies: bool) -> dict:
    """Times of ``REPEATS`` calls of each step of pairwise_distances in the
    tree's layout."""
    n, scale, rel = len(pooled), math.sqrt(int(mask.sum())), cluster._NEAR_REL
    x = pooled.reshape(n, -1)
    out = {}
    if copies:
        x = x.compress(mask.ravel(), axis=1)
        out["compress_s"] = call_s(lambda: pooled.reshape(n, -1).compress(mask.ravel(), axis=1), REPEATS)
    sq = np.einsum("ij,ij->i", x, x)

    def near_recompute(d2, near, lo):
        for r in np.flatnonzero(near.any(axis=1)):
            js = np.flatnonzero(near[r])
            diff = x[lo + js] - x[lo + r]
            d2[r, js] = np.einsum("ij,ij->i", diff, diff)

    rows = getattr(cluster, "_PANEL_ROWS", None)
    if rows is None:  # one whole matrix
        g = x @ x.T
        d = np.empty((n, n))

        def elementwise():
            norms = sq[:, None] + sq[None, :]
            d2 = np.triu(np.maximum(norms - 2.0 * g, 0.0), 1)
            near_recompute(d2, np.triu(d2 <= rel * norms, 1), 0)
            d[...] = np.sqrt(d2) / scale

        out["gram_s"] = call_s(lambda: x @ x.T, REPEATS)
        out["elementwise_s"] = call_s(elementwise, REPEATS)
        out["mirror_s"] = call_s(lambda: d + d.T, REPEATS)
        return out

    starts = range(0, n, rows)
    lower = np.tri(rows, dtype=bool)
    d = np.empty((n, n))

    def each(fn):
        with ThreadPoolExecutor(min(core.WORKERS, len(starts))) as pool:
            list(pool.map(fn, starts))

    def gram(lo):
        np.matmul(x[lo : lo + rows], x[lo:].T, out=d[lo : lo + rows, lo:])

    def elementwise(lo):
        hi = min(lo + rows, n)
        h, d2 = hi - lo, d[lo:hi, lo:]
        norms = sq[lo:hi, None] + sq[None, lo:]
        np.maximum(norms - 2.0 * d2, 0.0, out=d2)
        d2[:, :h][lower[:h, :h]] = 0.0
        near = d2 <= rel * norms
        near[:, :h][lower[:h, :h]] = False
        near_recompute(d2, near, lo)
        np.sqrt(d2, out=d2)
        np.divide(d2, scale, out=d2)

    def mirror(lo):
        hi = min(lo + rows, n)
        block = d[lo:hi, lo:hi]
        block += block.T
        d[hi:, lo:hi] = d[lo:hi, hi:].T

    def timed_gram():
        each(gram)

    def timed_elementwise():
        each(gram)  # elementwise works in place on the Gram entries
        t0 = time.perf_counter()
        each(elementwise)
        return time.perf_counter() - t0

    def timed_mirror():
        each(gram)
        each(elementwise)
        t0 = time.perf_counter()
        each(mirror)
        return time.perf_counter() - t0

    out["gram_s"] = call_s(timed_gram, REPEATS)
    out["elementwise_s"] = [timed_elementwise() for _ in range(REPEATS)]
    out["mirror_s"] = [timed_mirror() for _ in range(REPEATS)]
    return out


def worker(path: str, save: str) -> dict:
    """The measurements of one tree, the one on the import path."""
    from phasestack import cluster, core
    from phasestack.preprocess import center_pixel, prepare_for_clustering
    from phasestack.wphs import read_stack

    stack = read_stack(path)
    anchor = center_pixel(stack.shape)  # the recipe's mask is full

    def prepare():
        return prepare_for_clustering(stack.frames, stack.mask, 1, anchor)[-2:]

    pooled, mask = prepare()
    tracemalloc.start()
    try:
        d = cluster.pairwise_distances(pooled, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    copies = peak > d.nbytes + pooled.nbytes / 2
    merges = cluster.agglomerate(d).merges
    np.save(save + ".npy", d)
    with open(save + ".json", "w", encoding="utf-8") as fh:
        json.dump(merges, fh)
    out = {
        "d_sha256": harness.sha256_of([d]),
        "merges_sha256": harness.sha256_of([repr(merges).encode()]),
        "workers": core.WORKERS,
        "panel_rows": getattr(cluster, "_PANEL_ROWS", None),
        "pairwise_peak_mb": peak / 2**20,
        "copies_stack": copies,
        "pairwise_s": call_s(lambda: cluster.pairwise_distances(pooled, mask), REPEATS),
        "agglomerate_s": call_s(lambda: cluster.agglomerate(d), REPEATS),
        **step_times(pooled, mask, cluster, core, copies),
    }
    faults = []
    for _ in range(REPEATS):
        pooled, mask = prepare()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cluster.pairwise_distances(pooled, mask)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    out["minflt"] = faults
    return out


def compare(runs: list, tmp: Path, path: Path) -> dict:
    """Each run's outputs against the parent's and the test references."""
    sys.path.insert(0, str(harness.ROOT / "tests"))
    from cluster_reference import agglomerate_reference, pairwise_distances_reference

    from phasestack.preprocess import center_pixel, prepare_for_clustering
    from phasestack.wphs import read_stack

    stack = read_stack(path)
    pooled, mask = prepare_for_clustering(stack.frames, stack.mask, 1, center_pixel(stack.shape))[-2:]
    ref_d = pairwise_distances_reference(pooled, mask)
    ref_merges, out = {}, {}
    for row in runs:
        d = np.load(tmp / f"{row['save']}.npy")
        with open(tmp / f"{row['save']}.json", encoding="utf-8") as fh:
            merges = json.load(fh)
        if row["d_sha256"] not in ref_merges:  # the linkage of this very d
            ref_merges[row["d_sha256"]] = [list(m) for m in agglomerate_reference(d).merges]
        rel = np.abs(d - ref_d) / np.where(ref_d > 0, ref_d, 1.0)
        out[row["save"]] = {
            "d_max_rel_err_vs_pdist": float(rel.max()),
            "d_within_1e-12_of_pdist": bool(np.all(np.abs(d - ref_d) <= 1e-12 * ref_d)),
            "merges_equal_full_rescan": merges == ref_merges[row["d_sha256"]],
        }
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", default="BENCH_classify.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--save", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.save)))
        return
    from phasestack.wphs import write_stack

    trees = harness.trees(args.other)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "stack.wphs"
        for i, n in enumerate(SIZES):
            write_stack(harness.trial("cluster-n1000", frames=n), path)
            rows = []
            for j, blas in enumerate(BLAS_SETTINGS):

                def run(name, src):
                    save = f"{name}-n{n}-blas{blas}"
                    argv = [HERE, "--worker", path, "--save", tmp / save]
                    return {"save": save, **harness.run_tree(src, argv, blas)}

                job = {"n": n, "blas_threads": blas}
                results = harness.alternate(trees, run, ROUNDS, len(BLAS_SETTINGS) * i + j, job)
                equal = harness.outputs_equal(results)
                for name, r in results.items():
                    steps = [key for key in STEPS if key in r[0]]
                    row = harness.merge_rounds(r, (*steps, "minflt"), ("pairwise_peak_mb",))
                    rows.append({"tree": name, **job, **row, "outputs_equal_across_trees": equal})
            checks = compare(rows, tmp, path)
            for row in rows:
                row.update(checks[row.pop("save")])
            runs += rows
    harness.write_json(args.out, {
        "benchmark": "classify: pairwise_distances and agglomerate, time, page faults and output equality",
        "recipe": f"cluster-n1000 at N = {SIZES} ({GRID}x{GRID}, 2 families, 3% contaminants, 20 dB, seed 0)",
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "environment": harness.environment(
            blas_threads="1 (OPENBLAS_NUM_THREADS=1) or default (unset: one per CPU)"
        ),
        "runs": runs,
    })


if __name__ == "__main__":
    main()
