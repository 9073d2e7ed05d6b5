"""Unwrap benchmark: per-frame time of each step of the conventional route
(``piston_shift``, ``check_frame``, ``detect_residues``,
``place_branch_cuts``, ``flood_unwrap``, ``zernike_fit_remove`` and the
combine), the path each frame's flood takes, and the
clustered/conventional time ratio, for this tree and for another one (such
as the parent commit).

The stacks are perfbench's recipes, built by ``harness.trial``, written
once as WPHS files and read by both trees:

- conventional-256: perfbench's workload (60 frames of the 256x256 peaks
  surface at 5 dB in a circular aperture, two tilt families with 30 rad
  jitter, no contaminants), seeds 0-9
- cluster: the cluster-n1000 recipe (128x128, 20 dB, 3% contaminants,
  seed 0) at N = 250, 500, 1000 and 2000 frames

Each (stack, tree) is measured in fresh processes whose ``PYTHONPATH`` is
that tree's ``src``; the trees alternate which runs first.  BLAS runs with
one thread, as perfbench sets it.  Two kinds of rows:

- ``flood`` (conventional-256 seeds 0-9, and the cluster stack at N = 1000
  on the conventional route, the target of ROADMAP item 3): ``ROUNDS``
  processes per tree, the trees alternating within the seed, so that a
  slow spell of the machine falls on both.  In each, every frame is
  piston-shifted to the center pixel, its residues and cuts found, its
  surface unwrapped and fitted, as ``run_conventional`` does, outside the
  timing.  Then each ``*_ms_per_frame`` holds the quartiles (q1, median,
  q3), over the ``REPEATS`` passes of every round, of a pass's time per
  frame of
  - ``shift``: ``piston_shift`` of the stored (float32) frame
  - ``check``, ``residues``, ``cuts`` and ``flood``: ``check_frame``,
    ``detect_residues``, ``place_branch_cuts`` and ``flood_unwrap`` of the
    shifted frame, its charges and its cuts
  - ``fit``: ``zernike_fit_remove`` of the unwrapped surface (piston,
    tilt and power, as the pipeline removes)
  - ``combine``: the ``combine`` stage time that ``run_conventional``
    itself reports (the running weighted mean is inline in the pipeline),
    one call of it per pass
  - ``paths``: frames integrated on the cached (kept) tree, repaired, or
    searched in full, as each tree counts them: a frame is ``repaired`` when
    ``flood_unwrap`` calls ``unwrap._repair`` and it returns a patch, and
    ``full`` when it returns None.  A tree that calls the repair only for
    orphans (pixels whose edge to their kept parent is cut) counts every
    frame with an orphan as repaired; an older tree called it only where a
    cut end lost every level-up neighbour, and patched the other cut ends
    in the cached path.  A tree without ``unwrap._repair`` searches every
    frame
  - a tree with ``unwrap.Aperture`` gets one of the stack's mask, built
    outside the timing and passed to every call, as the pipeline does
  - ``ms_per_frame_by_path``: the median frame time of each path
  - ``shifted_sha256``, ``charges_sha256``, ``cuts_sha256``,
    ``surfaces_sha256`` and ``fits_sha256``: of every frame's shifted
    frame, charges, cut maps, surface values and mask, and residual and
    coefficients, in frame order, and ``conventional_sha256`` of
    ``run_conventional``'s final surface, the same in every round
- ``ratio`` (the cluster stack at every N): ``ROUNDS`` processes per tree,
  the trees alternating as in the flood rows.  In each, after
  ``read_stack``, one untimed call of ``run_clustered`` and of
  ``run_conventional`` with ``PipelineParams(cut=0.5, min_samples=None,
  min_fraction=0.04)`` gives the unwrap stage times and the hash of each
  route's surface; then ``ROUTE_REPEATS`` timed calls of each.  The row
  holds the quartiles of ``clustered_s`` and ``conventional_s`` over every
  timed call of every round, and ``clustered_over_conventional``, the
  ratio of their medians, beside the paper's 0.77 (about 23% less time);
  the other fields are the first round's.

The summary says whether every hash is equal between the trees and gives
each flood row's quartiles per tree, and each ratio row's as ``routes``.
Single conventional-256 seeds do not resolve differences of 20-30% on a
2-vCPU machine, so ``pooled`` gives, per step and tree, the quartiles of
every pass of every round of all ten seeds, and the change/parent ratio
of their medians.

Run from the repository root, with the ``src`` of the tree to compare with,
labelled ``parent`` (for example a ``git archive`` of the parent commit):

    PYTHONPATH=src python tools/bench_unwrap.py --other PATH/src [--out BENCH_unwrap.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import harness
from harness import pass_ms, quartiles, sha256_of

CONVENTIONAL_SEEDS = range(10)
CLUSTER_SIZES = (250, 500, 1000, 2000)
FLOOD_CLUSTER_N = 1000
REPEATS = 5
ROUNDS = 3
ROUTE_REPEATS = 3
PAPER_RATIO = 0.77
ROUTE_TIMES = ("clustered_s", "conventional_s")
RATIO_TIMES = (*ROUTE_TIMES, "clustered_over_conventional")
STEPS = ("shift", "check", "residues", "cuts", "flood", "fit", "combine")
TIMES = tuple(f"{step}_ms_per_frame" for step in STEPS)
HERE = Path(__file__).resolve()


def surface_hash(surfaces) -> str:
    return sha256_of(a for s in surfaces for a in (s.values, s.mask))


def flood_worker(path: str, repeats: int) -> dict:
    """Time of every step of the conventional route, and flood paths, of
    every frame of one stack, on this tree."""
    from phasestack.core import check_frame, detect_residues
    from phasestack.pipeline import PipelineParams, run_conventional
    from phasestack.preprocess import center_pixel, piston_shift
    from phasestack.unwrap import flood_unwrap, place_branch_cuts
    from phasestack.wphs import read_stack
    from phasestack.zernike import zernike_fit_remove

    unwrap_module = sys.modules["phasestack.unwrap"]
    stack = read_stack(path)
    mask, anchor = stack.mask, center_pixel(stack.shape)
    frames = [piston_shift(f, mask, anchor) for f in stack.frames]
    charges = [detect_residues(f, mask) for f in frames]
    # a tree with unwrap.Aperture keeps the mask's facts and tree in one
    # built here; a tree without it keeps them in module caches
    aperture = getattr(unwrap_module, "Aperture", None)
    kept = {} if aperture is None else {"aperture": aperture(mask)}
    cuts = [place_branch_cuts(c, mask, **kept) for c in charges]

    real = getattr(unwrap_module, "_repair", None)
    paths = []
    if real is not None:
        def spy(*args):
            out = real(*args)
            paths[-1] = "full" if out is None else "repaired"
            return out

        unwrap_module._repair = spy
    try:
        surfaces = []
        for f, c in zip(frames, cuts):
            paths.append("cached" if real is not None else "full")
            surfaces.append(flood_unwrap(f, mask, c, anchor, **kept))
    finally:
        if real is not None:
            unwrap_module._repair = real
    fits = [zernike_fit_remove(s, **kept) for s in surfaces]

    times = [[] for _ in frames]
    for _ in range(repeats):
        for i, (f, c) in enumerate(zip(frames, cuts)):
            t0 = time.perf_counter()
            flood_unwrap(f, mask, c, anchor, **kept)
            times[i].append(time.perf_counter() - t0)
    by_path = {}
    for p, t in zip(paths, times):
        by_path.setdefault(p, []).append(statistics.median(t) * 1e3)
    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    reports = [run_conventional(stack, params) for _ in range(repeats)]
    return {
        "frames": len(frames),
        "residues": sum(int(np.count_nonzero(c)) for c in charges),
        "cut_edges": sum(c.edge_count for c in cuts),
        "shift_ms_per_frame": pass_ms(piston_shift, [(f, mask, anchor) for f in stack.frames], repeats),
        "check_ms_per_frame": pass_ms(check_frame, [(f, mask) for f in frames], repeats),
        "residues_ms_per_frame": pass_ms(detect_residues, [(f, mask) for f in frames], repeats),
        "cuts_ms_per_frame": pass_ms(lambda c: place_branch_cuts(c, mask, **kept),
                                     [(c,) for c in charges], repeats),
        "flood_ms_per_frame": [sum(t) * 1e3 / len(frames) for t in zip(*times)],
        "fit_ms_per_frame": pass_ms(lambda s: zernike_fit_remove(s, **kept),
                                    [(s,) for s in surfaces], repeats),
        "combine_ms_per_frame": [r.stage_times_ms["combine"] / len(frames) for r in reports],
        "paths": {p: paths.count(p) for p in ("cached", "repaired", "full")},
        "ms_per_frame_by_path": {p: statistics.median(t) for p, t in sorted(by_path.items())},
        "shifted_sha256": sha256_of(frames),
        "charges_sha256": sha256_of(charges),
        "cuts_sha256": sha256_of(a for c in cuts for a in (c.cut_right, c.cut_down)),
        "surfaces_sha256": surface_hash(surfaces),
        "fits_sha256": sha256_of(a for r, fit in fits for a in (r.values, r.mask, fit.coefficients)),
        "conventional_sha256": surface_hash([r.surface for r in reports]),
    }


def ratio_worker(path: str, repeats: int) -> dict:
    """Both routes on one stack, on this tree."""
    from phasestack.pipeline import PipelineParams, run_clustered, run_conventional
    from phasestack.wphs import read_stack

    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    stack = read_stack(path)
    out = {}
    for name, route in (("clustered", run_clustered), ("conventional", run_conventional)):
        report = route(stack, params)
        out[f"{name}_unwrap_s"] = report.stage_times_ms["unwrap"] / 1e3
        out[f"{name}_unwraps"] = report.unwrap_call_count
        out[f"{name}_sha256"] = surface_hash([report.surface])
        out[f"{name}_s"] = harness.call_s(lambda: route(stack, params), repeats)
    out["paper_ratio"] = PAPER_RATIO
    return out


def merge_rounds(kind: str, runs: list) -> dict:
    """One row from the rounds of one tree: for a flood row, the per-pass
    times of every round pooled into quartiles and the median of each
    path's time over rounds; for a ratio row, each route's times of every
    round pooled into quartiles, and the ratio of their medians; every
    other field from the first round."""
    if kind == "ratio":
        row = harness.merge_rounds(runs, pooled=ROUTE_TIMES)
        row["clustered_over_conventional"] = row["clustered_s"][1] / row["conventional_s"][1]
        return row
    row = harness.merge_rounds(runs, pooled=TIMES)
    row["ms_per_frame_by_path"] = {
        p: statistics.median(r["ms_per_frame_by_path"][p] for r in runs)
        for p in row["ms_per_frame_by_path"]
    }
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", default="BENCH_unwrap.json")
    parser.add_argument("--worker", choices=("flood", "ratio"), help=argparse.SUPPRESS)
    parser.add_argument("--stack", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker = flood_worker if args.worker == "flood" else ratio_worker
        print(json.dumps(worker(args.stack, args.repeats)))
        return
    from phasestack.wphs import write_stack

    trees = harness.trees(args.other)
    jobs = [("flood", "conventional-256", seed, "conventional-256", {}, REPEATS)
            for seed in CONVENTIONAL_SEEDS]
    for n in CLUSTER_SIZES:
        if n == FLOOD_CLUSTER_N:
            jobs.append(("flood", f"cluster-n{n}", 0, "cluster-n1000", {"frames": n}, 3))
        jobs.append(("ratio", f"cluster-n{n}", 0, "cluster-n1000", {"frames": n}, ROUTE_REPEATS))
    rows = []
    pooled = {name: {key: [] for key in TIMES} for name, _ in trees}  # conventional-256 passes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stack.wphs"
        for i, (kind, stack_name, seed, workload, overrides, repeats) in enumerate(jobs):
            write_stack(harness.trial(workload, seed, **overrides), path)
            argv = [HERE, "--worker", kind, "--stack", path, "--repeats", repeats]
            results = harness.alternate(trees, lambda name, src: harness.run_tree(src, argv), ROUNDS, i,
                                        {"stack": stack_name, "seed": seed})
            equal = harness.outputs_equal(results)
            for name, runs in results.items():
                if stack_name == "conventional-256":
                    for key in TIMES:
                        pooled[name][key] += [t for run in runs for t in run[key]]
                rows.append({"kind": kind, "stack": stack_name, "seed": seed, "tree": name,
                             **merge_rounds(kind, runs),
                             "outputs_equal_across_trees": equal})
    summary = {"every_output_equal_across_trees": all(r["outputs_equal_across_trees"] for r in rows)}
    for name, _ in trees:
        flood = [r for r in rows if r["tree"] == name and r["kind"] == "flood"]
        summary[name] = {
            **{key: {f"{r['stack']} seed {r['seed']}": r[key] for r in flood} for key in TIMES},
            "paths": {f"{r['stack']} seed {r['seed']}": r["paths"] for r in flood},
            "routes": {
                r["stack"]: {key: r[key] for key in RATIO_TIMES}
                for r in rows if r["tree"] == name and r["kind"] == "ratio"
            },
        }
    summary["pooled"] = {
        "conventional-256 seeds": f"{CONVENTIONAL_SEEDS.start}-{CONVENTIONAL_SEEDS.stop - 1}",
        **{name: {key: quartiles(v) for key, v in times.items()} for name, times in pooled.items()},
    }
    if len(trees) == 2:
        summary["pooled"]["median_change_over_parent"] = {
            key: summary["pooled"]["change"][key][1] / summary["pooled"]["parent"][key][1] for key in TIMES
        }
        summary["flood_median_change_over_parent"] = {
            key: median[1] / summary["parent"]["flood_ms_per_frame"][key][1]
            for key, median in summary["change"]["flood_ms_per_frame"].items()
        }
    harness.write_json(args.out, {
        "benchmark": "unwrap: every step of the conventional route per frame, flood by path; "
                     "clustered / conventional time",
        "recipes": {
            "conventional-256": "60 x 256x256 circular aperture, 5 dB, 2 families, no contaminants, seeds 0-9",
            "cluster": f"N = {CLUSTER_SIZES} x 128x128, 20 dB, 2 families, 3% contaminants, seed 0",
        },
        "repeats": {"flood": REPEATS, f"flood cluster-n{FLOOD_CLUSTER_N}": 3, "rounds": ROUNDS,
                    "routes": ROUTE_REPEATS},
        "times": "flood rows: [q1, median, q3] over every pass of every round, ms per frame; "
                 "pooled: the same over every conventional-256 seed; "
                 "ratio rows and routes: [q1, median, q3] over every call of every round, s, "
                 "and the ratio of the medians, clustered / conventional",
        "environment": harness.environment(blas_threads="1"),
        "summary": summary,
        "runs": rows,
    })


if __name__ == "__main__":
    main()
