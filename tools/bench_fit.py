"""Fit-layer benchmark: ``zernike_fit_remove`` cold, warm and its per-mask
build, against a ``lstsq`` oracle, for this tree and for another one (such
as the parent commit).

Builds perfbench's conventional-256 recipe (``harness.trial``: 60 frames of
the 256x256 peaks surface at 5 dB in a circular aperture, two tilt
families with 30 rad jitter, no contaminants), piston-shifts it as
``run_conventional`` does and unwraps every frame from the center pixel.
Each tree runs in ``ROUNDS`` rounds of fresh processes, with that tree's
``src`` as ``PYTHONPATH``, the trees alternating which runs first.  Per
tree it records, on seed 0:

- ``cold_fit_ms``: per-fit time of ``zernike_fit_remove(surface,
  aperture=Aperture(mask))`` with a new aperture for each fit (build + fit)
- ``warm_fit_ms``: the same call with one aperture reused, as the pipeline
  does within a run; a surface the flood did not fully reach is fitted on
  its own reached mask, built for that fit
- ``build_ms``: one per-mask build, ``zernike._factor(mask)``, of the
  aperture (``zernike._factor(mask, MODES)`` on a tree whose builders
  still take the modes; ``builder_args`` reads which)
- ``oracle_fit_ms``: one ``np.linalg.lstsq`` of the design per fit
- ``max_dresidual`` and ``max_dcoef``: the largest residual difference
  from the oracle over FIT_TOL's scale 1 + max|v|, and the largest
  coefficient difference over max(max|coef|, max|v|), over the 60 fits
- ``census``: the per-mask builds (``zernike._factor``) of
  ``run_conventional`` on seeds ``CENSUS_SEEDS`` and of ``run_clustered``
  on the cluster-n1000 recipe (seed 0), one per run for the stack's
  aperture and one per part fitted on a mask of its own, and how many of
  them took the moments path
- ``residuals_sha256`` (the warm fits' residuals and coefficients, which
  differ between paths), ``geometry_sha256`` (their centres and radii) and
  ``reached_masks_sha256`` (the unwrap's, which no fit path may change)

``same_across_trees`` says, for each hash and the census, whether every
run of both trees gave the same.

Each ``*_ms`` is [q1, median, q3] over every pass (``REPEATS`` a round)
of every round.  Run from the repository root, optionally with the
``src`` of the tree to compare with, labelled ``parent`` (for example a
``git archive`` of the parent commit):

    PYTHONPATH=src python tools/bench_fit.py [--other PATH/src] [--out BENCH_fit.json]
"""

from __future__ import annotations

import argparse
import inspect
import json
from pathlib import Path

import numpy as np

import harness

REPEATS = 7
ROUNDS = 3
CENSUS_SEEDS = range(10)
PARAMS = dict(cut=0.5, min_samples=None, min_fraction=0.04)
HERE = Path(__file__).resolve()


def builder_args(build) -> tuple:
    """What a private per-mask builder (``zernike._design``, ``_factor``)
    takes after the mask: ``(MODES,)`` on a tree whose fit removes a chosen
    subset of the modes, nothing on one that always removes all four."""
    from phasestack.zernike import MODES

    return (MODES,) if "modes" in inspect.signature(build).parameters else ()


def oracle_fit(surface):
    """(residual, coefficients) of one ``lstsq`` of the reached mask's design."""
    from phasestack.zernike import _design

    m = surface.mask
    design = _design(m, *builder_args(_design))[2]
    coef = np.linalg.lstsq(design, surface.values[m], rcond=None)[0]
    residual = np.zeros(m.shape)
    residual[m] = surface.values[m] - design @ coef
    return residual, coef


def path_of(build) -> str:
    return "moments" if hasattr(build, "inverse") else "svd"


def census() -> dict:
    """The path of every build the pipeline makes on the census recipes."""
    from phasestack import zernike
    from phasestack.pipeline import PipelineParams, run_clustered, run_conventional

    paths, real = [], zernike._factor

    def recorded(*args):
        build = real(*args)
        paths.append(path_of(build))
        return build

    zernike._factor = recorded
    try:
        for seed in CENSUS_SEEDS:
            run_conventional(harness.trial("conventional-256", seed), PipelineParams(**PARAMS))
        conventional, paths[:] = list(paths), []
        run_clustered(harness.trial("cluster-n1000"), PipelineParams(**PARAMS))
    finally:
        zernike._factor = real
    return {
        "conventional-256": {"seeds": list(CENSUS_SEEDS), "builds": len(conventional),
                             "moments": conventional.count("moments")},
        "cluster-n1000": {"seeds": [0], "builds": len(paths), "moments": paths.count("moments")},
    }


def worker() -> dict:
    """The measurements of the tree on the import path."""
    from phasestack import zernike
    from phasestack.core import detect_residues
    from phasestack.preprocess import center_pixel, piston_shift
    from phasestack.unwrap import Aperture, flood_unwrap, place_branch_cuts
    from phasestack.zernike import zernike_fit_remove

    stack = harness.trial("conventional-256")
    mask, pixel = stack.mask, center_pixel(stack.shape)
    shifted = piston_shift(stack.frames, mask, pixel)
    surfaces = [
        flood_unwrap(f, mask, place_branch_cuts(detect_residues(f, mask), mask), pixel)
        for f in shifted
    ]
    kept = Aperture(mask)
    build, args = zernike._factor, builder_args(zernike._factor)
    items = [(s,) for s in surfaces]
    warm = [zernike_fit_remove(s, aperture=kept) for s in surfaces]

    d_residual = d_coef = 0.0
    for s, (got, got_fit) in zip(surfaces, warm):
        want, want_coef = oracle_fit(s)
        v_max = np.abs(s.values[s.mask]).max()
        d_residual = max(d_residual, float(np.abs(got.values - want).max() / (1.0 + v_max)))
        scale = max(np.abs(want_coef).max(), v_max)
        d_coef = max(d_coef, float(np.abs(got_fit.coefficients - want_coef).max() / scale))

    return {
        "cold_fit_ms": harness.pass_ms(
            lambda s: zernike_fit_remove(s, aperture=Aperture(mask)), items, REPEATS),
        "warm_fit_ms": harness.pass_ms(
            lambda s: zernike_fit_remove(s, aperture=kept), items, REPEATS),
        "oracle_fit_ms": harness.pass_ms(oracle_fit, items, REPEATS),
        "build_ms": [t * 1e3 for t in harness.call_s(lambda: build(mask, *args), REPEATS)],
        "aperture_path": path_of(build(mask, *args)),
        "fully_reached_frames": sum(bool(np.array_equal(s.mask, mask)) for s in surfaces),
        "max_dresidual": d_residual,
        "max_dcoef": d_coef,
        "residuals_sha256": harness.sha256_of(
            [a for r, f in warm for a in (r.values, f.coefficients)]),
        "geometry_sha256": harness.sha256_of([np.array([*f.center, f.radius]) for _, f in warm]),
        "reached_masks_sha256": harness.sha256_of([s.mask for s in surfaces]),
        "census": census(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", default="BENCH_fit.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return
    trees = harness.trees(args.other)
    runs = harness.alternate(trees, lambda name, src: harness.run_tree(src, [HERE, "--worker"]), ROUNDS)
    times = ("cold_fit_ms", "warm_fit_ms", "oracle_fit_ms", "build_ms")
    rows = {name: harness.merge_rounds(r, pooled=times) for name, r in runs.items()}
    same = {
        key: len({json.dumps(run[key], sort_keys=True) for r in runs.values() for run in r}) == 1
        for key in ("residuals_sha256", "geometry_sha256", "reached_masks_sha256", "census")
    }
    harness.write_json(args.out, {
        "benchmark": "fit: zernike_fit_remove cold, warm and its per-mask build vs a lstsq oracle",
        "recipe": "conventional-256 (60 x 256x256 circular aperture, 5 dB, 2 families, seed 0)",
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "times": "[q1, median, q3] over every pass of every round, ms per fit or build",
        "environment": harness.environment(blas_threads="1"),
        "same_across_trees": same,
        "trees": rows,
    })


if __name__ == "__main__":
    main()
