"""Fit-layer benchmark: ``zernike_fit_remove`` cold and warm against the
``lstsq`` oracle, the parts the flood did not fully reach, and the unwrap
with a new ``Aperture`` per frame and with one reused.

Builds perfbench's conventional-256 recipe (``harness.trial``: 60 frames of
the 256x256 peaks surface at 5 dB in a circular aperture, two tilt
families with 30 rad jitter, no contaminants), piston-shifts it as
``run_conventional`` does and unwraps every frame from the center pixel.  On seed 0 it records:

- ``cold_fit_s``: per-fit time of ``zernike_fit_remove(surface, modes=MODES,
  aperture=Aperture(mask))`` with a new aperture for each fit (build + fit)
- ``warm_fit_s``: per-fit time of the same call with one aperture reused,
  as the pipeline does within a run: the aperture stays factored, and a
  surface the flood did not fully reach is fitted on its own reached mask,
  factored for that fit
- ``oracle_fit_s``: per-fit time of ``tests/zernike_reference.py``'s
  ``zernike_fit_remove_reference``, one ``lstsq`` per call
- ``build_s``: one factorization of the aperture, build + fit minus a warm
  fit of the same fully reached surface
- ``max_abs_dresidual_rad`` and ``max_rel_dcoef``: the largest |residual
  difference| from the oracle over every reached pixel, and the largest
  |coefficient difference| over the largest |coefficient| of the same fit
- ``cuts_flood_cold_s`` and ``cuts_flood_warm_s``: per-frame time of
  ``place_branch_cuts`` plus ``flood_unwrap``, with a new ``Aperture`` for
  each frame and with one reused (mask facts and flood tree derived once;
  residues are detected outside the timing)

Each time is the median of ``REPEATS`` passes over the 60 surfaces, the
fit passes alternating.  Over seeds 0-9 (``UNREACHED_SEEDS``) it counts the
surfaces the flood did not fully reach and their lost pixels, and times
their fits both ways: ``parent_s``, the oracle's ``lstsq`` (the fit such
parts took before every fit went through a factorization), and
``change_s``, a cold ``zernike_fit_remove`` (a reached mask is new, so its
fit includes the build); medians over the parts of the per-part medians of
``REPEATS`` calls.  It writes everything to ``BENCH_fit.json``.

Run from the repository root:

    PYTHONPATH=src python tools/bench_fit.py [--out BENCH_fit.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

import harness

sys.path.insert(0, str(harness.ROOT / "tests"))
from zernike_reference import zernike_fit_remove_reference  # noqa: E402

from phasestack.core import detect_residues  # noqa: E402
from phasestack.preprocess import center_pixel, piston_shift  # noqa: E402
from phasestack.unwrap import Aperture, flood_unwrap, place_branch_cuts  # noqa: E402
from phasestack.zernike import MODES, zernike_fit_remove  # noqa: E402

REPEATS = 7
UNREACHED_SEEDS = range(10)


def frames(seed: int):
    """Piston-shifted frames, mask and seed pixel of the recipe."""
    stack = harness.trial("conventional-256", seed)
    mask = stack.mask
    pixel = center_pixel(stack.shape)  # valid on the disk: the pipeline's anchor
    return piston_shift(stack.frames, mask, pixel), mask, pixel


def unwrapped(shifted, mask, pixel):
    charges = [detect_residues(f, mask) for f in shifted]
    surfaces = [
        flood_unwrap(f, mask, place_branch_cuts(c, mask), pixel) for f, c in zip(shifted, charges)
    ]
    return charges, surfaces


def per_call(fn, items) -> float:
    t0 = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - t0) / len(items)


def oracle_fit(s):
    return zernike_fit_remove_reference(s, modes=MODES)


def fit_through(aperture_of):
    """``zernike_fit_remove`` through the aperture ``aperture_of()`` gives."""
    return lambda s: zernike_fit_remove(s, modes=MODES, aperture=aperture_of())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_fit.json")
    args = parser.parse_args(argv)
    shifted, mask, pixel = frames(0)
    charges, surfaces = unwrapped(shifted, mask, pixel)
    kept = Aperture(mask)
    fit, cold_fit = fit_through(lambda: kept), fit_through(lambda: Aperture(mask))
    full = next(s for s in surfaces if np.array_equal(s.mask, mask))

    cold_t, warm_t, oracle_t, build_t = [], [], [], []
    for _ in range(REPEATS):
        cold_t.append(per_call(cold_fit, surfaces))
        oracle_t.append(per_call(oracle_fit, surfaces))
        warm_t.append(per_call(fit, surfaces))
        build_t.append(per_call(cold_fit, [full]) - per_call(fit, [full]))

    d_residual = d_coef = 0.0
    for s in surfaces:
        (want, want_fit), (got, got_fit) = oracle_fit(s), fit(s)
        d_residual = max(d_residual, float(np.abs(got.values - want.values).max()))
        dc = np.abs(got_fit.coefficients - want_fit.coefficients).max()
        d_coef = max(d_coef, float(dc / np.abs(want_fit.coefficients).max()))

    def cuts_flood(aperture_of):
        def one(i):
            aperture = aperture_of()
            cuts = place_branch_cuts(charges[i], mask, aperture=aperture)
            flood_unwrap(shifted[i], mask, cuts, pixel, aperture=aperture)

        return one

    flood_cold_t, flood_warm_t = [], []
    for _ in range(REPEATS):
        flood_cold_t.append(per_call(cuts_flood(lambda: Aperture(mask)), range(len(shifted))))
        flood_warm_t.append(per_call(cuts_flood(lambda: kept), range(len(shifted))))

    by_seed, parent_t, change_t = {}, [], []
    for seed in UNREACHED_SEEDS:
        seed_surfaces = unwrapped(*frames(seed))[1] if seed else surfaces
        parts = [s for s in seed_surfaces if not np.array_equal(s.mask, mask)]
        by_seed[seed] = [int(mask.sum() - s.mask.sum()) for s in parts]
        for s in parts:
            parent_t.append(statistics.median(per_call(oracle_fit, [s]) for _ in range(REPEATS)))
            change_t.append(statistics.median(per_call(cold_fit, [s]) for _ in range(REPEATS)))

    flood_cold_s, flood_warm_s = statistics.median(flood_cold_t), statistics.median(flood_warm_t)
    doc = {
        "benchmark": "fit: zernike_fit_remove cold and warm vs the lstsq oracle; parts the "
        "flood did not fully reach; place_branch_cuts + flood_unwrap with a new Aperture per "
        "frame and with one reused",
        "recipe": "conventional-256 (60 x 256x256 circular aperture, 5 dB, 2 families, seed 0)",
        "repeats": REPEATS,
        "environment": harness.environment(blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "default")),
        "valid_px": int(mask.sum()),
        "fully_reached_frames": sum(bool(np.array_equal(s.mask, mask)) for s in surfaces),
        "cold_fit_s": statistics.median(cold_t),
        "warm_fit_s": statistics.median(warm_t),
        "oracle_fit_s": statistics.median(oracle_t),
        "build_s": statistics.median(build_t),
        "max_abs_dresidual_rad": d_residual,
        "max_rel_dcoef": d_coef,
        "unreached_parts": {
            "seeds": list(UNREACHED_SEEDS),
            "px_lost_by_seed": by_seed,
            "count": len(parent_t),
            "parent_s": statistics.median(parent_t),
            "change_s": statistics.median(change_t),
            "parent_range_s": [min(parent_t), max(parent_t)],
            "change_range_s": [min(change_t), max(change_t)],
        },
        "cuts_flood_cold_s": flood_cold_s,
        "cuts_flood_warm_s": flood_warm_s,
        "aperture_saving_s": flood_cold_s - flood_warm_s,
    }
    print(json.dumps(doc, indent=2))
    harness.write_json(args.out, doc)


if __name__ == "__main__":
    main()
