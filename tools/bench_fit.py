"""Fit-layer benchmark: ``ZernikeBasis`` fits against the ``lstsq`` oracle,
and the unwrap's per-mask facts cold and warm.

Builds perfbench's conventional-256 recipe (60 frames of the 256x256 peaks
surface at 5 dB in a circular aperture, two tilt families with 30 rad
jitter, no contaminants, seed 0), piston-shifts it as ``run_conventional``
does and unwraps every frame from the center pixel.  Then it records:

- ``oracle_fit_s``: per-fit time of ``zernike_fit_remove(surface, modes=MODES)``,
  the ``lstsq`` path; median of 7 passes over the 60 surfaces
- ``basis_fit_s``: per-fit time of the same call with ``basis=`` a
  ``ZernikeBasis`` of the aperture (the passes alternate with the oracle's)
- ``basis_build_s``: median of 7 ``ZernikeBasis(mask, MODES)`` builds
- ``max_abs_dresidual_rad`` and ``max_rel_dcoef``: the largest |residual
  difference| over every reached pixel, and the largest |coefficient
  difference| over the largest |coefficient| of the same fit
- ``cuts_flood_cold_s`` and ``cuts_flood_warm_s``: per-frame time of
  ``place_branch_cuts`` plus ``flood_unwrap``, with the unwrap's caches
  (mask facts and flood tree) cleared before each frame and with them
  holding the aperture; medians of 7 passes over the 60 frames (residues
  are detected outside the timing)

and writes them to ``BENCH_fit.json``.  Fits of surfaces the flood did not
fully reach take the ``lstsq`` path in both timings, as in the pipeline.

Run from the repository root:

    PYTHONPATH=src python tools/bench_fit.py [--out BENCH_fit.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from phasestack.core import PhaseStack, circular_aperture, detect_residues
from phasestack.preprocess import center_pixel, piston_shift
from phasestack.synth import TrialSpec, make_trial, peaks_surface
from phasestack.unwrap import _flood_tree, _mask_facts, flood_unwrap, place_branch_cuts
from phasestack.zernike import MODES, ZernikeBasis, zernike_fit_remove

GRID = 256
REPEATS = 7


def frames():
    """Piston-shifted frames, mask and seed pixel of the recipe."""
    spec = TrialSpec(
        frame_count=60, grid=GRID, snr_db=5.0, perturbation_count=2,
        contaminant_fraction=0.0, tilt_jitter=30.0, seed=0,
    )
    stack, _ = make_trial(peaks_surface(GRID, 37.82), spec)
    mask = circular_aperture((GRID, GRID))
    stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
    seed = center_pixel(stack.shape)  # valid on the disk: the pipeline's anchor
    return piston_shift(stack.frames, mask, seed), mask, seed


def per_call(fn, items) -> float:
    t0 = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - t0) / len(items)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_fit.json")
    args = parser.parse_args(argv)
    shifted, mask, seed = frames()
    charges = [detect_residues(f, mask) for f in shifted]
    surfaces = [
        flood_unwrap(f, mask, place_branch_cuts(c, mask), seed) for f, c in zip(shifted, charges)
    ]
    basis = ZernikeBasis(mask, MODES)

    def oracle_fit(s):
        return zernike_fit_remove(s, modes=MODES)

    def basis_fit(s):
        return zernike_fit_remove(s, modes=MODES, basis=basis)

    build_t, oracle_t, basis_t = [], [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        ZernikeBasis(mask, MODES)
        build_t.append(time.perf_counter() - t0)
        oracle_t.append(per_call(oracle_fit, surfaces))
        basis_t.append(per_call(basis_fit, surfaces))

    d_residual = d_coef = 0.0
    for s in surfaces:
        (want, want_fit), (got, got_fit) = oracle_fit(s), basis_fit(s)
        d_residual = max(d_residual, float(np.abs(got.values - want.values).max()))
        dc = np.abs(got_fit.coefficients - want_fit.coefficients).max()
        d_coef = max(d_coef, float(dc / np.abs(want_fit.coefficients).max()))

    def cuts_flood(cold):
        def one(i):
            if cold:
                _mask_facts.cache_clear()
                _flood_tree.cache_clear()
            flood_unwrap(shifted[i], mask, place_branch_cuts(charges[i], mask), seed)

        return one

    cold_t, warm_t = [], []
    for _ in range(REPEATS):
        cold_t.append(per_call(cuts_flood(True), range(len(shifted))))
        warm_t.append(per_call(cuts_flood(False), range(len(shifted))))

    oracle_s, basis_s = statistics.median(oracle_t), statistics.median(basis_t)
    cold_s, warm_s = statistics.median(cold_t), statistics.median(warm_t)
    doc = {
        "benchmark": "fit: zernike_fit_remove with a ZernikeBasis vs the lstsq path; "
        "place_branch_cuts + flood_unwrap with the unwrap caches cold and warm",
        "recipe": "conventional-256 (60 x 256x256 circular aperture, 5 dB, 2 families, seed 0)",
        "repeats": REPEATS,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "valid_px": int(mask.sum()),
        "fully_reached_frames": sum(bool(np.array_equal(s.mask, mask)) for s in surfaces),
        "oracle_fit_s": oracle_s,
        "basis_fit_s": basis_s,
        "fit_speedup": oracle_s / basis_s,
        "basis_build_s": statistics.median(build_t),
        "max_abs_dresidual_rad": d_residual,
        "max_rel_dcoef": d_coef,
        "cuts_flood_cold_s": cold_s,
        "cuts_flood_warm_s": warm_s,
        "unwrap_caches_saving_s": cold_s - warm_s,
    }
    print(json.dumps(doc, indent=2))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
