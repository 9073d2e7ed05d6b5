"""Set-up process: synthesise one workload's trial and write its inputs.

    python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR

Writes DIR/stack.wphs, the only file the measured program reads, and
DIR/truth.npz (truth surface and frame labels) for the output checks.
Needs ``src`` on the import path.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from phasestack import PhaseStack, TrialSpec, circular_aperture, make_trial, peaks_surface, write_stack
from workloads import PERTURBATION_COUNT, PV_RAD, TILT_JITTER, WORKLOADS, Workload


def write_inputs(w: Workload, seed: int, out_dir) -> None:
    out = Path(out_dir)
    truth = peaks_surface(w.grid, PV_RAD)
    spec = TrialSpec(
        frame_count=w.frames,
        grid=w.grid,
        snr_db=w.snr_db,
        perturbation_count=PERTURBATION_COUNT,
        contaminant_fraction=w.contaminant_fraction,
        tilt_jitter=TILT_JITTER,
        seed=seed,
    )
    stack, labels = make_trial(truth, spec)
    if w.aperture:
        mask = circular_aperture((w.grid, w.grid))
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
    write_stack(stack, out / "stack.wphs")
    np.savez(out / "truth.npz", truth=truth, labels=labels)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
