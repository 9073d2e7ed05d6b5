"""Command-line interface.

Commands: synth, run, conventional, compare, inspect.  Exit codes:
0 success, 1 usage error, 2 data error, 3 no cluster met the minimum
sampling number.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .cluster import NoClusterError, agglomerate, pairwise_distances
from .core import detect_residues, residue_count
from .pipeline import WEIGHTINGS, PipelineParams, _check_classify_fits, anchor_for, compare
from .pipeline import run_clustered, run_conventional
from .preprocess import prepare_for_clustering
from .synth import TrialSpec, make_trial, peaks_surface
from .wphs import StackFormatError, read_stack, write_report, write_stack

DEFAULT_PV = 37.82


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cut", type=float, default=PipelineParams.cut, help="normalized dendrogram cut height"
    )
    g = p.add_mutually_exclusive_group()
    g.add_argument("--min-samples", type=int, default=None, help="minimum frames per chosen cluster")
    g.add_argument(
        "--min-fraction", type=float, default=None, help="minimum fraction of N per chosen cluster"
    )
    p.add_argument(
        "--pool-levels", type=int, default=PipelineParams.pool_levels,
        help="2x2 pooling passes before clustering",
    )
    p.add_argument(
        "--weighting", choices=WEIGHTINGS, default=PipelineParams.cluster_weighting,
        help="cluster combination weights",
    )
    p.add_argument("--wavelength-nm", type=float, default=PipelineParams.wavelength_nm)
    p.add_argument("--no-classify", action="store_true", help="single cluster of all frames")


def _params_from(args) -> PipelineParams:
    min_samples, min_fraction = args.min_samples, args.min_fraction
    if min_samples is None and min_fraction is None:
        min_samples = PipelineParams.min_samples
    return PipelineParams(
        cut=args.cut,
        min_samples=min_samples,
        min_fraction=min_fraction,
        pool_levels=args.pool_levels,
        cluster_weighting=args.weighting,
        wavelength_nm=args.wavelength_nm,
        classify=not args.no_classify,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phasestack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trial stack (WPHS + labels JSON)")
    p.add_argument("--frames", type=int, required=True, help="number of frames N")
    p.add_argument("--grid", type=int, default=128, help="square grid size")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--clusters", type=int, default=1, help="number of perturbation families")
    p.add_argument("--contaminant-fraction", type=float, default=0.0)
    p.add_argument("--tilt-jitter", type=float, default=0.0, help="family tilt range, rad/aperture")
    p.add_argument("--pv", type=float, default=DEFAULT_PV, help="peak-to-valley of the test surface")
    p.add_argument("--reference-power", choices=("unit", "measured"), default="unit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output WPHS path")
    p.add_argument("--labels", default=None, help="labels sidecar path (default: OUT -> .labels.json)")

    p = sub.add_parser("run", help="clustered measurement of a WPHS stack")
    p.add_argument("stack", help="input WPHS path")
    _add_params_flags(p)
    p.add_argument("--seed", type=int, default=None, help="echoed into the report")
    p.add_argument("--out", default=None, help="report JSON path")

    p = sub.add_parser("conventional", help="unwrap-every-frame baseline")
    p.add_argument("stack", help="input WPHS path")
    p.add_argument("--wavelength-nm", type=float, default=PipelineParams.wavelength_nm)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="run both methods over several trial stacks")
    p.add_argument("stacks", nargs="+", help="two or more WPHS paths, one per trial")
    _add_params_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="comparison report JSON path")
    p.add_argument("--csv", default=None, help="per-trial RMSE table for plotting")

    p = sub.add_parser("inspect", help="print header, per-frame residue counts, dendrogram JSON")
    p.add_argument("stack", help="input WPHS path")
    p.add_argument("--pool-levels", type=int, default=PipelineParams.pool_levels)
    return parser


def _cmd_synth(args) -> int:
    spec = TrialSpec(
        frame_count=args.frames,
        grid=args.grid,
        snr_db=args.snr_db,
        perturbation_count=args.clusters,
        contaminant_fraction=args.contaminant_fraction,
        tilt_jitter=args.tilt_jitter,
        seed=args.seed,
        reference_power=args.reference_power,
    )
    truth = peaks_surface(args.grid, args.pv)
    stack, labels = make_trial(truth, spec)
    write_stack(stack, args.out)
    labels_path = args.labels or str(Path(args.out).with_suffix(".labels.json"))
    sidecar = {
        "schema_version": 1,
        "contaminant_label": -1,
        "labels": [int(v) for v in labels],
        "trial": {
            "frame_count": spec.frame_count,
            "grid": spec.grid,
            "snr_db": spec.snr_db,
            "perturbation_count": spec.perturbation_count,
            "contaminant_fraction": spec.contaminant_fraction,
            "tilt_jitter": spec.tilt_jitter,
            "seed": spec.seed,
            "reference_power": spec.reference_power,
            "target_pv": args.pv,
        },
    }
    write_report(sidecar, labels_path)
    print(f"wrote {args.out} ({args.frames} frames, {args.grid}x{args.grid}) and {labels_path}")
    return 0


def _cmd_run(args) -> int:
    stack = read_stack(args.stack)
    params = _params_from(args)
    report = run_clustered(stack, params)
    if args.out:
        write_report(report.to_dict(params=params, seed=args.seed), args.out)
    print(
        f"method={report.method} rmse_rad={report.rmse_rad:.6f} "
        f"rmse_nm={report.rmse_nm:.3f} clusters={len(report.chosen_sizes)} "
        f"abandoned_frames={len(report.abandoned_frames)} unwraps={report.unwrap_call_count}"
    )
    return 0


def _cmd_conventional(args) -> int:
    stack = read_stack(args.stack)
    params = PipelineParams(wavelength_nm=args.wavelength_nm)
    report = run_conventional(stack, params)
    if args.out:
        write_report(report.to_dict(params=params, seed=args.seed), args.out)
    print(
        f"method={report.method} rmse_rad={report.rmse_rad:.6f} "
        f"rmse_nm={report.rmse_nm:.3f} unwraps={report.unwrap_call_count}"
    )
    return 0


def _cmd_compare(args) -> int:
    if len(args.stacks) < 2:
        raise _UsageError("compare needs at least 2 stacks")
    params = _params_from(args)
    trials = [(read_stack(path), params) for path in args.stacks]
    report = compare(trials)
    if report.success_count < 2:
        for line in report.errors:
            print(line, file=sys.stderr)
        print("compare: fewer than 2 trials succeeded", file=sys.stderr)
        return 2
    if args.out:
        write_report(report.to_dict(params=params, seed=args.seed), args.out)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "clustered_rmse_rad", "conventional_rmse_rad"])
            for i, (a, b) in enumerate(
                zip(report.clustered_rmse_rad, report.conventional_rmse_rad)
            ):
                w.writerow([i, f"{a:.9f}", f"{b:.9f}"])
    sd_ratio = "n/a" if report.sd_ratio is None else f"{report.sd_ratio:.4f}"
    time_ratio = "n/a" if report.time_ratio is None else f"{report.time_ratio:.4f}"
    print(
        f"trials={report.success_count}/{report.trial_count} "
        f"clustered_sd={report.clustered_sd:.6g} conventional_sd={report.conventional_sd:.6g} "
        f"sd_ratio={sd_ratio} time_ratio={time_ratio}"
    )
    for line in report.errors:
        print(line, file=sys.stderr)
    return 0


def _cmd_inspect(args) -> int:
    stack = read_stack(args.stack)
    n = len(stack)
    h, w = stack.shape
    counts = [int(residue_count(detect_residues(f, stack.mask))) for f in stack.frames]
    doc = {
        "path": args.stack,
        "width": w,
        "height": h,
        "frame_count": n,
        "valid_pixels": int(stack.mask.sum()),
        "residue_counts": counts,
        "dendrogram": None,
    }
    if n >= 2:
        _check_classify_fits(n, stack.shape, args.pool_levels)
        pooled, pooled_mask = prepare_for_clustering(
            stack.frames, stack.mask, args.pool_levels, anchor_for(stack.mask)
        )
        doc["dendrogram"] = agglomerate(pairwise_distances(pooled, pooled_mask)).to_dict()
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "conventional": _cmd_conventional,
    "compare": _cmd_compare,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NoClusterError as exc:
        census = exc.clusters
        detail = "" if census is None else f" (cluster sizes: {[len(c) for c in census.abandoned]})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 3
    except (StackFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
