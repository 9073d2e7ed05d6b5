"""phasestack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cluster-n1000 --seed 0 --seconds 35 --trace 0

Run from the repository root.  Set-up runs SETUP_REPEATS times in a
separate process (synthesise the trial, write the WPHS stack); this process
then imports phasestack, makes one warm-up measurement and measures for
--seconds.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is the
result as JSON; the exit code is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
BLAS_THREADS = "1"  # at or below nproc; one thread keeps runs steady on shared cores


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "phasestack" / "__init__.py").is_file():
        print(f"error: no phasestack sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    # Before numpy is first imported, here and in the set-up processes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    work = ROOT / ".bench_work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "make_inputs.py"), "--workload", w.name,
                 "--seed", str(args.seed), "--out", str(work)],
                env=env, check=True, timeout=SETUP_TIMEOUT_S,
            )
            setup_times.append(time.perf_counter() - t0)

        # The warm-up, and the import before it, count towards set-up.
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import measure

        inputs = measure.Inputs.load(work)
        reference = measure.warm_up(w, inputs, args.seed)
        setup_s = statistics.median(setup_times) + time.perf_counter() - t0
        result = measure.measure(w, inputs, args.seed, args.seconds, bool(args.trace), reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result.metrics)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    env_record = dict(measure.environment(), seed=args.seed, git_commit=git_commit())
    print(f"workload {w.name}: {w.frames} frames, {w.grid}x{w.grid}, {w.snr_db:g} dB, {w.route} route")
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"measurements attempted {result.attempted}, failed {result.failed}")
    traced_s = metrics.get("trace.measure_s", (None,))[0]
    for name, (value, unit) in metrics.items():
        share = f"{value / traced_s:8.1%} of traced measure_s" if traced_s and unit == "s" else ""
        print(f"  {name:36s} {value:14.6g} {unit:9s} {share}")
    if result.tracer is not None:
        out = ROOT / ".bench_out" / f"spans-{w.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        doc = {
            "environment": env_record,
            "workload": w.name,
            "spans": [vars(s) for s in result.tracer.spans],
            "counts": {str(k): dict(v) for k, v in result.tracer.counts.items()},
        }
        out.write_text(json.dumps(doc) + "\n")
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
