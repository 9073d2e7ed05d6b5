"""What the ``tools/bench_*.py`` harnesses share: perfbench's recipes, the
runner of one tree's worker process, alternating rounds over two trees,
timing and statistics, and the JSON record.

A harness that compares trees runs its own worker in a fresh process per
tree, with that tree's ``src`` as ``PYTHONPATH``, and the worker imports
this module too; so ``phasestack`` is imported here only inside functions,
and resolves to the tree on the path.

Every recipe is one of perfbench's workloads (``perfbench/workloads.py``),
with ``frames``, ``snr_db`` or ``seed`` changed; ``perfbench/`` is read,
never edited.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.append(str(ROOT / "perfbench"))
from workloads import PERTURBATION_COUNT, PV_RAD, TILT_JITTER, WORKLOADS  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def trial(workload: str, seed: int = 0, **overrides):
    """The stack ``perfbench/make_inputs.py`` builds for ``workload`` and
    ``seed``, with the ``Workload`` fields in ``overrides`` (such as
    ``frames`` or ``snr_db``) changed: float64 frames, the aperture
    applied."""
    from phasestack import PhaseStack, TrialSpec, circular_aperture, make_trial, peaks_surface

    w = dataclasses.replace(WORKLOADS[workload], **overrides)
    spec = TrialSpec(
        frame_count=w.frames,
        grid=w.grid,
        snr_db=w.snr_db,
        perturbation_count=PERTURBATION_COUNT,
        contaminant_fraction=w.contaminant_fraction,
        tilt_jitter=TILT_JITTER,
        seed=seed,
    )
    stack, _ = make_trial(peaks_surface(w.grid, PV_RAD), spec)
    if w.aperture:
        mask = circular_aperture((w.grid, w.grid))
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
    return stack


def trees(other: Path | None) -> list:
    """(name, src) of this tree, ``change``, and of ``other``, ``parent``."""
    return [("change", SRC)] + ([("parent", other.resolve())] if other else [])


def run_tree(src: Path, argv: list, blas: str = "1") -> dict:
    """The last JSON line that ``python argv`` prints with ``src`` as
    ``PYTHONPATH`` and BLAS at ``blas`` threads (``"default"``: the
    variables unset, so one thread per CPU)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in BLAS_VARS:
        env.pop(var, None)
        if blas != "default":
            env[var] = blas
    done = subprocess.run(
        [sys.executable, *map(str, argv)], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def alternate(trees: list, run, rounds: int = 1, start: int = 0, label: dict | None = None) -> dict:
    """``{name: [run(name, src) of each round]}`` over the (name, src)
    ``trees``.  Round r runs the trees in their order when ``start + r`` is
    even and reversed when it is odd, so a slow spell of the machine falls
    on both; pass each job's index as ``start``.  Each result is printed
    as a JSON line after ``label``, the job's fields."""
    results = {name: [] for name, _ in trees}
    for r in range(rounds):
        for name, src in trees if (start + r) % 2 == 0 else trees[::-1]:
            results[name].append(run(name, src))
            print(json.dumps({**(label or {}), "tree": name, "round": r, **results[name][-1]}), flush=True)
    return results


def outputs_equal(results: dict) -> bool:
    """Whether every ``*_sha256`` field is the same in every run of
    ``alternate``'s results."""
    first = next(iter(results.values()))[0]
    keys = [k for k in first if k.endswith("sha256")]
    return all(run[k] == first[k] for runs in results.values() for run in runs for k in keys)


def merge_rounds(runs: list, pooled=(), over_rounds=()) -> dict:
    """One row from the rounds of one tree: each key in ``pooled``, a list
    per round, becomes the quartiles of every round's values together; each
    key in ``over_rounds`` the quartiles of its value over the rounds; every
    other field is the first round's."""
    row = dict(runs[0], rounds=len(runs))
    for key in pooled:
        row[key] = quartiles([v for r in runs for v in r[key]])
    for key in over_rounds:
        row[key] = quartiles([r[key] for r in runs])
    return row


def call_s(fn, repeats: int) -> list:
    """Wall time of each of ``repeats`` calls of ``fn()``, in s."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def pass_ms(fn, items, repeats: int) -> list:
    """Time of ``fn(*item)`` per item, in ms, in each of ``repeats`` passes
    through all of ``items``."""

    def one_pass():
        for item in items:
            fn(*item)

    return [t * 1e3 / len(items) for t in call_s(one_pass, repeats)]


def quartiles(values) -> list:
    """[q1, median, q3] of ``values``."""
    return [float(q) for q in np.percentile(values, (25, 50, 75))]


def sha256_of(items) -> str:
    """sha256 of the bytes of every array (or bytes) in ``items``, in order."""
    digest = hashlib.sha256()
    for a in items:
        digest.update(a if isinstance(a, bytes) else a.tobytes())
    return digest.hexdigest()


def environment(**extra) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        **extra,
    }


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
