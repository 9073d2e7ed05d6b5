"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import speed
from make_inputs import write_inputs
from spans import CALL_SITES, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Smallest sizes that keep each workload within its output bounds: the peaks
# surface aliases below 128 pixels, and fewer frames leave more noise.
TINY = {
    "cluster-n1000": dict(frames=300, grid=128),
    "conventional-256": dict(frames=24, grid=128),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture
def setup(tmp_path):
    def make(w, seed=0):
        write_inputs(w, seed, tmp_path)
        return measure.Inputs.load(tmp_path)

    return make


def call_sites() -> dict:
    return {(m, n): getattr(sys.modules[m], n) for m, names in CALL_SITES.items() for n in names}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_reports_every_metric(name, setup):
    w = tiny(name)
    inputs = setup(w)
    reference = measure.warm_up(w, inputs, seed=0)
    assert reference.problems == []
    untraced = measure.measure(w, inputs, 0, 0.0, False, reference)
    traced = measure.measure(w, inputs, 0, 0.0, True, reference)
    assert untraced.failed == traced.failed == 0
    assert untraced.attempted == 1 + measure.MIN_UNTRACED[False]

    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: u for k, (_, u) in untraced.metrics.items()} == {
        k: u for k, u in end_to_end.items() if k != "setup_s"
    }
    assert {k: u for k, (_, u) in traced.metrics.items()} == per_layer

    layers = {k: v for k, (v, _) in traced.metrics.items()}
    if w.route == "conventional":
        assert layers["unwrap.calls"] == w.frames
        assert layers["cluster.pairs"] == 0
    else:
        assert layers["unwrap.calls"] == layers["cluster.chosen"] >= 1
        assert layers["cluster.pairs"] == w.frames * (w.frames - 1) // 2
    assert layers["zernike.fits"] >= layers["unwrap.calls"]


def test_patched_restores_every_call_site(setup):
    before = call_sites()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert all(fn is not before[k] for k, fn in call_sites().items())
            raise RuntimeError("leave the block early")
    assert all(fn is before[k] for k, fn in call_sites().items())

    # an untraced measurement after a traced one reaches no wrapper
    w = tiny("conventional-256")
    inputs = setup(w)
    measure.measure_once(w, inputs, 0, tracer)
    spans = len(tracer.spans)
    measure.measure_once(w, inputs, 0)
    assert len(tracer.spans) == spans
    assert all(fn is before[k] for k, fn in call_sites().items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_fit_in_traced_time(name, setup):
    w = tiny(name)
    inputs = setup(w)
    tracer = Tracer()
    tracer.measurement = 1
    seconds, _ = measure.measure_once(w, inputs, 0, tracer)
    self_s = tracer.self_times(1)
    assert all(v >= 0 for v in self_s.values())
    layers = sum(v for k, v in self_s.items() if k != "measurement")
    assert 0 < layers <= seconds
    (root,) = [s for s in tracer.spans if s.name == "measurement"]
    assert sum(self_s.values()) == pytest.approx(root.end - root.start)


def test_corrupted_output_is_rejected(setup):
    w = tiny("cluster-n1000")
    inputs = setup(w)
    reference = measure.warm_up(w, inputs, seed=0)
    assert reference.problems == []

    _, report = measure.measure_once(w, inputs, 0)
    surface = report.surface
    surface.values[: surface.values.shape[0] // 2] += 1.0 * surface.mask[: surface.values.shape[0] // 2]
    problems = measure.check(w, inputs, report, reference.digest).problems
    assert any("surface_err_rad" in p for p in problems)
    assert any("warm-up" in p for p in problems)

    _, report = measure.measure_once(w, inputs, 0)
    report.abandoned_frames = []
    report.unwrap_call_count += 1
    problems = measure.check(w, inputs, report, reference.digest).problems
    assert any("abandoned" in p for p in problems)
    assert any("unwrap_call_count" in p for p in problems)


@pytest.mark.parametrize("trace", [False, True])
def test_failing_run_reports_its_failures(trace, setup):
    w = dataclasses.replace(tiny("conventional-256"), max_err_rad=0.0)
    inputs = setup(w)
    reference = measure.warm_up(w, inputs, seed=0)
    assert reference.problems
    result = measure.measure(w, inputs, 0, 0.0, trace, reference)
    assert result.attempted > 1
    assert result.failed == result.attempted
    assert result.metrics == {}


def test_raising_run_reports_its_failures(setup, tmp_path):
    w = tiny("conventional-256")
    inputs = setup(w)
    inputs.stack_path = tmp_path / "missing.wphs"
    reference = measure.warm_up(w, inputs, seed=0)
    assert reference.digest is None
    result = measure.measure(w, inputs, 0, 0.0, False, reference)
    assert result.failed == result.attempted > 1
    assert result.metrics == {}


def test_speed_kernel_is_fixed_work_outside_the_program():
    assert speed.kernel() == speed.kernel()
    tree = ast.parse((HERE / "speed.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert imported == {"__future__", "time", "collections", "numpy"}


def test_inputs_depend_only_on_seed(tmp_path):
    w = tiny("conventional-256")
    for d, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / d).mkdir()
        write_inputs(w, seed, tmp_path / d)
    data = {d: (tmp_path / d / "stack.wphs").read_bytes() for d in "abc"}
    assert data["a"] == data["b"] != data["c"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "conventional-256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
