"""The call sites a traced perfbench run rebinds.

``perfbench/spans.py`` lists in ``CALL_SITES`` the names through which
``phasestack.pipeline`` and ``phasestack.unwrap`` call into the other
modules; a traced run replaces each with a timed wrapper.  A name that no
longer resolves makes the run fail, and a call that bypasses the module
global makes its layer read zero.  ``pipeline`` keeps ``circular_mean_frame``
importable for the tracer although it denoises with ``circular_mean_rows``.
"""

import ast
import sys
from pathlib import Path

import pytest

import phasestack.unwrap  # noqa: F401  (looked up in sys.modules, as the tracer does)
from phasestack.pipeline import PipelineParams, run_clustered, run_conventional
from phasestack.synth import TrialSpec, make_trial, peaks_surface

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("phasestack.pipeline", "phasestack.unwrap")
NOT_CALLED = {("phasestack.pipeline", "circular_mean_frame")}


def call_sites() -> dict:
    """CALL_SITES as written in perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CALL_SITES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no CALL_SITES")


SITES = [(module, name) for module, names in call_sites().items() for name in names]


def test_call_sites_name_the_two_modules():
    assert SITES
    assert {module for module, _ in SITES} <= set(MODULES)
    assert NOT_CALLED <= set(SITES)


@pytest.mark.parametrize("module, name", SITES)
def test_call_site_resolves_to_a_callable(module, name):
    assert callable(getattr(sys.modules[module], name, None))


def test_routes_call_through_every_rebound_name(monkeypatch):
    """Rebinding each name, as a traced run does, catches every call."""
    calls = {site: 0 for site in SITES}
    for module, name in SITES:
        real = getattr(sys.modules[module], name)

        def counted(*args, _site=(module, name), _real=real, **kwargs):
            calls[_site] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sys.modules[module], name, counted)
    spec = TrialSpec(frame_count=12, grid=64, snr_db=20.0, perturbation_count=2,
                     tilt_jitter=6.0, seed=0)
    stack, _ = make_trial(peaks_surface(64, 20.0), spec)
    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    run_clustered(stack, params)
    run_conventional(stack, params)
    assert {site for site, n in calls.items() if n == 0} == NOT_CALLED
    assert calls[("phasestack.unwrap", "flood_unwrap")] >= 12
