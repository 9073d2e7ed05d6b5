"""In-memory spans, counts, and the call-site rebinding of a traced run.

A traced measurement rebinds the names through which ``phasestack.pipeline``
and ``phasestack.unwrap`` call into the other modules, so every call records
a span named ``<layer>.<function>`` (layer = the function's home module) and
adds the counts derived from its arguments and result.  The package source
is not touched; ``Tracer.patched`` restores every name on exit.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from phasestack.core import residue_count

# Module -> names rebound in it.  ``phasestack.unwrap`` is reached through
# sys.modules because the package attribute of that name is the function.
CALL_SITES = {
    "phasestack.pipeline": (
        "prepare_for_clustering",
        "pairwise_distances",
        "agglomerate",
        "select_clusters",
        "circular_mean_frame",
        "zernike_fit_remove",
    ),
    "phasestack.unwrap": ("detect_residues", "place_branch_cuts", "flood_unwrap"),
}


def _flood_counts(a, out):
    mask = a.get("mask")
    valid = a["frame"].size if mask is None else int(mask.sum())
    return {"unwrap.calls": 1, "unwrap.reached_px": int(out.mask.sum()), "unwrap.valid_px": valid}


# Function name -> counts from (bound arguments, result).
COUNTERS = {
    "prepare_for_clustering": lambda a, out: {"preprocess.px": a["frames"].size},
    "pairwise_distances": lambda a, out: {
        "cluster.pairs": len(a["frames"]) * (len(a["frames"]) - 1) // 2
    },
    "select_clusters": lambda a, out: {
        "cluster.chosen": len(out.chosen),
        "cluster.abandoned": sum(len(c) for c in out.abandoned),
    },
    "circular_mean_frame": lambda a, out: {"circular.frames_averaged": len(a["frames"])},
    "detect_residues": lambda a, out: {"core.residues": residue_count(out)},
    "place_branch_cuts": lambda a, out: {"unwrap.cut_edges": out.edge_count},
    "flood_unwrap": _flood_counts,
    "zernike_fit_remove": lambda a, out: {"zernike.fits": 1},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    measurement: int


class Tracer:
    """Spans and counts of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.measurement = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.measurement))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[self.measurement][name] += value

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn)
        counter = COUNTERS.get(fn.__name__, lambda a, out: {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            for key, value in counter(signature.bind(*args, **kwargs).arguments, out).items():
                self.count(key, value)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Rebind every call site in CALL_SITES to a traced wrapper."""
        saved = []
        try:
            for module_name, names in CALL_SITES.items():
                module = sys.modules[module_name]
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(original))
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self, measurement: int) -> dict[str, float]:
        """Seconds per span name: span durations minus their children's.

        Spans run on one thread, so children never overlap and their
        durations sum to the part of the parent they cover.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s.measurement == measurement]
        covered = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out = defaultdict(float)
        for i, s in spans:
            out[s.name] += s.end - s.start - covered[i]
        return dict(out)
