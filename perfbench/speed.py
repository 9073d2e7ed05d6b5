"""Reference kernel that gauges how fast the shared machine runs right now.

The benchmark's host is shared, and its speed drifts by up to about 40%
over seconds to minutes as other tenants' load changes.  CPU time drifts
with wall time, so the drift is slower execution, not time stolen from the
process.  Over ten seeds run one after another, that drift is wider than
any bound the benchmark may set on a wall time.

So each measurement is bracketed by two runs of this fixed kernel, and its
time is reported in the kernel's units: seconds x REFERENCE_S / (mean of
the two kernel times).  That reads as the seconds the measurement would
take at the speed where the kernel takes REFERENCE_S.  The kernel uses
numpy and the interpreter only, never phasestack, so no change to the
program can change it.  It mixes the two kinds of work the program does:
masked element-wise passes over a 1000 x 1000 array, as in
``cluster.agglomerate``, and a pure-Python breadth-first walk of a
128 x 128 grid, as in ``unwrap.flood_unwrap``.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

# The kernel's time at the reference speed: about its time on a 2-vCPU
# Xeon at 2.1 GHz (Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.4
PASSES = 40
WALKS = 6


def _masked_passes(rng) -> float:
    d = rng.random((1000, 1000))
    active = rng.random(1000) < 0.9
    total = 0.0
    for _ in range(PASSES):
        m = np.where(active[:, None] & active[None, :], d, np.inf)
        total += float(m.min()) + float(np.sqrt(m[active][:, active]).sum())
    return total


def _grid_walk(rng) -> float:
    h = w = 128
    g = rng.random(h * w).tolist()
    out = [0.0] * (h * w)
    seen = bytearray(h * w)
    seen[0] = 1
    queue = deque([0])
    while queue:
        p = queue.popleft()
        r, c = divmod(p, w)
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < h and 0 <= cc < w:
                k = rr * w + cc
                if not seen[k]:
                    seen[k] = 1
                    d = g[k] - g[p]
                    out[k] = out[p] + d - round(d)
                    queue.append(k)
    return sum(x * x for x in out)


def kernel() -> float:
    """The fixed work; returns a checksum that is the same on every call."""
    rng = np.random.default_rng(0)
    return _masked_passes(rng) + sum(_grid_walk(rng) for _ in range(WALKS))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
