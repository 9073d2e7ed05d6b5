import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from phasestack import core, zernike

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def block_pool(request, monkeypatch):
    """Run ``core.map_blocks`` with 1 or 2 worker threads, whatever the
    machine has.  Returns ``use_blocks(frames_per_block, frame_shape)``,
    which shrinks the blocks to that many float64 frames of that shape."""
    monkeypatch.setattr(core, "WORKERS", request.param)

    def use_blocks(frames_per_block, frame_shape):
        monkeypatch.setattr(core, "BLOCK_BYTES", frames_per_block * 8 * int(np.prod(frame_shape)))

    return use_blocks


@pytest.fixture
def fit_builds(monkeypatch) -> list:
    """The fit each Zernike per-mask build (``zernike._factor``) of the test
    returns, in order."""
    builds = []
    real = zernike._factor

    def factor(*args):
        builds.append(real(*args))
        return builds[-1]

    monkeypatch.setattr(zernike, "_factor", factor)
    return builds
