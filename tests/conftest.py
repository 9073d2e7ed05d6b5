import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from phasestack import core

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
def svd_calls(monkeypatch) -> list:
    """The shape of every ``np.linalg.svd`` call the test makes: one per
    Zernike factorization."""
    calls = []
    real = np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls
