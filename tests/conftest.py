"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from endosim import srcnn
from endosim.degrade import DegradationConfig, degrade


@pytest.fixture
def identity_check():
    """degrade with degenerate 1-pixel fibers and no gaps, which reproduces the
    input exactly."""
    cfg = DegradationConfig(
        pixel_size_um=1.0,
        fiber_diameter_um=1.0,
        inter_fiber_distance_um=1.0,
        max_offset_um=0.0,
    )
    return lambda image: degrade(image, cfg, np.random.default_rng(0)).lr


@pytest.fixture
def recording_pool(monkeypatch):
    """The worker counts of the srcnn._pools started in the test."""
    workers, real_pool = [], srcnn._pool

    def pool(n):
        workers.append(n)
        return real_pool(n)

    monkeypatch.setattr(srcnn, "_pool", pool)
    return workers
