import numpy as np
import pytest

from endosim.degrade import DegradationConfig, degrade, grid_geometry
from endosim.image import Image


@pytest.mark.parametrize("d", [1, 3])
def test_offsets_replay_scalar_draws(d):
    """Offsets are drawn d_y then d_x per fiber in row-major tile order, as
    scalar draws would be, and leave the generator in the same state."""
    cfg = DegradationConfig(pixel_size_um=1.0, fiber_diameter_um=2.0,
                            inter_fiber_distance_um=5.0, max_offset_um=float(d))
    img = Image(np.random.default_rng(30).uniform(0, 1, (41, 53)))
    rng = np.random.default_rng(31 + d)
    pair = degrade(img, cfg, rng)

    replay = np.random.default_rng(31 + d)
    expected = [
        (int(replay.integers(-d, d + 1)), int(replay.integers(-d, d + 1)))
        for _ in grid_geometry(cfg, img.width, img.height)
    ]
    assert [tuple(o) for o in pair.offsets.tolist()] == expected
    assert [smp.offset for smp in pair.samples] == expected
    assert rng.random() == replay.random()


def test_zero_offset_draws_nothing():
    """At d_px = 0 the offsets are int64 zeros and the generator is left
    as it was."""
    cfg = DegradationConfig(pixel_size_um=1.0, fiber_diameter_um=2.0,
                            inter_fiber_distance_um=5.0, max_offset_um=0.4)
    img = Image(np.random.default_rng(30).uniform(0, 1, (41, 53)))
    rng = np.random.default_rng(33)
    pair = degrade(img, cfg, rng)
    assert pair.offsets.dtype == np.int64 and not pair.offsets.any()
    assert pair.offsets.shape == grid_geometry(cfg, img.width, img.height).shape
    assert rng.bit_generator.state == np.random.default_rng(33).bit_generator.state
