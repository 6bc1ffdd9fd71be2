import numpy as np
import pytest

from endosim.degrade import (
    DegradationConfig,
    degrade,
    grid_geometry,
    identity_check,
)
from endosim.image import Image


def cfg_px(m_px, s_px, d_px=0, pixel=2.0):
    return DegradationConfig(
        pixel_size_um=pixel,
        fiber_diameter_um=m_px * pixel,
        inter_fiber_distance_um=s_px * pixel,
        max_offset_um=d_px * pixel,
    )


def replay_lr(image, cfg, samples):
    """Independent reconstruction of the LR frame from the sample log."""
    lr = image.data.copy()
    m = cfg.m_px
    for (ty, tx), (ry, rx) in zip(samples["tile_origin"].tolist(),
                                  samples["roi_origin"].tolist()):
        roi = image.data[ry : ry + m, rx : rx + m]
        lr[ty : ty + cfg.s_px, tx : tx + cfg.s_px] = roi.mean()
    return lr


class TestConfig:
    def test_derived_pixel_quantities(self):
        cfg = DegradationConfig(fiber_diameter_um=6, inter_fiber_distance_um=12,
                                max_offset_um=2)
        assert (cfg.m_px, cfg.s_px, cfg.d_px) == (3, 6, 1)

    def test_m_below_pixel_rejected(self):
        with pytest.raises(ValueError):
            DegradationConfig(fiber_diameter_um=1.0, inter_fiber_distance_um=8)

    def test_s_below_m_rejected(self):
        with pytest.raises(ValueError):
            DegradationConfig(fiber_diameter_um=8, inter_fiber_distance_um=4)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            DegradationConfig(max_offset_um=-1)

    @pytest.mark.parametrize("field", ["pixel_size_um", "fiber_diameter_um",
                                       "inter_fiber_distance_um", "max_offset_um"])
    def test_int_past_float_range_names_its_field(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a finite float$"):
            DegradationConfig(**{field: 10**309})

    def test_offset_bound(self):
        # at d = 2**62 pixels the offsets draw and clamp without int64 wrap-around
        # (checked against exact Python ints); the next float up is rejected
        image = Image(np.random.default_rng(2).uniform(0, 1, (12, 12)))
        at = 2.0 * 2**62
        cfg = DegradationConfig(max_offset_um=at)
        assert cfg.d_px == 2**62
        pair = degrade(image, cfg, np.random.default_rng(3))
        h_max, s, m = 12 - cfg.m_px, cfg.s_px, cfg.m_px
        log = pair.samples
        for tile, offset, roi in zip(log["tile_origin"].tolist(), log["offset"].tolist(),
                                     log["roi_origin"].tolist()):
            assert all(abs(o) <= 2**62 for o in offset)
            assert roi == [min(max(t + (s - m) // 2 + o, 0), h_max)
                           for t, o in zip(tile, offset)]
        with pytest.raises(ValueError, match="max_offset_um must be at most"):
            DegradationConfig(max_offset_um=np.nextafter(at, np.inf))


class TestGridGeometry:
    def test_hand_geometry(self):
        cfg = cfg_px(m_px=2, s_px=4)
        tiles = grid_geometry(cfg, 8, 8)
        assert len(tiles) == 4
        assert tuple(tiles[0]) == (0, 0)
        margin = (cfg.s_px - cfg.m_px) // 2
        assert margin == 1  # nominal ROI origin of tile (0,0) is (1,1)

    def test_zero_margin_when_s_equals_m(self):
        cfg = cfg_px(m_px=3, s_px=3)
        assert (cfg.s_px - cfg.m_px) // 2 == 0

    def test_uncovered_strip(self):
        cfg = cfg_px(m_px=2, s_px=4)
        tiles = grid_geometry(cfg, 9, 8)
        cols = {tx for _, tx in tiles}
        assert cols == {0, 4}  # rightmost 1-pixel strip carries no fiber

    def test_image_smaller_than_tile(self):
        with pytest.raises(ValueError):
            grid_geometry(cfg_px(2, 4), 3, 3)


class TestDegrade:
    def test_constant_image(self):
        img = Image(np.full((8, 8), 0.3))
        pair = degrade(img, cfg_px(2, 4, d_px=1), np.random.default_rng(0))
        np.testing.assert_array_equal(pair.lr.data, 0.3)
        for ry, rx in pair.samples["roi_origin"].tolist():
            assert np.all(pair.sparse.data[ry : ry + 2, rx : rx + 2] == 0.3)

    def test_checkerboard_means(self):
        data = np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float
        )
        pair = degrade(Image(data), cfg_px(2, 2), np.random.default_rng(0))
        np.testing.assert_array_equal(pair.lr.data, 0.5)

    def test_central_roi_mean(self):
        data = np.arange(16, dtype=float).reshape(4, 4) / 15.0
        pair = degrade(Image(data), cfg_px(2, 4), np.random.default_rng(0))
        expected = data[1:3, 1:3].mean()
        np.testing.assert_array_equal(pair.lr.data, expected)

    def test_lr_within_roi_range(self):
        rng = np.random.default_rng(31)
        img = Image(rng.uniform(0, 1, (16, 16)))
        pair = degrade(img, cfg_px(2, 4, d_px=2), rng)
        for (ry, rx), mean in zip(pair.samples["roi_origin"].tolist(),
                                  pair.samples["mean"].tolist()):
            roi = img.data[ry : ry + 2, rx : rx + 2]
            assert roi.min() <= mean <= roi.max()

    def test_replay_oracle(self):
        rng = np.random.default_rng(37)
        img = Image(rng.uniform(0, 1, (17, 23)))
        cfg = cfg_px(2, 5, d_px=2)
        pair = degrade(img, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(pair.lr.data, replay_lr(img, cfg, pair.samples))

    def test_offsets_bounded(self):
        rng = np.random.default_rng(41)
        img = Image(rng.uniform(0, 1, (20, 20)))
        pair = degrade(img, cfg_px(1, 4, d_px=3), np.random.default_rng(8))
        for dy, dx in pair.samples["offset"].tolist():
            assert abs(dy) <= 3 and abs(dx) <= 3

    def test_seed_determinism(self):
        rng = np.random.default_rng(43)
        img = Image(rng.uniform(0, 1, (16, 16)))
        a = degrade(img, cfg_px(2, 4, d_px=2), np.random.default_rng(5))
        b = degrade(img, cfg_px(2, 4, d_px=2), np.random.default_rng(5))
        assert a.lr == b.lr and np.array_equal(a.samples, b.samples)

    def test_global_mean_preserved_when_partitioning(self):
        rng = np.random.default_rng(47)
        img = Image(rng.uniform(0, 1, (12, 12)))
        pair = degrade(img, cfg_px(3, 3), np.random.default_rng(0))
        assert abs(pair.lr.data.mean() - img.data.mean()) <= 1e-12

    def test_monotone_information_loss_in_s(self):
        rng = np.random.default_rng(53)
        img = Image(rng.uniform(0, 1, (24, 24)))
        contributing = []
        for s_px in (2, 4, 6, 8):
            cfg = cfg_px(2, s_px)
            pair = degrade(img, cfg, np.random.default_rng(0))
            contributing.append(len(pair.samples) * cfg.m_px**2)
        assert all(a >= b for a, b in zip(contributing, contributing[1:]))

    def test_border_strips_copy_source(self):
        rng = np.random.default_rng(59)
        img = Image(rng.uniform(0, 1, (10, 10)))
        pair = degrade(img, cfg_px(2, 4), np.random.default_rng(0))
        np.testing.assert_array_equal(pair.lr.data[8:, :], img.data[8:, :])
        np.testing.assert_array_equal(pair.lr.data[:8, 8:], img.data[:8, 8:])


class TestIdentityCheck:
    def test_small_random(self):
        rng = np.random.default_rng(61)
        img = Image(rng.uniform(0, 1, (7, 7)))
        assert identity_check(img) == img

    def test_any_shape(self):
        img = Image(np.random.default_rng(67).uniform(0, 1, (13, 9)))
        assert identity_check(img) == img
