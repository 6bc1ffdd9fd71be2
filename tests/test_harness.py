import json
import math
import stat

import numpy as np
import pytest

from endosim import harness
from endosim.cli import dispatch
from endosim.degrade import DegradationConfig, degrade
from endosim.harness import (
    SweepConfig,
    _atomic_write,
    compare_report,
    line_profile,
    profile_csv,
    run_sweep,
    sweep_config_from_json,
)
from endosim.image import Image
from endosim.metrics import psnr, ssim
from endosim.phantom import PhantomSpec
from endosim.srcnn import TrainConfig, init_model

TINY_SPEC = PhantomSpec(width=64, height=64, nucleus_radius_px=(2.0, 4.0))
TINY_TRAIN = TrainConfig(epochs=2, patch_size=32, patches_per_image=2,
                         batch_size=4, validation_interval=1)


def tiny_config(**kw):
    defaults = dict(
        phantom_specs=(TINY_SPEC,),
        train_count=2, val_count=1, test_count=2,
        baseline_fiber_diameter_um=4.0,
        baseline_inter_fiber_distance_um=8.0,
        baseline_offset_um=0.0,
        train_config=TINY_TRAIN,
        base_seed=11,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestSweepCells:
    def test_enumeration_order(self):
        cfg = tiny_config(offset_um=(0.0, 2.0), inter_fiber_distance_um=(8.0,),
                          fiber_diameter_um=(4.0,))
        cells = cfg.cells()
        assert [c.axis for c in cells] == [
            "offset", "offset", "inter_fiber_distance", "fiber_diameter"
        ]
        assert cells[1].degradation.max_offset_um == 2.0
        assert cells[2].degradation.inter_fiber_distance_um == 8.0

    def test_invalid_cell_fails_fast(self):
        cfg = tiny_config(fiber_diameter_um=(40.0,))  # m > baseline s
        with pytest.raises(ValueError, match="fiber_diameter"):
            cfg.cells()


class TestLineProfile:
    def test_constant(self):
        img = Image(np.full((8, 8), 0.2))
        np.testing.assert_array_equal(line_profile(img, 3, 0, 8), 0.2)

    def test_length(self):
        img = Image(np.random.default_rng(0).uniform(0, 1, (8, 10)))
        assert len(line_profile(img, 2, 3, 9)) == 6

    def test_out_of_bounds(self):
        img = Image(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            line_profile(img, 4, 0, 4)
        with pytest.raises(ValueError):
            line_profile(img, 0, 0, 5)

    def test_lr_profile_runs_are_tile_multiples(self):
        rng = np.random.default_rng(1)
        img = Image(rng.uniform(0, 1, (32, 32)))
        cfg = DegradationConfig(fiber_diameter_um=4, inter_fiber_distance_um=8,
                                max_offset_um=0)
        lr = degrade(img, cfg, np.random.default_rng(0)).lr
        profile = line_profile(lr, 5, 0, 32)
        runs = []
        run = 1
        for a, b in zip(profile, profile[1:]):
            if a == b:
                run += 1
            else:
                runs.append(run)
                run = 1
        runs.append(run)
        assert all(r % cfg.s_px == 0 for r in runs)

    def test_csv_format(self):
        text = profile_csv(np.array([0.5, 0.25, 1 / 3, 0.0, 1.0, 2e-10]), col_start=3)
        assert text == (
            "col,intensity\n3,0.5\n4,0.25\n5,0.333333333\n6,0\n7,1\n8,2e-10\n"
        )


class TestCompareReport:
    def test_sr_equals_hr(self):
        rng = np.random.default_rng(2)
        hr = Image(rng.uniform(0, 1, (16, 16)))
        lr = Image(np.clip(hr.data + rng.normal(0, 0.05, hr.data.shape), 0, 1))
        rep = compare_report(hr, lr, hr)
        assert math.isinf(rep.psnr_sr)
        assert abs(rep.delta_ssim - (1.0 - ssim(hr, lr))) <= 1e-12

    def test_sr_equals_lr_deltas_zero(self):
        rng = np.random.default_rng(3)
        hr = Image(rng.uniform(0, 1, (16, 16)))
        lr = Image(np.clip(hr.data + 0.05, 0, 1))
        rep = compare_report(hr, lr, lr)
        assert rep.delta_psnr == 0.0 and rep.delta_ssim == 0.0

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(4)
        hr = Image(rng.uniform(0, 1, (16, 16)))
        lr = Image(rng.uniform(0, 1, (16, 16)))
        sr = Image(rng.uniform(0, 1, (16, 16)))
        rep = compare_report(hr, lr, sr)
        assert rep.psnr_lr == psnr(hr, lr)
        assert rep.ssim_sr == ssim(hr, sr)
        line = rep.csv_line()
        assert line.startswith("psnr_lr,ssim_lr,psnr_sr,ssim_sr")


class TestRunSweep:
    def test_identity_cell_metrics(self, tmp_path):
        cfg = tiny_config(
            offset_um=(0.0,),
            baseline_fiber_diameter_um=2.0,
            baseline_inter_fiber_distance_um=2.0,
            pixel_size_um=2.0,
        )
        rows, csv_text = run_sweep(cfg, out_dir=tmp_path)
        assert len(rows) == 1
        assert math.isinf(rows[0].mean_psnr_lr)
        assert abs(rows[0].mean_ssim_lr - 1.0) <= 1e-12
        assert math.isfinite(rows[0].mean_psnr_sr)
        assert ",inf," in csv_text
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "offset_00.weights").exists()
        assert (tmp_path / "offset_00_hr.pgm").exists()
        assert (tmp_path / "offset_00_profile.csv").exists()

    def test_row_cardinality(self):
        cfg = tiny_config(offset_um=(0.0, 2.0, 4.0))
        rows, csv_text = run_sweep(cfg)
        assert len(rows) == 3
        assert len(csv_text.splitlines()) == 4  # header + 3 rows

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_config())

    def test_results_csv_bytes_with_integer_axes(self, tmp_path, monkeypatch):
        # m = s = one pixel and d = 0 make LR equal HR; training is stubbed
        # and SR is the LR frame, so no BLAS result reaches the bytes
        monkeypatch.setattr(harness, "train", lambda pairs, val, cfg: (
            init_model(cfg.seed, channels=(2, 2)), None))
        monkeypatch.setattr(harness, "infer", lambda model, lr: lr)
        doc = {
            "phantom_specs": [{"width": 32, "height": 32}],
            "train_count": 1, "val_count": 1, "test_count": 2,
            "offset_um": [0], "inter_fiber_distance_um": [2],
            "baseline_fiber_diameter_um": 2, "baseline_inter_fiber_distance_um": 2,
            "baseline_offset_um": 0, "pixel_size_um": 2, "base_seed": 3,
        }
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert dispatch(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "results.csv").read_bytes() == (
            b"axis,m_um,s_um,d_um,seed,mean_psnr_lr,std_psnr_lr,mean_psnr_sr,"
            b"std_psnr_sr,mean_ssim_lr,std_ssim_lr,mean_ssim_sr,std_ssim_sr\n"
            b"offset,2,2,0,3971923128,inf,nan,inf,nan,1,0,1,0\n"
            b"inter_fiber_distance,2,2,0,2340540091,inf,nan,inf,nan,1,0,1,0\n"
        )
        timings = (out / "timings.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in timings] == [
            "axis,m_um,s_um,d_um", "offset,2,2,0", "inter_fiber_distance,2,2,0",
        ]


class TestSweepConfigJson:
    DOC = {
        "phantom_specs": [{"width": 64, "height": 64}],
        "train_count": 2, "val_count": 1, "test_count": 2,
        "offset_um": [0.0, 2.0],
        "baseline_fiber_diameter_um": 4.0,
        "baseline_inter_fiber_distance_um": 8.0,
        "train": {"epochs": 2, "patch_size": 32},
        "base_seed": 5,
    }

    def test_roundtrip(self):
        cfg = sweep_config_from_json(json.loads(json.dumps(self.DOC)))
        assert cfg.offset_um == (0.0, 2.0)
        assert cfg.train_config.epochs == 2
        assert cfg.phantom_specs[0].width == 64

    def test_unknown_top_level_key(self):
        doc = dict(self.DOC, bogus=1)
        with pytest.raises(ValueError, match="bogus"):
            sweep_config_from_json(doc)

    def test_unknown_train_key(self):
        doc = dict(self.DOC, train={"epochs": 2, "momentum": 0.9})
        with pytest.raises(ValueError, match="momentum"):
            sweep_config_from_json(doc)

    def test_unknown_phantom_key(self):
        doc = dict(self.DOC, phantom_specs=[{"width": 64, "colour": "red"}])
        with pytest.raises(ValueError, match="colour"):
            sweep_config_from_json(doc)


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_block(self, tmp_path):
        # a fixed "<path>.tmp" temp name would collide with this directory
        (tmp_path / "out.csv.tmp").mkdir()
        _atomic_write(tmp_path / "out.csv", b"payload")
        assert (tmp_path / "out.csv").read_bytes() == b"payload"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]

    def test_failed_rename_removes_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()  # a file cannot replace a directory
        with pytest.raises(OSError):
            _atomic_write(tmp_path / "out", b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_mode_matches_a_plain_write(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        _atomic_write(str(tmp_path / "atomic"), b"payload")
        modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("plain", "atomic")}
        assert len(modes) == 1
