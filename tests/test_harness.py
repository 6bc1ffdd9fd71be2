import json
import math
import stat
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from endosim import harness, srcnn
from endosim.cli import dispatch
from endosim.degrade import DegradationConfig, degrade
from endosim.harness import (
    SweepConfig,
    SweepFailed,
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
from endosim.srcnn import TrainConfig, TrainingDiverged, init_model

TINY_SPEC = PhantomSpec(width=64, height=64, nucleus_radius_px=(2.0, 4.0))
TINY_TRAIN = TrainConfig(epochs=2, patch_size=32, patches_per_image=2,
                         batch_size=4, validation_interval=1)
CELL_SUFFIXES = (".weights", "_hr.pgm", "_lr.pgm", "_sr.pgm", "_profile.csv")


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
        assert abs(rep.ssim_sr - 1.0) <= 1e-12 and rep.ssim_lr == ssim(hr, lr)

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(4)
        hr = Image(rng.uniform(0, 1, (16, 16)))
        lr = Image(rng.uniform(0, 1, (16, 16)))
        sr = Image(rng.uniform(0, 1, (16, 16)))
        rep = compare_report(hr, lr, sr)
        assert rep.psnr_lr == psnr(hr, lr)
        assert rep.ssim_sr == ssim(hr, sr)


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
            "train": {"patch_size": 8},
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

    def test_cell_files_identical_across_thread_counts(self, tmp_path):
        cfg = tiny_config(offset_um=(0.0, 2.0), fiber_diameter_um=(2.0,))
        files = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run_sweep(cfg, out_dir=out, threads=threads)
            files.append({p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "timings.csv"})
        assert len(files[0]) == 1 + 3 * len(CELL_SUFFIXES)
        assert files[0] == files[1]

    def test_threads_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(tiny_config(offset_um=(0.0,)), threads=0)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(TestSweepConfigJson.DOC))
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--threads", "0"]
        assert dispatch(argv) == 2
        assert not out.exists()

    def test_failed_cell_keeps_finished_cells(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "sweep.json"
        doc = dict(TestSweepConfigJson.DOC, offset_um=[0, 2, 4, 6])
        config.write_text(json.dumps(doc))
        cfg = sweep_config_from_json(doc)
        # cells 1 and 3 diverge; the error names both and carries cell 1's.
        # A cell's training seed is the second word of its SeedSequence
        # state, spawned from base_seed at (axis_idx, cell_idx)
        failing = {int(np.random.SeedSequence(cfg.base_seed, spawn_key=(
            cell.axis_idx, cell.cell_idx)).generate_state(2)[1]): i
            for i, cell in enumerate(cfg.cells()) if i in (1, 3)}

        def train(pairs, val, train_cfg):
            if train_cfg.seed in failing:
                raise TrainingDiverged(f"cell {failing[train_cfg.seed]} diverged")
            return init_model(train_cfg.seed, channels=(2, 2)), None

        monkeypatch.setattr(harness, "train", train)
        expected = {f"offset_{i:02d}{suffix}"
                    for i in (0, 2) for suffix in CELL_SUFFIXES}
        message = r"offset\[1\], offset\[3\] failed: cell 1 diverged"
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            with pytest.raises(SweepFailed, match=message) as info:
                run_sweep(cfg, out_dir=out, threads=threads)
            assert isinstance(info.value.__cause__, TrainingDiverged)
            assert str(info.value.__cause__) == "cell 1 diverged"
            assert {p.name for p in out.iterdir()} == expected
        out = tmp_path / "cli"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--threads", "2"]
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert {p.name for p in out.iterdir()} == expected
        assert capsys.readouterr().err == (
            "error: sweep cells offset[1], offset[3] failed: cell 1 diverged\n")


# the real lookup, kept before any test replaces it
_BLAS_THREAD_FNS = srcnn._openblas_thread_fns


def blas_threads() -> list[int]:
    return [get() for get, _ in _BLAS_THREAD_FNS()]


class TestBlasCap:
    """While cells run concurrently, run_sweep caps OpenBLAS at one thread
    and restores the previous count afterwards."""

    @pytest.fixture(autouse=True)
    def two_blas_threads(self):
        fns = _BLAS_THREAD_FNS()
        if not fns:
            pytest.skip("no OpenBLAS thread control in this process")
        old = blas_threads()
        for _, set_ in fns:
            set_(2)
        yield
        for (_, set_), count in zip(fns, old):
            set_(count)

    @pytest.fixture
    def seen(self, monkeypatch):
        """BLAS thread counts seen by each cell's (stubbed) training."""
        seen = []

        def train(pairs, val, cfg):
            seen.append(blas_threads())
            return init_model(cfg.seed, channels=(2, 2)), None

        monkeypatch.setattr(harness, "train", train)
        monkeypatch.setattr(harness, "infer", lambda model, lr: lr)
        return seen

    def test_lookup_reaches_numpy_blas(self):
        # numpy's wheel bundles a 64-bit-index scipy-openblas, whose symbols
        # end in 64_; the one scipy bundles has no 64_ symbols
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        if (blas.get("name") != "scipy-openblas"
                or "USE64BITINT" not in blas.get("openblas configuration", "")):
            pytest.skip("numpy is not built on 64-bit-index scipy-openblas")
        names = [get.__name__ for get, _ in _BLAS_THREAD_FNS()]
        assert "scipy_openblas_get_num_threads64_" in names

    def test_capped_while_cells_run_concurrently(self, seen):
        cfg = tiny_config(offset_um=(0.0, 2.0))
        run_sweep(cfg, threads=2)
        assert seen == [[1] * len(blas_threads())] * 2
        assert set(blas_threads()) == {2}

    def test_restored_after_failed_sweep(self, seen, monkeypatch):
        def failing_train(pairs, val, cfg):
            seen.append(blas_threads())
            raise TrainingDiverged("cell diverged")

        monkeypatch.setattr(harness, "train", failing_train)
        with pytest.raises(SweepFailed):
            run_sweep(tiny_config(offset_um=(0.0, 2.0)), threads=2)
        assert seen == [[1] * len(blas_threads())] * 2
        assert set(blas_threads()) == {2}

    @pytest.mark.parametrize("offsets, threads", [((0.0, 2.0), 1), ((0.0,), 2)])
    def test_uncapped_with_one_worker(self, seen, offsets, threads):
        run_sweep(tiny_config(offset_um=offsets), threads=threads)
        assert seen and all(set(counts) == {2} for counts in seen)
        assert set(blas_threads()) == {2}

    def test_warns_without_openblas(self, seen, monkeypatch):
        cfg = tiny_config(offset_um=(0.0, 2.0))
        rows, _ = run_sweep(cfg, threads=1)
        monkeypatch.setattr(srcnn, "_openblas_thread_fns", lambda: ())
        with pytest.warns(RuntimeWarning, match="numpy's BLAS"):
            fallback, _ = run_sweep(cfg, threads=2)
        assert [replace(r, train_seconds=0) for r in fallback] == [
            replace(r, train_seconds=0) for r in rows]
        assert all(set(counts) == {2} for counts in seen)
        assert set(blas_threads()) == {2}


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_cell_starts_no_thread(monkeypatch, threads):
    # cells run on the sweep's pool threads, so train runs a cell's shards
    # serially in the cell's thread: one image per shard gives four shards
    # a step, and no step may see a thread beyond the sweep's workers
    monkeypatch.setattr(srcnn, "_SHARD_PIXELS", TINY_TRAIN.patch_size ** 2)
    real = srcnn._shard_grads
    seen = []

    def counting(*args):
        seen.append(len(threading.enumerate()))
        return real(*args)

    monkeypatch.setattr(srcnn, "_shard_grads", counting)
    before = len(threading.enumerate())
    run_sweep(tiny_config(offset_um=(0.0, 2.0)), threads=threads)
    assert len(seen) == 2 * 2 * 4  # cells x epochs (one step each) x shards
    assert max(seen) <= before + threads
    assert len(threading.enumerate()) == before


class TestSweepConfigJson:
    DOC = {
        "phantom_specs": [{"width": 64, "height": 64, "nucleus_radius_px": [2.0, 4.0]}],
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
        assert cfg.phantom_specs[0].nucleus_radius_px == (2.0, 4.0)

    def test_unknown_top_level_key(self):
        # the JSON key of train_config is "train"; the field name is not a key
        for key in ("bogus", "train_config"):
            with pytest.raises(ValueError,
                               match=f"unknown sweep config keys: \\['{key}'\\]"):
                sweep_config_from_json(dict(self.DOC, **{key: {}}))

    def test_unknown_train_key(self):
        doc = dict(self.DOC, train={"epochs": 2, "momentum": 0.9})
        with pytest.raises(ValueError, match="momentum"):
            sweep_config_from_json(doc)

    def test_train_seed_is_data_error(self, tmp_path, capsys):
        # each cell's training seed derives from base_seed, so a seed set here
        # would change nothing
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(self.DOC, train={"epochs": 2, "seed": 123456})))
        out = tmp_path / "out"
        assert dispatch(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "key seed is not settable" in err and "base_seed" in err
        assert not out.exists()

    def test_unknown_phantom_key(self):
        doc = dict(self.DOC, phantom_specs=[{"width": 64, "colour": "red"}])
        with pytest.raises(ValueError, match="colour"):
            sweep_config_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"phantom_specs": 5},
        {"phantom_specs": [5]},
        {"phantom_specs": [{"width": "abc"}]},
        {"phantom_specs": [{}], "train": 5},
        {"phantom_specs": [{}], "train": {"epochs": "3"}},
        {"phantom_specs": [{}], "offset_um": [0, "x"]},
        {"phantom_specs": [{}], "offset_um": 5},
    ])
    def test_malformed_document_is_data_error(self, tmp_path, capsys, doc):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert dispatch(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc, field", [
        ({"phantom_specs": [{"width": 64.5, "height": 64}]}, "width"),
        ({"phantom_specs": [{"width": 64, "height": 64}], "train_count": 1.5}, "train_count"),
        ({"phantom_specs": [{"width": 64, "height": 64}],
          "train": {"epochs": 1.5, "patch_size": 32}}, "epochs"),
    ])
    def test_float_in_int_field_is_data_error(self, tmp_path, capsys, doc, field):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**doc, "offset_um": [0.0, 2.0]}))
        out = tmp_path / "out"
        assert dispatch(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{field} must be an integer" in err
        assert not out.exists()

    def test_readme_sweep_json_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Sweep JSON", 1)[1].split("```json\n", 1)[1]
        cfg = sweep_config_from_json(json.loads(block.split("```", 1)[0]))
        assert [c.axis for c in cfg.cells()] == (
            ["offset"] * 3 + ["inter_fiber_distance"] * 3 + ["fiber_diameter"] * 2)


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
