import struct

import numpy as np
import pytest

from endosim import srcnn
from endosim.cli import dispatch
from endosim.degrade import DegradationConfig, degrade
from endosim.image import Image, load_pgm, save_pgm


def write_phantom(tmp_path, name="hr.pgm", seed=1, size=64):
    path = tmp_path / name
    code = dispatch(["phantom", "--width", str(size), "--height", str(size),
                     "--seed", str(seed), str(path)])
    assert code == 0
    return path


class TestDispatch:
    def test_no_arguments_usage_error(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert dispatch(["metrics", str(tmp_path / "a.pgm"),
                         str(tmp_path / "b.pgm")]) == 2


class TestMetricsCommand:
    def test_identity_pair(self, tmp_path, capsys):
        p = write_phantom(tmp_path)
        assert dispatch(["metrics", str(p), str(p)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("inf,1.0")


class TestPhantomDegradePipeline:
    def test_degrade_outputs(self, tmp_path):
        hr = write_phantom(tmp_path)
        lr = tmp_path / "lr.pgm"
        sparse = tmp_path / "sparse.pgm"
        samples = tmp_path / "samples.csv"
        code = dispatch([
            "degrade", "--fiber-diameter", "4", "--inter-fiber-distance", "8",
            "--max-offset", "2", "--seed", "3",
            "--emit-sparse", str(sparse), "--emit-samples", str(samples),
            str(hr), str(lr),
        ])
        assert code == 0
        assert load_pgm(lr.read_bytes()).width == 64
        assert samples.read_text().startswith("tile_row,tile_col")
        assert sparse.exists()

    def test_samples_csv_matches_sample_log(self, tmp_path):
        hr = write_phantom(tmp_path)
        lr, samples = tmp_path / "lr.pgm", tmp_path / "samples.csv"
        assert dispatch([
            "degrade", "--fiber-diameter", "4", "--inter-fiber-distance", "8",
            "--max-offset", "4", "--seed", "5", "--emit-samples", str(samples),
            str(hr), str(lr),
        ]) == 0
        cfg = DegradationConfig(fiber_diameter_um=4, inter_fiber_distance_um=8,
                                max_offset_um=4)
        pair = degrade(load_pgm(hr.read_bytes()), cfg, np.random.default_rng(5))
        expected = [
            f"{s.tile_origin[0]},{s.tile_origin[1]},{s.roi_origin[0]},"
            f"{s.roi_origin[1]},{s.offset[1]},{s.offset[0]},{s.mean_value:.9g}"
            for s in pair.samples
        ]
        assert samples.read_text().splitlines()[1:] == expected

    def test_deterministic_outputs(self, tmp_path):
        hr = write_phantom(tmp_path)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        argv = ["degrade", "--fiber-diameter", "4", "--inter-fiber-distance",
                "8", "--max-offset", "2", "--seed", "3", str(hr)]
        assert dispatch(argv + [str(a)]) == 0
        assert dispatch(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPreprocessCommand:
    def test_runs(self, tmp_path):
        hr = write_phantom(tmp_path)
        out = tmp_path / "pp.pgm"
        assert dispatch(["preprocess", "--sigma", "2", str(hr), str(out)]) == 0
        assert load_pgm(out.read_bytes()).height == 64


class TestProfileCommand:
    def test_profile_csv(self, tmp_path):
        hr = write_phantom(tmp_path)
        out = tmp_path / "profile.csv"
        assert dispatch(["profile", "--row", "10", str(hr), str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "col,intensity"
        assert len(lines) == 65


class TestSampleSizeCommand:
    def test_prints_integer(self, capsys):
        assert dispatch(["samplesize", "--limit", "0.15", "--p", "0.7"]) == 0
        assert int(capsys.readouterr().out.strip()) > 0

    def test_bad_parameter_is_data_error(self):
        assert dispatch(["samplesize", "--limit", "1.5", "--p", "0.7"]) == 2


class TestReaderstatsCommand:
    def test_report_files(self, tmp_path):
        rows = ["image_id,reader_id,modality,call,confidence,truth"]
        for reader in ("r1", "r2"):
            for i in range(6):
                truth = "neoplastic" if i % 2 else "non_neoplastic"
                call = truth if (i + len(reader)) % 3 else "neoplastic"
                for modality in ("HR", "SR"):
                    rows.append(f"img{i},{reader},{modality},{call},high,{truth}")
        reads = tmp_path / "reads.csv"
        reads.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report"
        assert dispatch(["readerstats", "--reads", str(reads),
                         "--out", str(out)]) == 0
        assert (out / "per_reader.csv").exists()
        assert (out / "t_tests.csv").exists()
        assert (out / "confidence_rates.csv").exists()


class TestTrainInferCommands:
    def test_end_to_end_micro(self, tmp_path):
        data = tmp_path / "data"
        for split, seeds in (("train", (1, 2)), ("val", (3,))):
            d = data / split
            d.mkdir(parents=True)
            for s in seeds:
                hr = write_phantom(tmp_path, name=f"tmp{split}{s}.pgm",
                                   seed=s, size=48)
                lrp = tmp_path / "lr_tmp.pgm"
                assert dispatch(["degrade", "--fiber-diameter", "4",
                                 "--inter-fiber-distance", "8",
                                 str(hr), str(lrp)]) == 0
                (d / f"{s}_hr.pgm").write_bytes(hr.read_bytes())
                (d / f"{s}_lr.pgm").write_bytes(lrp.read_bytes())
        weights = tmp_path / "model.weights"
        history = tmp_path / "history.csv"
        assert dispatch(["train", "--epochs", "2", "--patch-size", "24",
                         "--patches-per-image", "2", "--history", str(history),
                         str(data), str(weights)]) == 0
        assert history.read_text().startswith("epoch,train_mse,val_mse")
        sr = tmp_path / "sr.pgm"
        lr_input = data / "val" / "3_lr.pgm"
        assert dispatch(["infer", str(weights), str(lr_input), str(sr)]) == 0
        assert load_pgm(sr.read_bytes()).width == 48

    def test_history_csv_bytes(self, tmp_path, monkeypatch):
        # training is stubbed so the bytes pin the CSV rendering, not BLAS
        history = srcnn.TrainHistory(
            [(0, float("nan"), 0.25), (1, 1 / 3, float("inf")),
             (2, np.float64(2e-7), float("-inf")), (3, -0.0, float("nan"))]
        )
        monkeypatch.setattr(
            srcnn, "train",
            lambda pairs, val, cfg: (srcnn.init_model(0, channels=(2, 2)), history),
        )
        for split in ("train", "val"):
            (tmp_path / "data" / split).mkdir(parents=True)
            hr = write_phantom(tmp_path / "data" / split, name="a_hr.pgm", size=16)
            (hr.parent / "a_lr.pgm").write_bytes(hr.read_bytes())
        out = tmp_path / "history.csv"
        assert dispatch(["train", "--history", str(out), str(tmp_path / "data"),
                         str(tmp_path / "model.weights")]) == 0
        assert out.read_bytes() == (
            b"epoch,train_mse,val_mse\n"
            b"0,nan,0.250000\n"
            b"1,0.333333,inf\n"
            b"2,0.000000,-inf\n"
            b"3,-0.000000,nan\n"
        )

    def test_out_of_range_slope_is_data_error(self, tmp_path):
        blob = bytearray(srcnn.save_weights(srcnn.init_model(0, channels=(2, 2))))
        blob[8:12] = struct.pack("<f", 1.5)  # the stored LReLU slope
        weights = tmp_path / "model.weights"
        weights.write_bytes(bytes(blob))
        lr = write_phantom(tmp_path, size=16)
        assert dispatch(["infer", str(weights), str(lr),
                         str(tmp_path / "sr.pgm")]) == 2
        assert not (tmp_path / "sr.pgm").exists()
