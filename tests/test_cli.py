import argparse
import struct
from pathlib import Path

import numpy as np
import pytest

from endosim import degrade as degrade_mod
from endosim import phantom, preprocess, srcnn
from endosim.cli import build_parser, dispatch
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
            f"{ty},{tx},{ry},{rx},{dx},{dy},{mean:.9g}"
            for (ty, tx), (ry, rx), (dy, dx), mean in pair.samples.tolist()
        ]
        assert samples.read_text().splitlines()[1:] == expected

    def test_samples_csv_bytes(self, tmp_path):
        # a 16-bit ramp, so every mean is exact arithmetic on a fixed frame
        hr, samples = tmp_path / "ramp.pgm", tmp_path / "samples.csv"
        hr.write_bytes(save_pgm(Image(np.arange(64).reshape(8, 8) / 63)))
        assert dispatch([
            "degrade", "--fiber-diameter", "4", "--inter-fiber-distance", "8",
            "--max-offset", "2", "--seed", "5", "--emit-samples", str(samples),
            str(hr), str(tmp_path / "lr.pgm"),
        ]) == 0
        assert samples.read_bytes() == (
            b"tile_row,tile_col,roi_row,roi_col,dx,dy,mean\n"
            b"0,0,2,2,1,1,0.357141222\n"
            b"0,4,0,6,1,-1,0.166666667\n"
            b"4,0,5,1,0,0,0.722224765\n"
            b"4,4,5,4,-1,0,0.769840543\n"
        )

    def test_deterministic_outputs(self, tmp_path):
        hr = write_phantom(tmp_path)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        argv = ["degrade", "--fiber-diameter", "4", "--inter-fiber-distance",
                "8", "--max-offset", "2", "--seed", "3", str(hr)]
        assert dispatch(argv + [str(a)]) == 0
        assert dispatch(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["phantom", "--density", "inf", "OUT"],
    ["degrade", "--max-offset", "inf", "HR", "OUT"],
    ["degrade", "--inter-fiber-distance", "inf", "HR", "OUT"],
    ["preprocess", "--sigma", "inf", "HR", "OUT"],
    ["sweep", "--config", "SWEEP", "--out", "OUT"],
])
def test_infinite_number_is_data_error(tmp_path, capsys, argv):
    names = {"HR": write_phantom(tmp_path, size=16), "OUT": tmp_path / "out",
             "SWEEP": tmp_path / "sweep.json"}
    # 1e999 parses as an infinite float
    names["SWEEP"].write_text('{"phantom_specs": [{}], "offset_um": [1e999]}')
    capsys.readouterr()
    assert dispatch([str(names.get(a, a)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not names["OUT"].exists()


SQUARE, WIDE = Image(np.full((16, 16), 0.5)), Image(np.full((16, 20), 0.5))


@pytest.mark.parametrize("argv, files, message", [
    (["phantom", "--width", "0", "OUT"], {}, "canvas must be at least 1x1"),
    (["phantom", "--density", "-1", "OUT"], {},
     "density and noise sd must be non-negative"),
    (["preprocess", "--tiles", "0", "8", "in.pgm", "OUT"], {"in.pgm": SQUARE},
     "tile grid must be at least 1x1"),
    (["degrade", "--pixel-size", "0", "in.pgm", "OUT"], {"in.pgm": SQUARE},
     "pixel size must be positive"),
    (["metrics", "in.pgm", "in.pgm"], {"in.pgm": b"P5 a 1 255\n\x33"},
     "non-numeric PGM header field: invalid literal for int() with base 10: b'a'"),
    (["train", "--batch-size", "0", "data", "OUT"], {}, "batch_size must be >= 1"),
    (["train", "data", "OUT"], {"data/train/a_lr.pgm": SQUARE},
     "missing HR mate for a_lr.pgm"),
    (["train", "data", "OUT"], {"data/train": None},
     "no *_lr.pgm/*_hr.pgm pairs in data/train"),
    (["train", "data", "OUT"],
     {"data/train/a_lr.pgm": SQUARE, "data/train/a_hr.pgm": WIDE,
      "data/val/a_lr.pgm": SQUARE, "data/val/a_hr.pgm": SQUARE},
     "lr/hr pair dimensions differ"),
    (["infer", "w", "in.pgm", "OUT"], {"w": b"SRCW\x01\x00\x00\x00", "in.pgm": SQUARE},
     "truncated weights file"),
    (["readerstats", "--reads", "reads.csv", "--out", "OUT"],
     {"reads.csv": "image_id,reader_id,modality,call,confidence,truth\ni1,r1,HR\n"},
     "ragged CSV row"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{}], "val_count": 0}'}, "dataset counts must be >= 1"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"nucleus_radius_px": 5}]}'},
     "invalid phantom spec: cannot unpack non-iterable int object"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"nucleus_intensity": [0.6, 1.5]}]}'},
     "nucleus intensity range must lie in (0, 1]"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"eccentricity_max": 1}]}'},
     "eccentricity_max must lie in [0, 1)"),
    # finite flags whose derived counts and lengths are past the float range
    (["phantom", "--width", "64", "--height", "64", "--density", "1e308", "OUT"], {},
     "density times canvas area must be finite"),
    (["preprocess", "--sigma", "1e308", "in.pgm", "OUT"], {"in.pgm": SQUARE},
     "kernel radius 4 * sigma = inf is not finite"),
    (["degrade", "--pixel-size", "5e-324", "in.pgm", "OUT"], {"in.pgm": SQUARE},
     "probe lengths in pixels must be finite"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{}], "offset_um": [0], "pixel_size_um": 5e-324}'},
     "invalid sweep cell offset[0]=0: probe lengths in pixels must be finite"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"nuclei_per_megapixel": 1e308}]}'},
     "density times canvas area must be finite"),
    # an int past the float range is rejected by its config, which names the field
    (["phantom", "--width", str(10**309), "OUT"], {}, "width must be a finite float"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{}], "offset_um": [%d]}' % 10**309},
     f"invalid sweep cell offset[0]={10**309}: max_offset_um must be a finite float"),
    # an offset past 2**62 pixels could wrap degrade's int64 ROI origins
    (["degrade", "--max-offset", "3.7e19", "in.pgm", "OUT"], {"in.pgm": SQUARE},
     "max_offset_um must be at most 2**62 pixels"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{}], "train": {"learning_rate": %d}}' % 10**309},
     "learning_rate must be positive and finite"),
    # json.loads raises RecursionError past the interpreter's recursion limit
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": "[" * 100000 + "]" * 100000}, "JSON in s.json is nested too deeply"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"a": ' * 100000 + "1" + "}" * 100000},
     "JSON in s.json is nested too deeply"),
    # SeedSequence rejects a negative seed only when a cell runs, after OUT is made
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{}], "offset_um": [0], "base_seed": -1}'},
     "base_seed must be >= 0"),
    # JSON true and false are Python bools, which are ints
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"width": 16, "height": 16}], "offset_um": [0], '
                '"train_count": true, "train": {"epochs": 1, "patch_size": 8}}'},
     "invalid sweep config: train_count must hold numbers, not booleans"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"width": 16, "height": 16}], "offset_um": [true], '
                '"train": {"epochs": 1, "patch_size": 8}}'},
     "invalid sweep config: offset_um must hold numbers, not booleans"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"width": 16, "height": 16}], "offset_um": [0], '
                '"train": {"epochs": true, "patch_size": 8}}'},
     "invalid train config: epochs must hold numbers, not booleans"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"nucleus_radius_px": [3, false]}]}'},
     "invalid phantom spec: nucleus_radius_px must hold numbers, not booleans"),
    # phantoms too small for a cell: each failed inside every cell, after OUT is made
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"width": 48, "height": 48}], "offset_um": [0], '
                '"train": {"epochs": 1, "patch_size": 64}}'},
     "phantom side 48 smaller than patch_size (64)"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"width": 10, "height": 40}], "offset_um": [0], '
                '"train": {"epochs": 1, "patch_size": 8}}'},
     "phantom side 10 smaller than the SSIM window (11)"),
    (["sweep", "--config", "s.json", "--out", "OUT"],
     {"s.json": '{"phantom_specs": [{"width": 16, "height": 16}], '
                '"inter_fiber_distance_um": [40], "train": {"epochs": 1, "patch_size": 8}}'},
     "invalid sweep cell inter_fiber_distance[0]=40: phantom side 16 smaller than the tile (20)"),
])
def test_bad_input_is_one_line_data_error(tmp_path, monkeypatch, capsys, argv, files,
                                          message):
    # files maps a path to an image, raw bytes, text, or None for an empty
    # directory; paths are relative, so messages naming one are fixed
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = Path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            path.mkdir()
        elif isinstance(content, Image):
            path.write_bytes(save_pgm(content))
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    capsys.readouterr()
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("OUT").exists()


@pytest.mark.parametrize("module, function, argv, expected", [
    (phantom, "generate_phantom",
     ["phantom", "--width", "20", "--height", "24", "--density", "150", "OUT"],
     phantom.PhantomSpec(width=20, height=24, nuclei_per_megapixel=150.0)),
    (preprocess, "preprocess",
     ["preprocess", "--sigma", "1.5", "--clip-limit", "0.01", "--tiles", "2", "3",
      "--bins", "64", "HR", "OUT"],
     preprocess.PreprocessConfig(gaussian_sigma_px=1.5, clahe_clip_limit=0.01,
                                 clahe_tiles=(2, 3), clahe_bins=64)),
    (degrade_mod, "degrade",
     ["degrade", "--pixel-size", "1", "--fiber-diameter", "3",
      "--inter-fiber-distance", "5", "--max-offset", "1", "HR", "OUT"],
     DegradationConfig(pixel_size_um=1.0, fiber_diameter_um=3.0,
                       inter_fiber_distance_um=5.0, max_offset_um=1.0)),
    (srcnn, "train",
     ["train", "--epochs", "3", "--batch-size", "2", "--patch-size", "8",
      "--patches-per-image", "4", "--learning-rate", "0.01",
      "--validation-interval", "2", "--seed", "9", "DATA", "OUT"],
     srcnn.TrainConfig(learning_rate=0.01, epochs=3, batch_size=2, patch_size=8,
                       patches_per_image=4, seed=9, validation_interval=2)),
])
def test_every_config_flag_reaches_its_field(tmp_path, monkeypatch, capsys,
                                             module, function, argv, expected):
    # a flag whose dest names no config field would be dropped silently
    names = {"HR": write_phantom(tmp_path, size=16), "OUT": tmp_path / "out",
             "DATA": tmp_path / "data"}
    for split in ("train", "val"):
        (names["DATA"] / split).mkdir(parents=True)
        (names["DATA"] / split / "a_hr.pgm").write_bytes(names["HR"].read_bytes())
        (names["DATA"] / split / "a_lr.pgm").write_bytes(names["HR"].read_bytes())
    seen = []

    def capture(*args):
        seen.extend(a for a in args if type(a) is type(expected))
        raise ValueError("captured")

    monkeypatch.setattr(module, function, capture)
    assert dispatch([str(names.get(a, a)) for a in argv]) == 2
    assert capsys.readouterr().err == "error: captured\n"
    assert seen == [expected]


def test_failed_allocation_is_one_line_data_error(tmp_path, monkeypatch, capsys):
    # a stage that asks numpy for too large an array; a real oversized request
    # is not made, since whether numpy refuses it at once depends on overcommit
    message = "Unable to allocate 477. GiB for an array with shape (8, 8, 1000000000)"

    def refuse(*args):
        raise MemoryError(message)

    hr = write_phantom(tmp_path, size=16)
    monkeypatch.setattr(preprocess, "preprocess", refuse)
    capsys.readouterr()
    assert dispatch(["preprocess", "--bins", "1000000000", str(hr), str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# (flag set to a non-default value, other flags of both runs) per command;
# degrade draws offsets, and so reads --seed, only at a --max-offset above 0
FLAG_CASES = {
    "phantom": [(["--width", "40"], []), (["--height", "40"], []),
                (["--density", "600"], []), (["--seed", "3"], [])],
    "preprocess": [(["--sigma", "1"], []), (["--clip-limit", "0.05"], []),
                   (["--tiles", "2", "2"], []), (["--bins", "32"], [])],
    "degrade": [(["--pixel-size", "1"], []), (["--fiber-diameter", "4"], []),
                (["--inter-fiber-distance", "10"], []), (["--max-offset", "2"], []),
                (["--seed", "3"], ["--max-offset", "2"])],
}


@pytest.mark.parametrize("command, flag, base", [
    pytest.param(command, flag, base, id=" ".join([command, *flag]))
    for command, cases in FLAG_CASES.items() for flag, base in cases])
def test_every_flag_changes_the_output(tmp_path, command, flag, base):
    # a flag that writes the default's bytes would mislead whoever sets it
    inputs = [] if command == "phantom" else [str(write_phantom(tmp_path, size=48))]
    outputs = []
    for extra in ([], flag):
        out = tmp_path / f"out{len(outputs)}.pgm"
        assert dispatch([command, *base, *extra, *inputs, str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command", sorted(FLAG_CASES))
def test_flag_cases_cover_every_flag(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    # a PATH flag names an extra output file rather than shaping the output
    flags = {a.option_strings[-1] for a in sub.choices[command]._actions
             if a.option_strings and a.dest != "help" and a.metavar != "PATH"}
    assert flags == {flag[0] for flag, _ in FLAG_CASES[command]}


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

    def test_required_n_above_1e9_is_data_error(self, capsys):
        assert dispatch(["samplesize", "--power", "0.8", "--alpha", "0.05",
                         "--limit", "1e-6", "--p", "0.5"]) == 2
        assert "exceeds 1e9" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would reach stderr
    def test_underflowing_limit_is_one_line_data_error(self, capsys):
        # limit**2 underflows to 0 for limits below about 1.5e-154
        assert dispatch(["samplesize", "--limit", "1e-200", "--p", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds 1e9" in err


class TestReaderstatsCommand:
    @staticmethod
    def write_reads(path, modalities):
        """Six reads of each modality that modalities[reader] lists."""
        rows = ["image_id,reader_id,modality,call,confidence,truth"]
        for reader in ("r1", "r2"):
            for i in range(6):
                truth = "neoplastic" if i % 2 else "non_neoplastic"
                call = truth if (i + len(reader)) % 3 else "neoplastic"
                for modality in modalities[reader]:
                    rows.append(f"img{i},{reader},{modality},{call},high,{truth}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_report_files(self, tmp_path):
        reads = self.write_reads(tmp_path / "reads.csv", {"r1": ["HR", "SR"],
                                                          "r2": ["HR", "SR"]})
        out = tmp_path / "report"
        assert dispatch(["readerstats", "--reads", str(reads),
                         "--out", str(out)]) == 0
        assert (out / "per_reader.csv").exists()
        assert (out / "t_tests.csv").exists()
        assert (out / "confidence_rates.csv").exists()

    def test_reader_without_reads_of_a_modality_is_data_error(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path / "reads.csv", {"r1": ["HR", "SR"],
                                                          "r2": ["HR"]})
        out = tmp_path / "report"
        assert dispatch(["readerstats", "--reads", str(reads), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: reader 'r2' has no SR reads\n"
        assert not out.exists()


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
