"""Property tests of the trust boundaries: every function that takes bytes,
text, JSON or numbers from outside either returns or raises ValueError
(ImageError is one), and emits no warning, whatever the input."""

import contextlib
import csv
import io
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endosim.cli import dispatch
from endosim.harness import sweep_config_from_json
from endosim.image import Image, load_pgm, save_pgm
from endosim.readerstats import (
    equivalence_sample_size,
    parse_records,
    report_csv_tables,
    study_report,
)
from endosim.srcnn import WEIGHTS_MAGIC, WEIGHTS_VERSION, load_weights

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


def returns_or_raises_value_error(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr
        try:
            fn(*args)
        except ValueError:
            pass


# ---------------------------------------------------------------- PGM


def pgm_blob(magic, width, height, maxval, separator, payload):
    return magic + b" %d %d\n# c\n%d" % (width, height, maxval) + separator + payload


pgm_blobs = st.one_of(
    st.binary(max_size=64),
    st.builds(
        pgm_blob,
        st.sampled_from([b"P5", b"P2", b"P6", b""]),
        st.integers(-2, 2**40), st.integers(-2, 2**40),
        st.sampled_from([255, 65535, 0, 256, -1]),
        st.sampled_from([b"\n", b" ", b"", b"x"]),
        st.binary(max_size=80),
    ),
)


@FUZZ
@given(pgm_blobs)
def test_load_pgm(blob):
    returns_or_raises_value_error(load_pgm, blob)


# ---------------------------------------------------------------- weights

dims = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6)),
    st.tuples(*[st.integers(0, 2**32 - 1)] * 3),
)


@st.composite
def weights_blobs(draw):
    head = draw(st.sampled_from([WEIGHTS_MAGIC, b"SRCX", b"SR"]))
    head += struct.pack("<I", draw(st.sampled_from([WEIGHTS_VERSION, 0, 2])))
    head += struct.pack("<f", draw(st.floats(width=32)))
    layers = b""
    for out_c, in_c, k in draw(st.lists(dims, min_size=0, max_size=4)):
        layers += struct.pack("<III", out_c, in_c, k)
        n = out_c * in_c * k * k + out_c
        if n <= 64:
            values = draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
            layers += struct.pack(f"<{n}f", *values)
    return head + layers + draw(st.binary(max_size=12))


@FUZZ
@given(weights_blobs())
def test_load_weights(blob):
    returns_or_raises_value_error(load_weights, blob)


# ---------------------------------------------------------------- reader study

READS_HEADER = ["image_id", "reader_id", "modality", "call", "confidence", "truth"]
CLASSES = ["neoplastic", "non_neoplastic"]

read_rows = st.lists(st.tuples(
    st.sampled_from(["i1", "i2", "i3"]),
    st.sampled_from(["r1", "r2", "r,3", 'r"4']),
    st.sampled_from(["HR", "SR", "SR", "LR"]),
    st.sampled_from(CLASSES),
    st.sampled_from(["high", "low"]),
    st.sampled_from(CLASSES),
), max_size=20)


def reads_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([READS_HEADER, *rows])
    return buf.getvalue()


def report_tables(text):
    return report_csv_tables(study_report(parse_records(text)))


@FUZZ
@given(st.one_of(read_rows.map(reads_text), st.text(max_size=200)))
def test_reads_through_report(text):
    returns_or_raises_value_error(report_tables, text)


# ---------------------------------------------------------------- sample size


@FUZZ
@given(st.floats(), st.floats(), st.floats(), st.floats())
def test_equivalence_sample_size(power, alpha, limit, p_assumed):
    returns_or_raises_value_error(equivalence_sample_size, power, alpha, limit, p_assumed)


# ---------------------------------------------------------------- sweep JSON

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
SWEEP_KEYS = ["phantom_specs", "train_count", "offset_um", "inter_fiber_distance_um",
              "fiber_diameter_um", "baseline_offset_um", "pixel_size_um", "train",
              "base_seed"]
SPEC_KEYS = ["width", "height", "nuclei_per_megapixel", "nucleus_radius_px",
             "nucleus_intensity", "background_noise_sd", "label"]
TRAIN_KEYS = ["learning_rate", "epochs", "patch_size", "validation_interval",
              "seed", "adam_beta1", "lrelu_slope"]
sweep_docs = st.fixed_dictionaries({}, optional={
    **{key: json_values for key in SWEEP_KEYS},
    "phantom_specs": st.lists(st.one_of(
        json_values,
        st.dictionaries(st.sampled_from(SPEC_KEYS), json_values, max_size=3),
    ), max_size=3),
    "train": st.dictionaries(st.sampled_from(TRAIN_KEYS), json_values, max_size=3),
})


def build_sweep(doc):
    # a round trip through the CLI's parser, which reads NaN and Infinity
    sweep_config_from_json(json.loads(json.dumps(doc))).cells()


@FUZZ
@given(st.one_of(sweep_docs, json_values))
def test_sweep_config_from_json(doc):
    returns_or_raises_value_error(build_sweep, doc)


# ---------------------------------------------------------------- CLI argv

EXTREMES = ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300", "1e308"]
# per command: its float flags, then the rest of its argv split where the
# drawn flags go; a flag given twice takes its last value
FLOAT_FLAGS = {
    "phantom": (["--density"], ["--width", "32", "--height", "32"], ["OUT"]),
    "preprocess": (["--sigma", "--clip-limit"], [], ["IN", "OUT"]),
    "degrade": (["--pixel-size", "--fiber-diameter", "--inter-fiber-distance",
                 "--max-offset"], [], ["IN", "OUT"]),
    "train": (["--learning-rate"], ["--epochs", "1", "--batch-size", "2",
              "--patch-size", "8", "--patches-per-image", "2"], ["DATA", "OUT"]),
    "samplesize": (["--power", "--alpha", "--limit", "--p"],
                   ["--limit", "0.1", "--p", "0.5"], []),
}


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    pgm = save_pgm(Image(np.random.default_rng(4).uniform(0, 1, (32, 32))))
    (root / "in.pgm").write_bytes(pgm)
    for split in ("train", "val"):
        (root / "data" / split).mkdir(parents=True)
        for tag in ("lr", "hr"):
            (root / "data" / split / f"a_{tag}.pgm").write_bytes(pgm)
    return {"IN": root / "in.pgm", "DATA": root / "data", "OUT": root / "out"}


@st.composite
def extreme_argv(draw):
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    flags, before, after = FLOAT_FLAGS[command]
    drawn = []
    for flag in flags:
        value = draw(st.sampled_from([None, *EXTREMES]))  # None keeps the default
        if value is not None:  # "--flag=-inf": argparse reads a bare -inf as a flag
            drawn.append(f"{flag}={value}")
    return [command, *before, *drawn, *after]


@settings(FUZZ, max_examples=400)
@given(extreme_argv())
def test_cli_float_flags_at_extremes(cli_paths, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([str(cli_paths.get(a, a)) for a in argv])
    if code == 0:
        assert err.getvalue() == ""
    else:  # no traceback: an exception other than a data error fails the test
        assert code == 2 and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
