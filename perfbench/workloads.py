"""The benchmark's three workloads, driven through endosim's public API.

Every call into the program goes through a module attribute (``srcnn.train``,
``cli.dispatch``, ...) so that a traced run, which swaps those attributes for
timing wrappers, sees it. Inputs derive only from the workload seed; the
program receives the generated images, files and configs.

Each workload has a set-up (repeated to time it), an operation the loop
repeats, the checks that decide whether an operation failed, and its
computed convolution work.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from endosim import cli, harness, metrics, phantom, preprocess, srcnn
from endosim import degrade as degrade_mod

import refs

NPROC = len(os.sched_getaffinity(0))


@dataclass
class OpResult:
    seconds: float
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------- helpers

def _desk_pairs(spec, deg, count, seed_base, pre=None):
    """(lr, hr) pairs as criterion 5 builds them; pre optionally preprocesses
    the HR phantom first, as the frame pipeline does."""
    pairs = []
    for k in range(count):
        hr, _ = phantom.generate_phantom(spec, seed_base + k)
        if pre is not None:
            hr = preprocess.preprocess(hr, pre)
        lr = degrade_mod.degrade(hr, deg, np.random.default_rng(seed_base + k + 7919)).lr
        pairs.append((lr, hr))
    return pairs


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _pairs_digest(pairs) -> str:
    return _digest(*[img.data for pair in pairs for img in pair])


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    return 10.0 * math.log10(1.0 / float(np.mean((a - b) ** 2)))


def _epoch_steps(n_patches: int, batch: int) -> list[int]:
    return [min(batch, n_patches - i) for i in range(0, n_patches, batch)]


def training_failures(history, cfg) -> list[str]:
    """A run fails on a non-finite loss, or when no validation after epoch 0
    beats the initial model."""
    failures = []
    initial = history.rows[0][2]
    checked = []
    for epoch, train_mse, val_mse in history.rows[1:]:
        if not math.isfinite(train_mse):
            failures.append(f"epoch {epoch}: non-finite train loss {train_mse}")
        if epoch % cfg.validation_interval == 0 or epoch == cfg.epochs:
            if not math.isfinite(val_mse):
                failures.append(f"epoch {epoch}: non-finite validation loss {val_mse}")
            checked.append(val_mse)
    if not math.isfinite(initial):
        failures.append(f"non-finite initial validation loss {initial}")
    elif checked and min(checked) > initial:
        failures.append(f"best validation MSE {min(checked):.6g} exceeds initial {initial:.6g}")
    return failures


# (kernel, in_channels, out_channels, k): forward, input-gradient and
# weight-gradient convolutions of one SRCNN training step
FWD_KERNELS = [("conv1.fwd", 1, 64, 9), ("conv2.fwd", 64, 32, 1), ("conv3.fwd", 32, 1, 5)]
STEP_KERNELS = FWD_KERNELS + [
    ("conv3.dx", 1, 32, 5), ("conv2.dx", 32, 64, 1),
    ("conv3.dw", 32, 1, 5), ("conv2.dw", 64, 32, 1), ("conv1.dw", 1, 64, 9),
]


def conv_work(calls: list[tuple[list, int]]) -> dict[str, dict[str, int]]:
    """Computed MACs and bytes moved per kernel for (kernels, pixels) calls.

    Bytes are the compulsory float32 traffic: read the input and the weights,
    write the output (for a weight gradient: read input and output gradient,
    write the kernel gradient, which is the same count). They ignore im2col
    copies and cache misses.
    """
    out: dict[str, dict[str, int]] = {}
    for kernels, pixels in calls:
        for name, cin, cout, k in kernels:
            entry = out.setdefault(name, {"macs": 0, "bytes": 0})
            entry["macs"] += pixels * cin * cout * k * k
            entry["bytes"] += 4 * (pixels * (cin + cout) + cin * cout * k * k)
    return out


def _training_calls(cfg, n_train: int, n_val: int, size: int) -> list[tuple[list, int]]:
    steps = _epoch_steps(n_train * cfg.patches_per_image, cfg.batch_size) * cfg.epochs
    vals = 1 + sum(1 for e in range(1, cfg.epochs + 1)
                   if e % cfg.validation_interval == 0 or e == cfg.epochs)
    return ([(STEP_KERNELS, b * cfg.patch_size ** 2) for b in steps]
            + [(FWD_KERNELS, size * size)] * (vals * n_val))


# ---------------------------------------------------------------- train_desk

class TrainDesk:
    """One srcnn.train call on criterion 5's shape, then held-out scoring.

    Nearly all the time is SRCNN backward and Adam on small arrays; degrade
    and phantom run only in set-up. The epoch count is fixed from --seconds
    (EPOCHS_PER_SECOND was measured at the seed commit) so that each run does
    the same work and a faster program finishes sooner rather than training
    longer.
    """

    name = "train_desk"
    max_ops = 1
    EPOCHS_PER_SECOND = 0.75

    def __init__(self, seed: int, seconds: float, toy: bool, scratch: Path):
        self.size = 64 if toy else 128
        self.counts = (4, 2, 2) if toy else (20, 5, 10)
        self.spec = phantom.PhantomSpec(width=self.size, height=self.size)
        self.deg = degrade_mod.DegradationConfig(
            pixel_size_um=2.0, fiber_diameter_um=4.0,
            inter_fiber_distance_um=8.0, max_offset_um=0.0)
        rng = np.random.default_rng(seed)
        self.bases = [int(b) for b in rng.integers(0, 2**31 - 10**5, size=3)]
        self.cfg = srcnn.TrainConfig(
            learning_rate=1e-3,
            epochs=max(2, round(seconds * self.EPOCHS_PER_SECOND)),
            batch_size=8,
            patch_size=32 if toy else 64,
            patches_per_image=2 if toy else 4,
            validation_interval=10,
            seed=int(rng.integers(0, 2**31)),
        )

    def inputs(self) -> dict:
        n_train, n_val, n_test = self.counts
        return {"phantom": f"{self.size}x{self.size}", "train_pairs": n_train,
                "val_pairs": n_val, "test_pairs": n_test, "m_s_d_um": [4, 8, 0],
                "phantom_seed_bases": self.bases, "train": vars(self.cfg)}

    def setup(self) -> None:
        n_train, n_val, n_test = self.counts
        self.train_pairs = _desk_pairs(self.spec, self.deg, n_train, self.bases[0])
        self.val_pairs = _desk_pairs(self.spec, self.deg, n_val, self.bases[1])
        self.test_pairs = _desk_pairs(self.spec, self.deg, n_test, self.bases[2])

    def inputs_digest(self) -> str:
        return _digest(vars(self.cfg), _pairs_digest(self.train_pairs),
                       _pairs_digest(self.val_pairs), _pairs_digest(self.test_pairs))

    def op(self, i: int) -> OpResult:
        t0 = time.perf_counter()
        model, history = srcnn.train(self.train_pairs, self.val_pairs, self.cfg)
        seconds = time.perf_counter() - t0
        failures = training_failures(history, self.cfg)
        sr_db, lr_db = [], []
        for lr, hr in self.test_pairs:
            sr = srcnn.infer(model, lr)
            sr_db.append(metrics.psnr(hr, sr))
            lr_db.append(metrics.psnr(hr, lr))
            ssim = metrics.ssim(hr, sr)
            if not (math.isfinite(sr_db[-1]) and math.isfinite(ssim)):
                failures.append(f"non-finite PSNR/SSIM {sr_db[-1]}/{ssim}")
        patches = self.counts[0] * self.cfg.patches_per_image * self.cfg.epochs
        return OpResult(seconds, failures, {
            "sr_psnr_db": float(np.mean(sr_db)),
            "sr_gain_db": float(np.mean(sr_db) - np.mean(lr_db)),
            "train_patches_per_s": patches / seconds,
        })

    def work(self) -> dict:
        n_train, n_val, n_test = self.counts
        calls = _training_calls(self.cfg, n_train, n_val, self.size)
        calls += [(FWD_KERNELS, self.size ** 2)] * n_test
        return {"per_op": conv_work(calls)}


# ---------------------------------------------------------------- frame_hd

class FrameHd:
    """The documented single-frame CLI sequence on a 1280x960 frame, in
    process through cli.dispatch: phantom -> preprocess -> degrade (with
    sparse and samples outputs) -> infer -> metrics.

    Forward-only SRCNN on a 1.2 MP frame, the Python fiber loop in degrade,
    the PGM codec, weight loading and the CLI; none of them shows in
    train_desk. Frames come from a pool of POOL recorded (phantom seed,
    degrade seed) pairs, in an order drawn from the workload seed, so every
    output has a reference; a run makes at most POOL frames.
    """

    name = "frame_hd"
    POOL = 12

    def __init__(self, seed: int, seconds: float, toy: bool, scratch: Path):
        self.tag = "toy" if toy else "full"
        self.width, self.height = (160, 120) if toy else (1280, 960)
        self.max_ops = 3 if toy else self.POOL
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(self.max_ops)]
        self.scratch = scratch
        self.weights = scratch / "model.weights"
        size = 64 if toy else 128
        self.desk_spec = phantom.PhantomSpec(width=size, height=size)
        self.deg = degrade_mod.DegradationConfig(
            pixel_size_um=2.0, fiber_diameter_um=6.0,
            inter_fiber_distance_um=12.0, max_offset_um=2.0)
        self.pre = preprocess.PreprocessConfig()
        # fixed, so the weights (and with them the SR references) do not
        # depend on the workload seed
        self.train_cfg = srcnn.TrainConfig(
            learning_rate=1e-3, epochs=1 if toy else 2, batch_size=8,
            patch_size=32 if toy else 64, patches_per_image=2 if toy else 4,
            validation_interval=1, seed=0)
        self.train_counts = (2, 1) if toy else (8, 2)

    @functools.cached_property
    def references(self) -> list[dict]:
        return refs.load(self.tag)

    @staticmethod
    def frame_seeds(index: int) -> tuple[int, int]:
        return 1000 + index, 2000 + index

    def inputs(self) -> dict:
        return {"frame": f"{self.width}x{self.height}", "pool": self.max_ops,
                "frame_order": self.order, "m_s_d_um": [6, 12, 2],
                "setup_train": {"phantom": f"{self.desk_spec.width}x{self.desk_spec.height}",
                                "pairs": self.train_counts, **vars(self.train_cfg)}}

    def inputs_digest(self) -> str:
        return _digest([self.frame_seeds(i) for i in self.order], self.width, self.height)

    def setup(self) -> None:
        n_train, n_val = self.train_counts
        train_pairs = _desk_pairs(self.desk_spec, self.deg, n_train, 10, self.pre)
        val_pairs = _desk_pairs(self.desk_spec, self.deg, n_val, 50, self.pre)
        model, _ = srcnn.train(train_pairs, val_pairs, self.train_cfg)
        self.weights.write_bytes(srcnn.save_weights(model))

    def run_frame(self, index: int, d: Path) -> tuple[float, list[str], str]:
        """Run the CLI sequence for pool entry index into directory d."""
        p_seed, d_seed = self.frame_seeds(index)
        f = {n: str(d / n) for n in ("hr.pgm", "pre.pgm", "lr.pgm", "sparse.pgm",
                                      "samples.csv", "sr.pgm")}
        steps = [
            ["phantom", "--width", str(self.width), "--height", str(self.height),
             "--seed", str(p_seed), f["hr.pgm"]],
            ["preprocess", f["hr.pgm"], f["pre.pgm"]],
            ["degrade", "--pixel-size", "2", "--fiber-diameter", "6",
             "--inter-fiber-distance", "12", "--max-offset", "2", "--seed", str(d_seed),
             "--emit-sparse", f["sparse.pgm"], "--emit-samples", f["samples.csv"],
             f["pre.pgm"], f["lr.pgm"]],
            ["infer", str(self.weights), f["lr.pgm"], f["sr.pgm"]],
            ["metrics", f["pre.pgm"], f["sr.pgm"]],
        ]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            for argv in steps:
                code = cli.dispatch(argv)
                if code != 0:
                    return time.perf_counter() - t0, [f"{argv[0]} exited {code}"], ""
        return time.perf_counter() - t0, [], out.getvalue()

    def op(self, i: int) -> OpResult:
        index = self.order[i]
        d = self.scratch / f"frame{i}"
        d.mkdir()
        try:
            seconds, failures, printed = self.run_frame(index, d)
            if failures:
                return OpResult(seconds, failures)
            return OpResult(seconds, *self.check(index, d, printed))
        finally:
            shutil.rmtree(d)

    def check(self, index: int, d: Path, printed: str) -> tuple[list[str], dict]:
        failures = []
        try:
            psnr_db, ssim = (float(v) for v in printed.strip().split(","))
        except ValueError:
            return [f"metrics printed {printed!r}"], {}
        if not (math.isfinite(psnr_db) and math.isfinite(ssim)):
            failures.append(f"non-finite PSNR/SSIM {psnr_db}/{ssim}")
        failures += refs.check_frame(d, self.references[index])
        pre = refs.decode_pgm((d / "pre.pgm").read_bytes())
        lr = refs.decode_pgm((d / "lr.pgm").read_bytes())
        return failures, {"sr_psnr_db": psnr_db, "sr_gain_db": psnr_db - _psnr(pre, lr)}

    def work(self) -> dict:
        n_train, n_val = self.train_counts
        return {
            "per_op": conv_work([(FWD_KERNELS, self.width * self.height)]),
            "setup": conv_work(_training_calls(
                self.train_cfg, n_train, n_val, self.desk_spec.width)),
        }


# ---------------------------------------------------------------- sweep_small

class SweepSmall:
    """harness.run_sweep over a 6-cell grid (two values on each axis, offset
    0 among them) with threads = nproc, writing to a scratch directory.

    The only workload that runs harness: many small frames and concurrent
    cells. Training is short, so data generation, inference and scoring are a
    visible share of each cell. Each operation is one sweep with a fresh base
    seed. Set-up parses the config and runs a one-cell warm-up sweep.
    """

    name = "sweep_small"
    max_ops = 10**6

    def __init__(self, seed: int, seconds: float, toy: bool, scratch: Path):
        self.scratch = scratch
        self.seed = seed
        size = 64 if toy else 128
        self.doc = {
            "phantom_specs": [{"width": size, "height": size}],
            "train_count": 2,
            "val_count": 1,
            "test_count": 1 if toy else 3,
            "offset_um": [0] if toy else [0, 4],
            "inter_fiber_distance_um": [8] if toy else [8, 16],
            "fiber_diameter_um": [4] if toy else [4, 8],
            "baseline_fiber_diameter_um": 6,
            "baseline_inter_fiber_distance_um": 12,
            "baseline_offset_um": 2,
            "pixel_size_um": 2,
            "train": {"epochs": 1 if toy else 2, "patch_size": 32 if toy else 64,
                      "patches_per_image": 4, "batch_size": 8,
                      "learning_rate": 1e-3, "validation_interval": 1},
        }

    def config_doc(self, i: int) -> dict:
        seq = np.random.SeedSequence([self.seed, i])
        return {**self.doc, "base_seed": int(seq.generate_state(1)[0])}

    def inputs(self) -> dict:
        return {"threads": NPROC, "sweep": self.doc,
                "first_base_seed": self.config_doc(0)["base_seed"]}

    def inputs_digest(self) -> str:
        return _digest(self.config_doc(0), self.config_doc(1))

    def setup(self) -> None:
        warm = {**self.doc, "offset_um": [0], "inter_fiber_distance_um": [],
                "fiber_diameter_um": [], "base_seed": 0}
        out = self.scratch / "warmup"
        harness.run_sweep(harness.sweep_config_from_json(warm), out_dir=out, threads=NPROC)
        shutil.rmtree(out)

    def op(self, i: int) -> OpResult:
        config = harness.sweep_config_from_json(self.config_doc(i))
        out = self.scratch / f"sweep{i}"
        try:
            t0 = time.perf_counter()
            harness.run_sweep(config, out_dir=out, threads=NPROC)
            seconds = time.perf_counter() - t0
            failures, values = self.check(config, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return OpResult(seconds, failures, values)

    @staticmethod
    def check(config, out: Path) -> tuple[list[str], dict]:
        cells = config.cells()
        stems = [f"{c.axis}_{c.cell_idx:02d}" for c in cells]
        names = ["results.csv", "timings.csv"] + [
            stem + suffix for stem in stems
            for suffix in (".weights", "_hr.pgm", "_lr.pgm", "_sr.pgm", "_profile.csv")]
        failures = [f"{n} missing" for n in names if not (out / n).is_file()]
        if failures:
            return failures, {}
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "timings.csv", newline="") as fh:
            train_s = [float(r["train_seconds"]) for r in csv.DictReader(fh)]
        if len(rows) != len(cells):
            return [f"results.csv has {len(rows)} rows for {len(cells)} cells"], {}
        for n, row in enumerate(rows):
            for key in ("mean_psnr_lr", "mean_psnr_sr", "mean_ssim_lr", "mean_ssim_sr"):
                if not math.isfinite(float(row[key])):
                    failures.append(f"row {n}: non-finite {key}={row[key]}")
        if failures:
            return failures, {}
        sr = [float(r["mean_psnr_sr"]) for r in rows]
        lr = [float(r["mean_psnr_lr"]) for r in rows]
        tc = config.train_config
        patches = config.train_count * tc.patches_per_image * tc.epochs * len(cells)
        return [], {
            "sr_psnr_db": float(np.mean(sr)),
            "sr_gain_db": float(np.mean(sr) - np.mean(lr)),
            "harness.cell_train_s_p50": float(np.median(train_s)),
            "train_patches_per_s": patches / sum(train_s),
        }

    def work(self) -> dict:
        config = harness.sweep_config_from_json(self.config_doc(0))
        size = config.phantom_specs[0].width
        per_cell = _training_calls(config.train_config, config.train_count,
                                   config.val_count, size)
        per_cell += [(FWD_KERNELS, size * size)] * config.test_count
        return {"per_op": conv_work(per_cell * len(config.cells()))}


WORKLOADS = {w.name: w for w in (TrainDesk, FrameHd, SweepSmall)}
