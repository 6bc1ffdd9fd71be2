"""Experiment orchestration: degradation parameter sweeps, line profiles
and per-image comparison reports.

A sweep varies one probe parameter at a time (offset axis first, then
inter-fiber distance, then fiber diameter) with the other two held at a
configurable baseline, trains a fresh model per grid cell and aggregates
PSNR/SSIM over a test set. Every cell derives its own seed from the base
seed and its grid position, so cells are reproducible independently and
results do not depend on execution order or worker count.
"""

from __future__ import annotations

import csv
import io
import math
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degrade import DegradationConfig, degrade
from .image import Image, save_pgm
from .metrics import psnr, ssim
from .phantom import PhantomSpec, generate_phantom
from .srcnn import TrainConfig, infer, save_weights, train

__all__ = [
    "SweepConfig",
    "ResultRow",
    "run_sweep",
    "line_profile",
    "compare_report",
    "CompareReport",
]

AXES = ("offset", "inter_fiber_distance", "fiber_diameter")


@dataclass(frozen=True)
class SweepConfig:
    phantom_specs: tuple[PhantomSpec, ...]
    train_count: int = 20
    val_count: int = 5
    test_count: int = 10
    offset_um: tuple[float, ...] = ()
    inter_fiber_distance_um: tuple[float, ...] = ()
    fiber_diameter_um: tuple[float, ...] = ()
    baseline_fiber_diameter_um: float = 6.0
    baseline_inter_fiber_distance_um: float = 12.0
    baseline_offset_um: float = 2.0
    pixel_size_um: float = 2.0
    train_config: TrainConfig = TrainConfig()
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.phantom_specs:
            raise ValueError("need at least one phantom spec")
        if min(self.train_count, self.val_count, self.test_count) < 1:
            raise ValueError("dataset counts must be >= 1")

    def cells(self) -> list["SweepCell"]:
        """Grid enumeration: offset axis, then s axis, then m axis."""
        out: list[SweepCell] = []
        axis_values = {
            "offset": self.offset_um,
            "inter_fiber_distance": self.inter_fiber_distance_um,
            "fiber_diameter": self.fiber_diameter_um,
        }
        for axis_idx, axis in enumerate(AXES):
            for cell_idx, value in enumerate(axis_values[axis]):
                m = self.baseline_fiber_diameter_um
                s = self.baseline_inter_fiber_distance_um
                d = self.baseline_offset_um
                if axis == "offset":
                    d = value
                elif axis == "inter_fiber_distance":
                    s = value
                else:
                    m = value
                try:
                    cfg = DegradationConfig(
                        pixel_size_um=self.pixel_size_um,
                        fiber_diameter_um=m,
                        inter_fiber_distance_um=s,
                        max_offset_um=d,
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"invalid sweep cell {axis}[{cell_idx}]={value}: {exc}"
                    ) from exc
                out.append(
                    SweepCell(axis=axis, axis_idx=axis_idx, cell_idx=cell_idx,
                              degradation=cfg)
                )
        return out


@dataclass(frozen=True)
class SweepCell:
    axis: str
    axis_idx: int
    cell_idx: int
    degradation: DegradationConfig


@dataclass(frozen=True)
class ResultRow:
    axis: str
    m_um: float
    s_um: float
    d_um: float
    seed: int
    mean_psnr_lr: float
    std_psnr_lr: float
    mean_psnr_sr: float
    std_psnr_sr: float
    mean_ssim_lr: float
    std_ssim_lr: float
    mean_ssim_sr: float
    std_ssim_sr: float
    train_seconds: float


RESULTS_HEADER = [
    "axis", "m_um", "s_um", "d_um", "seed",
    "mean_psnr_lr", "std_psnr_lr", "mean_psnr_sr", "std_psnr_sr",
    "mean_ssim_lr", "std_ssim_lr", "mean_ssim_sr", "std_ssim_sr",
]


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.9g}"


def _cell_seeds(base_seed: int, cell: SweepCell, count: int) -> list[int]:
    ss = np.random.SeedSequence(
        entropy=base_seed, spawn_key=(cell.axis_idx, cell.cell_idx)
    )
    return [int(s) for s in ss.generate_state(count, dtype=np.uint32)]


@dataclass
class CellOutput:
    row: ResultRow
    weights: bytes
    sample_triple: tuple[Image, Image, Image]  # (hr, lr, sr)


def _make_pairs(
    config: SweepConfig, cell: SweepCell, role_offset: int, count: int, seed: int
) -> list[tuple[Image, Image]]:
    pairs = []
    for k in range(count):
        spec = config.phantom_specs[k % len(config.phantom_specs)]
        hr, _ = generate_phantom(spec, seed + role_offset + k)
        rng = np.random.default_rng(seed + role_offset + k + 7919)
        lr = degrade(hr, cell.degradation, rng).lr
        pairs.append((lr, hr))
    return pairs


def _run_cell(config: SweepConfig, cell: SweepCell) -> CellOutput:
    data_seed, train_seed = _cell_seeds(config.base_seed, cell, 2)
    train_pairs = _make_pairs(config, cell, 0, config.train_count, data_seed)
    val_pairs = _make_pairs(config, cell, 10_000, config.val_count, data_seed)
    test_pairs = _make_pairs(config, cell, 20_000, config.test_count, data_seed)

    cfg = TrainConfig(
        **{**vars(config.train_config), "seed": train_seed}
    )
    t0 = time.monotonic()
    model, _history = train(train_pairs, val_pairs, cfg)
    train_seconds = time.monotonic() - t0

    psnr_lr, psnr_sr, ssim_lr, ssim_sr = [], [], [], []
    sample: tuple[Image, Image, Image] | None = None
    for lr_img, hr_img in test_pairs:
        sr_img = infer(model, lr_img)
        psnr_lr.append(psnr(hr_img, lr_img))
        psnr_sr.append(psnr(hr_img, sr_img))
        ssim_lr.append(ssim(hr_img, lr_img))
        ssim_sr.append(ssim(hr_img, sr_img))
        if sample is None:
            sample = (hr_img, lr_img, sr_img)

    def mean_std(values: list[float]) -> tuple[float, float]:
        arr = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
            return float(np.mean(arr)), std

    d = cell.degradation
    row = ResultRow(
        axis=cell.axis,
        m_um=d.fiber_diameter_um,
        s_um=d.inter_fiber_distance_um,
        d_um=d.max_offset_um,
        seed=data_seed,
        mean_psnr_lr=mean_std(psnr_lr)[0], std_psnr_lr=mean_std(psnr_lr)[1],
        mean_psnr_sr=mean_std(psnr_sr)[0], std_psnr_sr=mean_std(psnr_sr)[1],
        mean_ssim_lr=mean_std(ssim_lr)[0], std_ssim_lr=mean_std(ssim_lr)[1],
        mean_ssim_sr=mean_std(ssim_sr)[0], std_ssim_sr=mean_std(ssim_sr)[1],
        train_seconds=train_seconds,
    )
    assert sample is not None
    return CellOutput(row=row, weights=save_weights(model), sample_triple=sample)


def results_csv(rows: list[ResultRow]) -> str:
    """Deterministic results table; wall times are deliberately excluded
    (they go to timings.csv) so repeated runs are byte-identical."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(RESULTS_HEADER)
    for r in rows:
        w.writerow(
            [r.axis, _fmt(r.m_um), _fmt(r.s_um), _fmt(r.d_um), r.seed]
            + [_fmt(getattr(r, name)) for name in RESULTS_HEADER[5:]]
        )
    return buf.getvalue()


def run_sweep(
    config: SweepConfig, out_dir: str | Path | None = None, threads: int = 1
) -> tuple[list[ResultRow], str]:
    """Run every grid cell, optionally writing results.csv, timings.csv,
    per-cell weights and hr/lr/sr sample PGM triples under out_dir.

    Cells may run on a thread pool; rows are emitted in grid order
    regardless of completion order and are identical for any worker count.
    """
    cells = config.cells()
    if not cells:
        raise ValueError("sweep grid is empty")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(lambda c: _run_cell(config, c), cells))
    else:
        outputs = [_run_cell(config, c) for c in cells]

    rows = [o.row for o in outputs]
    csv_text = results_csv(rows)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "results.csv", csv_text.encode())
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["axis", "m_um", "s_um", "d_um", "train_seconds"])
        for r in rows:
            w.writerow([r.axis, _fmt(r.m_um), _fmt(r.s_um), _fmt(r.d_um),
                        f"{r.train_seconds:.3f}"])
        _atomic_write(out / "timings.csv", buf.getvalue().encode())
        for cell, o in zip(cells, outputs):
            stem = f"{cell.axis}_{cell.cell_idx:02d}"
            _atomic_write(out / f"{stem}.weights", o.weights)
            hr, lr, sr = o.sample_triple
            for tag, img in (("hr", hr), ("lr", lr), ("sr", sr)):
                _atomic_write(out / f"{stem}_{tag}.pgm", save_pgm(img))
            row_idx = hr.height // 2
            profile = line_profile(lr, row_idx, 0, lr.width)
            _atomic_write(
                out / f"{stem}_profile.csv",
                profile_csv(profile, col_start=0).encode(),
            )
    return rows, csv_text


_SWEEP_KEYS = {
    "phantom_specs", "train_count", "val_count", "test_count",
    "offset_um", "inter_fiber_distance_um", "fiber_diameter_um",
    "baseline_fiber_diameter_um", "baseline_inter_fiber_distance_um",
    "baseline_offset_um", "pixel_size_um", "train", "base_seed",
}
_PHANTOM_KEYS = {
    "width", "height", "nuclei_per_megapixel", "nucleus_radius_px",
    "nucleus_intensity", "background_level", "background_noise_sd",
    "eccentricity_max", "label",
}
_TRAIN_KEYS = {
    "learning_rate", "epochs", "batch_size", "patch_size", "patches_per_image",
    "adam_beta1", "adam_beta2", "adam_eps", "seed", "validation_interval",
    "lrelu_slope",
}


def sweep_config_from_json(doc: dict) -> SweepConfig:
    """Build a SweepConfig from a parsed JSON document; unknown keys are
    rejected at every level."""
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    unknown = set(doc) - _SWEEP_KEYS
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    if "phantom_specs" not in doc:
        raise ValueError("sweep config requires phantom_specs")

    specs = []
    for entry in doc["phantom_specs"]:
        bad = set(entry) - _PHANTOM_KEYS
        if bad:
            raise ValueError(f"unknown phantom spec keys: {sorted(bad)}")
        kwargs = dict(entry)
        for pair_key in ("nucleus_radius_px", "nucleus_intensity"):
            if pair_key in kwargs:
                kwargs[pair_key] = tuple(kwargs[pair_key])
        specs.append(PhantomSpec(**kwargs))

    train_doc = doc.get("train", {})
    bad = set(train_doc) - _TRAIN_KEYS
    if bad:
        raise ValueError(f"unknown train config keys: {sorted(bad)}")
    train_cfg = TrainConfig(**train_doc)

    kwargs = {
        k: v for k, v in doc.items() if k not in ("phantom_specs", "train")
    }
    for list_key in ("offset_um", "inter_fiber_distance_um", "fiber_diameter_um"):
        if list_key in kwargs:
            kwargs[list_key] = tuple(kwargs[list_key])
    return SweepConfig(phantom_specs=tuple(specs), train_config=train_cfg, **kwargs)


def _atomic_write(path: str | Path, payload: bytes) -> None:
    """Write through a temp file in the target directory, then rename.

    The temp name is unique per call, so concurrent writers to one path never
    share it, and it is removed if the write or the rename fails. Its mode
    comes from the umask like any other output file's (tempfile.mkstemp
    would make every output 0600).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(payload)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def line_profile(image: Image, row: int, col_start: int, col_end: int) -> np.ndarray:
    """Intensities along one row segment, for HR/LR/SR overlay plots."""
    if not (0 <= row < image.height):
        raise ValueError(f"row {row} outside image height {image.height}")
    if not (0 <= col_start < col_end <= image.width):
        raise ValueError(f"column range [{col_start},{col_end}) out of bounds")
    return image.data[row, col_start:col_end].copy()


def profile_csv(profile: np.ndarray, col_start: int = 0) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["col", "intensity"])
    for i, v in enumerate(profile):
        w.writerow([col_start + i, _fmt(float(v))])
    return buf.getvalue()


@dataclass(frozen=True)
class CompareReport:
    psnr_lr: float
    ssim_lr: float
    psnr_sr: float
    ssim_sr: float

    @property
    def delta_psnr(self) -> float:
        return self.psnr_sr - self.psnr_lr

    @property
    def delta_ssim(self) -> float:
        return self.ssim_sr - self.ssim_lr

    def csv_line(self) -> str:
        header = "psnr_lr,ssim_lr,psnr_sr,ssim_sr,delta_psnr,delta_ssim"
        values = ",".join(
            _fmt(v) for v in (self.psnr_lr, self.ssim_lr, self.psnr_sr,
                              self.ssim_sr, self.delta_psnr, self.delta_ssim)
        )
        return f"{header}\n{values}\n"


def compare_report(hr: Image, lr: Image, sr: Image) -> CompareReport:
    """PSNR/SSIM of LR and SR against the HR reference, with deltas."""
    return CompareReport(
        psnr_lr=psnr(hr, lr),
        ssim_lr=ssim(hr, lr),
        psnr_sr=psnr(hr, sr),
        ssim_sr=ssim(hr, sr),
    )
