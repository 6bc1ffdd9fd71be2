"""Experiment orchestration: degradation parameter sweeps, line profiles
and per-image comparison scores.

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
import time
import uuid
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .degrade import DegradationConfig, degrade
from .image import Image, save_pgm
from .metrics import SSIM_WINDOW, psnr, ssim
from .phantom import PhantomSpec, generate_phantom
from .srcnn import TrainConfig, _pool, infer, save_weights, train

__all__ = [
    "SweepConfig",
    "ResultRow",
    "SweepFailed",
    "run_sweep",
    "line_profile",
    "compare_report",
    "CompareReport",
]

# Grid order: (axis, SweepConfig field holding its values, DegradationConfig
# field a cell overrides). The baseline of each axis is "baseline_" + the
# values field.
_AXES = (
    ("offset", "offset_um", "max_offset_um"),
    ("inter_fiber_distance", "inter_fiber_distance_um", "inter_fiber_distance_um"),
    ("fiber_diameter", "fiber_diameter_um", "fiber_diameter_um"),
)


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
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if any(not isinstance(getattr(self, v), (tuple, list)) for _, v, _ in _AXES):
            raise ValueError("sweep axis values must be lists of numbers")
        # a cell crops its first train_count phantoms and scores its first test_count
        for count, least, what in ((self.train_count, self.train_config.patch_size, "patch_size"),
                                   (self.test_count, SSIM_WINDOW, "the SSIM window")):
            side = min(min(s.width, s.height) for s in self.phantom_specs[:count])
            if side < least:
                raise ValueError(f"phantom side {side} smaller than {what} ({least})")

    def cells(self) -> list["SweepCell"]:
        """Grid enumeration: offset axis, then s axis, then m axis."""
        baseline = {"pixel_size_um": self.pixel_size_um}
        for _, values, field in _AXES:
            baseline[field] = getattr(self, "baseline_" + values)
        used = self.phantom_specs[:max(self.train_count, self.val_count, self.test_count)]
        side = min(min(s.width, s.height) for s in used)  # of every phantom a cell degrades
        out: list[SweepCell] = []
        for axis_idx, (axis, values, field) in enumerate(_AXES):
            for cell_idx, value in enumerate(getattr(self, values)):
                try:
                    cfg = DegradationConfig(**{**baseline, field: value})
                    if side < cfg.s_px:
                        raise ValueError(f"phantom side {side} smaller than the tile ({cfg.s_px})")
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"invalid sweep cell {axis}[{cell_idx}]={value}: {exc}") from exc
                out.append(SweepCell(axis, axis_idx, cell_idx, cfg))
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


# wall time goes to timings.csv, so results.csv is byte-identical across runs
RESULTS_HEADER = [f.name for f in fields(ResultRow) if f.name != "train_seconds"]


def _make_pairs(
    config: SweepConfig, degradation: DegradationConfig, count: int, seed: int
) -> list[tuple[Image, Image]]:
    pairs = []
    for k in range(count):
        hr, _ = generate_phantom(config.phantom_specs[k % len(config.phantom_specs)], seed + k)
        pairs.append((degrade(hr, degradation, np.random.default_rng(seed + k + 7919)).lr, hr))
    return pairs


def _run_cell(config: SweepConfig, cell: SweepCell, out: Path | None) -> ResultRow:
    """Train and score one cell. With an output directory, the cell's
    weights, first hr/lr/sr test triple and LR line profile are written
    there before it returns."""
    data_seed, train_seed = map(int, np.random.SeedSequence(
        config.base_seed, spawn_key=(cell.axis_idx, cell.cell_idx)).generate_state(2))
    train_pairs = _make_pairs(config, cell.degradation, config.train_count, data_seed)
    val_pairs = _make_pairs(config, cell.degradation, config.val_count, data_seed + 10_000)
    test_pairs = _make_pairs(config, cell.degradation, config.test_count, data_seed + 20_000)

    t0 = time.monotonic()
    model, _history = train(
        train_pairs, val_pairs, replace(config.train_config, seed=train_seed))
    train_seconds = time.monotonic() - t0

    reports: list[CompareReport] = []
    for lr_img, hr_img in test_pairs:
        sr_img = infer(model, lr_img)
        reports.append(compare_report(hr_img, lr_img, sr_img))
        if len(reports) == 1:
            sample = (hr_img, lr_img, sr_img)

    if out is not None:
        stem = f"{cell.axis}_{cell.cell_idx:02d}"
        _atomic_write(out / f"{stem}.weights", save_weights(model))
        hr, lr, sr = sample
        for tag, img in (("hr", hr), ("lr", lr), ("sr", sr)):
            _atomic_write(out / f"{stem}_{tag}.pgm", save_pgm(img))
        profile = line_profile(lr, hr.height // 2, 0, lr.width)
        _atomic_write(out / f"{stem}_profile.csv",
                      profile_csv(profile, col_start=0).encode())

    stats = {}
    with np.errstate(invalid="ignore"):
        for name in (f.name for f in fields(CompareReport)):
            arr = np.asarray([getattr(r, name) for r in reports], dtype=np.float64)
            stats[f"mean_{name}"] = float(np.mean(arr))
            stats[f"std_{name}"] = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
    d = cell.degradation
    return ResultRow(
        axis=cell.axis, m_um=d.fiber_diameter_um, s_um=d.inter_fiber_distance_um,
        d_um=d.max_offset_um, seed=data_seed, train_seconds=train_seconds, **stats)


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def results_csv(rows: list[ResultRow]) -> str:
    """Deterministic results table; wall times are deliberately excluded
    (they go to timings.csv) so repeated runs are byte-identical."""
    return _csv_text(RESULTS_HEADER, (
        [getattr(r, name) if name in ("axis", "seed") else f"{getattr(r, name):.9g}"
         for name in RESULTS_HEADER] for r in rows))


class SweepFailed(ValueError):
    """Sweep cells failed; the first failure in grid order is the __cause__."""


def run_sweep(
    config: SweepConfig, out_dir: str | Path | None = None, threads: int = 1
) -> tuple[list[ResultRow], str]:
    """Run every grid cell on a pool of min(threads, cells) workers. With
    out_dir, each cell writes its weights, hr/lr/sr sample PGMs and line
    profile there as it finishes; results.csv and timings.csv follow once
    every cell has succeeded.

    The pool is a srcnn._pool, so while two or more cells run at once,
    OpenBLAS runs one thread process-wide. Cells run on pool threads, so
    each cell's train starts no threads of its own.

    Rows come in grid order and are identical for any worker count. A
    failing cell does not stop the others; once they finish, SweepFailed
    names every failed cell, and neither table is written.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells = config.cells()
    if not cells:
        raise ValueError("sweep grid is empty")
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    with _pool(min(threads, len(cells))) as pool:
        futures = [pool.submit(_run_cell, config, c, out) for c in cells]
    failed = [(c, e) for c, f in zip(cells, futures) if (e := f.exception()) is not None]
    if failed:
        names = ", ".join(f"{c.axis}[{c.cell_idx}]" for c, _ in failed)
        raise SweepFailed(f"sweep cells {names} failed: {failed[0][1]}") from failed[0][1]
    rows = [f.result() for f in futures]
    csv_text = results_csv(rows)

    if out is not None:
        _atomic_write(out / "results.csv", csv_text.encode())
        timings = _csv_text(RESULTS_HEADER[:4] + ["train_seconds"], (
            [r.axis, f"{r.m_um:.9g}", f"{r.s_um:.9g}", f"{r.d_um:.9g}", f"{r.train_seconds:.3f}"]
            for r in rows))
        _atomic_write(out / "timings.csv", timings.encode())
    return rows, csv_text


# JSON key of each config field whose key differs from its name
_JSON_KEYS = {"train_config": "train"}


def _build_config(cls: type, doc: dict, what: str, **nested):
    """Build the dataclass cls from doc, keyed by field name or _JSON_KEYS
    entry, with lists as tuples and the already built nested configs in
    place of their entries. An unknown key, a JSON boolean (Python's bool is
    an int) in a field or list, a non-int in a field annotated int, or a
    TypeError from cls (a wrong type) becomes a ValueError naming what."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    names = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(doc) - set(names)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = {names[k]: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    for key, value in doc.items():
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"invalid {what}: {key} must hold numbers, not booleans")
    for f in fields(cls):
        if f.type in ("int", int) and not isinstance(kwargs.get(f.name, 0), int):
            raise ValueError(f"invalid {what}: {f.name} must be an integer, "
                             f"got {kwargs[f.name]!r}")
    try:
        return cls(**{**kwargs, **nested})
    except TypeError as exc:
        raise ValueError(f"invalid {what}: {exc}") from exc


def sweep_config_from_json(doc: dict) -> SweepConfig:
    """Build a SweepConfig from a parsed JSON document; unknown keys are
    rejected at every level."""
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    specs = doc.get("phantom_specs")
    if not isinstance(specs, list):
        raise ValueError("sweep config requires phantom_specs, a list of objects")
    train = doc.get("train", {})
    if isinstance(train, dict) and "seed" in train:
        raise ValueError("train config key seed is not settable in a sweep: each "
                         "cell's training seed derives from base_seed")
    return _build_config(
        SweepConfig, doc, "sweep config",
        phantom_specs=tuple(_build_config(PhantomSpec, e, "phantom spec") for e in specs),
        train_config=_build_config(TrainConfig, train, "train config"))


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
    return _csv_text(["col", "intensity"],
                     ([col_start + i, f"{v:.9g}"] for i, v in enumerate(profile)))


@dataclass(frozen=True)
class CompareReport:
    psnr_lr: float
    ssim_lr: float
    psnr_sr: float
    ssim_sr: float


def compare_report(hr: Image, lr: Image, sr: Image) -> CompareReport:
    """PSNR/SSIM of LR and SR against the HR reference."""
    return CompareReport(
        psnr_lr=psnr(hr, lr),
        ssim_lr=ssim(hr, lr),
        psnr_sr=psnr(hr, sr),
        ssim_sr=ssim(hr, sr),
    )
