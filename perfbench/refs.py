"""Recorded references for frame_hd outputs, and the checks against them.

frame_hd draws its frames from a fixed pool, so every frame a run can make
has a reference recorded with the program as it was when the benchmark was
written (``python3 perfbench/run.py --record-refs``). The LR PGM, sparse PGM
and samples CSV are kept as SHA-256 digests and must match byte for byte.
The SR frame is kept as a lattice of pixels (every 8th row and column) plus
every row mean and column mean; each may differ from the recording by at
most 1/255, which admits float32 rounding changes but not a wrong band or
tile. The PGM decoder here is the benchmark's own, not the program's.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"
LATTICE = 8
SR_TOLERANCE = 1.0 / 255.0
DIGESTED = ("lr.pgm", "sparse.pgm", "samples.csv")


def decode_pgm(blob: bytes) -> np.ndarray:
    """Values in [0, 1] of a binary PGM with a plain 'P5 w h maxval' header,
    as the program writes it."""
    fields = blob.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5":
        raise ValueError("not a plain binary PGM")
    width, height, maxval = (int(f) for f in fields[1:4])
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raster = blob[len(blob) - width * height * dtype.itemsize:]
    return np.frombuffer(raster, dtype=dtype).reshape(height, width) / maxval


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sr_summary(sr: np.ndarray) -> dict[str, np.ndarray]:
    return {
        # exact 16-bit PGM samples
        "lattice": np.rint(sr[::LATTICE, ::LATTICE] * 65535).astype(np.uint16),
        "row_means": sr.mean(axis=1).astype(np.float32),
        "col_means": sr.mean(axis=0).astype(np.float32),
    }


def _unit(a: np.ndarray) -> np.ndarray:
    return a / 65535.0 if a.dtype == np.uint16 else a.astype(np.float64)


def frame_record(frame_dir: Path) -> dict[str, np.ndarray]:
    """Everything recorded about one frame's outputs."""
    rec = {name: np.array(sha256(frame_dir / name)) for name in DIGESTED}
    rec.update(sr_summary(decode_pgm((frame_dir / "sr.pgm").read_bytes())))
    return rec


def path_for(tag: str) -> Path:
    return REFS_DIR / f"frame_hd_{tag}.npz"


def save(tag: str, records: list[dict[str, np.ndarray]]) -> None:
    REFS_DIR.mkdir(exist_ok=True)
    flat = {f"{i}/{k}": v for i, rec in enumerate(records) for k, v in rec.items()}
    np.savez_compressed(path_for(tag), **flat)


def load(tag: str) -> list[dict[str, np.ndarray]]:
    with np.load(path_for(tag), allow_pickle=False) as data:
        records: dict[int, dict[str, np.ndarray]] = {}
        for key in data.files:
            i, name = key.split("/", 1)
            records.setdefault(int(i), {})[name] = data[key]
    return [records[i] for i in sorted(records)]


def check_frame(frame_dir: Path, ref: dict[str, np.ndarray]) -> list[str]:
    """Failures of one frame's outputs against its recorded reference."""
    failures = []
    for name in DIGESTED:
        path = frame_dir / name
        if not path.is_file():
            failures.append(f"{name} missing")
        elif sha256(path) != str(ref[name]):
            failures.append(f"{name} differs from the recorded digest")
    try:
        got = sr_summary(decode_pgm((frame_dir / "sr.pgm").read_bytes()))
    except (OSError, ValueError) as exc:
        return failures + [f"sr.pgm unreadable: {exc}"]
    for key, want in got.items():
        if want.shape != ref[key].shape:
            failures.append(f"sr {key} shape {want.shape} != {ref[key].shape}")
            continue
        err = float(np.max(np.abs(_unit(want) - _unit(ref[key]))))
        if err > SR_TOLERANCE:
            failures.append(f"sr {key} differs by {err:.5f} > 1/255")
    return failures
