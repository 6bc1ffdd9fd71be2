"""Print a SHA-256 digest of every file a fixed set of endosim CLI runs
writes, plus the stdout of `metrics` and `samplesize`, so that two source
trees can be compared for byte identity:

    PYTHONPATH=src python tools/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/output_digests.py > old.txt
    diff old.txt new.txt

Every command runs as `python -m endosim.cli` in a temporary directory with
the caller's environment, so the endosim found on PYTHONPATH is the one
measured. The runs cover phantom, preprocess (the defaults, a 3x5 grid of
uneven tiles at 64 bins and clip 0.02, and 65536 bins), degrade (max offset 0
and 2, with the sparse frame and the sample log, and m=4 s=10 d=6 um with the
sample log: an odd gap of 3 px, regions clamped to the frame and a 1-pixel
strip without fibers), train with a history on 8x64x64 batches (two whole-image
units, so train's thread pool runs on the main thread), on batches of 16 and
4 64x64 patches (four units, then one, each handed to the pool) and on
batches of 2 160x160 patches (over 2**14 pixels each, so every patch is cut
into two row bands with a halo, four units a step), infer, metrics,
profile, a 4-cell sweep at --threads 1 and 2, readerstats and samplesize. A
1280x960 chain (phantom, preprocess, degrade at m=6 s=12 d=2 um with the
sparse frame and the sample log, metrics of the preprocessed frame against
the LR one, infer with the 8x64x64 model, then metrics of the preprocessed
frame against the SR one) checks every frame stage at full-frame size,
infer over several bands of several tiles each, run on its thread pool. Two
edge shapes of the separable window product follow: a 1x1-tile preprocess of
a 6x40 frame, narrower than the 17-tap blur kernel, so its 8-pixel mirror pad
is wider than the frame, and metrics of a 64x11 pair, whose height equals the
11-pixel SSIM window, so the valid region is one row. A sweep's timings.csv
holds wall times and is left out.
The whole run takes well under a minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


# the caller's environment, with PYTHONPATH made absolute for the temporary cwd
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)}


def endosim(cwd: Path, *argv: str) -> str:
    """Run one CLI command in cwd and return its stdout; a non-zero exit
    stops the script with the command's stderr."""
    proc = subprocess.run([sys.executable, "-m", "endosim.cli", *argv], cwd=cwd,
                          env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"endosim {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def reads_csv() -> str:
    """Two readers, each reading six images in both modalities."""
    rows = ["image_id,reader_id,modality,call,confidence,truth"]
    for r, reader in enumerate(("r1", "r2")):
        for i in range(6):
            truth = "neoplastic" if i % 2 else "non_neoplastic"
            call = truth if (i + r) % 3 else "neoplastic"
            for modality in ("HR", "SR"):
                confidence = "high" if (i + r) % 2 else "low"
                rows.append(f"img{i},{reader},{modality},{call},{confidence},{truth}")
    return "\n".join(rows) + "\n"


SWEEP = {
    "phantom_specs": [{"width": 64, "height": 64}],
    "train_count": 2, "val_count": 1, "test_count": 2,
    "offset_um": [0, 2], "inter_fiber_distance_um": [8, 12],
    "train": {"epochs": 2, "patch_size": 32, "patches_per_image": 2,
              "batch_size": 2, "learning_rate": 1e-3},
}


def make_pairs(root: Path, data: str, width: int, height: int, train: tuple[int, ...],
               val: tuple[int, ...]) -> None:
    """One phantom of width x height and its degraded LR mate per seed, in
    data/train and data/val."""
    for split, seeds in (("train", train), ("val", val)):
        (root / data / split).mkdir(parents=True)
        for seed in seeds:
            stem = f"{data}/{split}/p{seed}"
            endosim(root, "phantom", "--width", str(width), "--height", str(height),
                    "--seed", str(seed), f"{stem}_hr.pgm")
            endosim(root, "degrade", "--max-offset", "2", "--seed", str(seed),
                    f"{stem}_hr.pgm", f"{stem}_lr.pgm")


def run(root: Path) -> list[str]:
    stdout = []
    endosim(root, "phantom", "--width", "96", "--height", "80", "--seed", "1", "hr.pgm")
    endosim(root, "preprocess", "hr.pgm", "pre.pgm")
    endosim(root, "preprocess", "--tiles", "3", "5", "--bins", "64", "--clip-limit", "0.02",
            "hr.pgm", "pre_uneven.pgm")
    endosim(root, "preprocess", "--bins", "65536", "hr.pgm", "pre_65536.pgm")
    for d in ("0", "2"):
        endosim(root, "degrade", "--max-offset", d, "--emit-sparse", f"sparse{d}.pgm",
                "--emit-samples", f"samples{d}.csv", "hr.pgm", f"lr{d}.pgm")
    endosim(root, "degrade", "--fiber-diameter", "4", "--inter-fiber-distance", "10",
            "--max-offset", "6", "--emit-samples", "samples_odd.csv", "hr.pgm", "lr_odd.pgm")

    # two non-square pairs of 4 patches each: one batch of 8x64x64 per epoch
    make_pairs(root, "data", 80, 72, (2, 3), (4,))
    endosim(root, "train", "--epochs", "2", "--batch-size", "8", "--patch-size", "64",
            "--patches-per-image", "4", "--learning-rate", "1e-3",
            "--history", "history.csv", "data", "model.weights")
    # four pairs of 5 patches each: a 16-patch batch of 4 units, then a
    # 4-patch batch of one unit, both on train's thread pool
    make_pairs(root, "data4", 72, 64, (5, 6, 7, 8), (9,))
    endosim(root, "train", "--epochs", "2", "--batch-size", "16", "--patch-size", "64",
            "--patches-per-image", "5", "--learning-rate", "1e-3",
            "--history", "history4.csv", "data4", "model4.weights")
    # one pair of 2 patches of 160x160: one batch of 2 per epoch, each patch
    # two row bands (102 and 58 rows) with a 6-row halo
    make_pairs(root, "data160", 176, 168, (10,), (11,))
    endosim(root, "train", "--epochs", "2", "--batch-size", "2", "--patch-size", "160",
            "--patches-per-image", "2", "--learning-rate", "1e-3",
            "--history", "history160.csv", "data160", "model160.weights")
    endosim(root, "infer", "model.weights", "lr2.pgm", "sr.pgm")
    stdout.append("metrics: " + endosim(root, "metrics", "hr.pgm", "sr.pgm").strip())
    endosim(root, "profile", "--row", "40", "sr.pgm", "profile.csv")

    endosim(root, "phantom", "--width", "1280", "--height", "960", "--seed", "1000",
            "hd_hr.pgm")
    endosim(root, "preprocess", "hd_hr.pgm", "hd_pre.pgm")
    endosim(root, "degrade", "--pixel-size", "2", "--fiber-diameter", "6",
            "--inter-fiber-distance", "12", "--max-offset", "2", "--seed", "2000",
            "--emit-sparse", "hd_sparse.pgm", "--emit-samples", "hd_samples.csv",
            "hd_pre.pgm", "hd_lr.pgm")
    stdout.append("metrics hd: " + endosim(root, "metrics", "hd_pre.pgm", "hd_lr.pgm").strip())
    endosim(root, "infer", "model.weights", "hd_lr.pgm", "hd_sr.pgm")
    stdout.append("metrics hd sr: " + endosim(root, "metrics", "hd_pre.pgm",
                                              "hd_sr.pgm").strip())

    endosim(root, "phantom", "--width", "6", "--height", "40", "--seed", "3000",
            "narrow_hr.pgm")
    endosim(root, "preprocess", "--tiles", "1", "1", "narrow_hr.pgm", "narrow_pre.pgm")
    endosim(root, "phantom", "--width", "64", "--height", "11", "--seed", "3001",
            "short_hr.pgm")
    endosim(root, "degrade", "--seed", "3002", "short_hr.pgm", "short_lr.pgm")
    stdout.append("metrics short: " + endosim(root, "metrics", "short_hr.pgm",
                                              "short_lr.pgm").strip())

    (root / "sweep.json").write_text(json.dumps(SWEEP))
    for threads in ("1", "2"):
        endosim(root, "sweep", "--config", "sweep.json", "--out", f"sweep{threads}",
                "--threads", threads)
        (root / f"sweep{threads}" / "timings.csv").unlink()

    (root / "reads.csv").write_text(reads_csv())
    endosim(root, "readerstats", "--reads", "reads.csv", "--out", "report")
    stdout.append("samplesize: " + endosim(root, "samplesize", "--limit", "0.1",
                                           "--p", "0.8").strip())
    return stdout


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        stdout = run(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    print("\n".join(stdout))


if __name__ == "__main__":
    main()
