"""The benchmark's own checks, at toy size: python3 perfbench/run.py --smoke

1. Every workload, untraced and traced, prints every metric BENCHMARK.json
   names, each with its unit, and no operation fails.
2. The same seed generates the same inputs, and a changed seed changes them.
3. Each output check fails when it is fed a corrupted output.
4. Without the program's sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from endosim import harness, srcnn

import refs
from workloads import WORKLOADS, FrameHd, SweepSmall, training_failures


def _run(run_py: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(run_py: Path, root: Path, bench: dict) -> list[str]:
    problems = []
    for wl in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{wl['name']} --trace {trace}"
            proc = _run(run_py, root, "--workload", wl["name"], "--seed", "1",
                        "--seconds", "2", "--trace", str(trace), "--toy")
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            for m in bench[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or unit != {m['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{where}: {m['name']} = {got['value']}")
    return problems


def check_seeds(scratch: Path) -> list[str]:
    problems = []
    for name, cls in WORKLOADS.items():
        digests = []
        for seed in (1, 1, 2):
            d = Path(tempfile.mkdtemp(dir=scratch))
            wl = cls(seed, 2.0, True, d)
            wl.setup()
            digests.append(wl.inputs_digest())
        if digests[0] != digests[1]:
            problems.append(f"{name}: the same seed gave different inputs")
        if digests[0] == digests[2]:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
    return problems


def _expect_failure(problems: list[str], what: str, failures: list[str]) -> None:
    if not failures:
        problems.append(f"corrupted {what} passed its check")


def check_corruption(scratch: Path) -> list[str]:
    problems = []

    # frame_hd: one byte of the LR frame, one SR pixel, the printed metrics
    wl = FrameHd(1, 2.0, True, scratch)
    wl.setup()
    index, d = wl.order[0], scratch / "frame"
    d.mkdir()
    _, failures, printed = wl.run_frame(index, d)
    failures += wl.check(index, d, printed)[0]
    if failures:
        problems.append(f"frame_hd: clean frame failed: {failures}")
    lr = (d / "lr.pgm").read_bytes()
    (d / "lr.pgm").write_bytes(lr[:-1] + bytes([lr[-1] ^ 1]))
    _expect_failure(problems, "frame_hd lr.pgm", wl.check(index, d, printed)[0])
    (d / "lr.pgm").write_bytes(lr)
    sr = (d / "sr.pgm").read_bytes()
    first = len(sr) - 2 * wl.width * wl.height  # sample (0, 0), on the lattice
    value = int.from_bytes(sr[first:first + 2], "big")
    bumped = value + 600 if value < 60000 else value - 600  # ~2.3/255
    (d / "sr.pgm").write_bytes(sr[:first] + bumped.to_bytes(2, "big") + sr[first + 2:])
    _expect_failure(problems, "frame_hd sr.pgm", wl.check(index, d, printed)[0])
    (d / "sr.pgm").write_bytes(sr)
    _expect_failure(problems, "frame_hd metrics", wl.check(index, d, "nan,0.5\n")[0])
    if refs.check_frame(d, wl.references[index]):
        problems.append("frame_hd: restored frame no longer matches")

    # sweep_small: a non-finite result row, a missing output file
    sw = SweepSmall(1, 2.0, True, scratch)
    config = harness.sweep_config_from_json(sw.config_doc(0))
    out = scratch / "sweep"
    harness.run_sweep(config, out_dir=out, threads=1)
    if sw.check(config, out)[0]:
        problems.append(f"sweep_small: clean sweep failed: {sw.check(config, out)[0]}")
    results = (out / "results.csv").read_text()
    header, row, *rest = results.splitlines()
    cols = row.split(",")
    cols[header.split(",").index("mean_psnr_sr")] = "nan"
    (out / "results.csv").write_text("\n".join([header, ",".join(cols), *rest]) + "\n")
    _expect_failure(problems, "sweep_small results.csv", sw.check(config, out)[0])
    (out / "results.csv").write_text(results)
    next(out.glob("*_sr.pgm")).unlink()
    _expect_failure(problems, "sweep_small output set", sw.check(config, out)[0])

    # train_desk: a non-finite loss, a validation MSE that never improves
    cfg = srcnn.TrainConfig(epochs=2, validation_interval=1)
    nan = float("nan")
    good = srcnn.TrainHistory([(0, nan, 0.02), (1, 0.01, 0.015), (2, 0.009, 0.01)])
    if training_failures(good, cfg):
        problems.append("train_desk: a good history failed its check")
    for what, rows in (
        ("non-finite loss", [(0, nan, 0.02), (1, nan, 0.015), (2, 0.009, 0.01)]),
        ("worse validation", [(0, nan, 0.02), (1, 0.03, 0.03), (2, 0.03, 0.025)]),
    ):
        _expect_failure(problems, f"train_desk history ({what})",
                        training_failures(srcnn.TrainHistory(rows), cfg))
    return problems


def check_without_sources(run_py: Path, scratch: Path) -> list[str]:
    bare = scratch / "bare"
    shutil.copytree(run_py.parent, bare / run_py.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_py.parent.parent / "BENCHMARK.json", bare)
    proc = _run(bare / run_py.parent.name / run_py.name, bare,
                "--workload", "train_desk", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main(run_py: Path) -> int:
    root = run_py.parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    scratch_root = root / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch_root))
    try:
        problems = (check_metrics(run_py, root, bench) + check_seeds(scratch)
                    + check_corruption(scratch) + check_without_sources(run_py, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()
    for p in problems:
        print(f"smoke: FAIL {p}")
    print(f"smoke: {'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0
