"""Command-line entry point binding the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data/validation error. All file
outputs are written atomically (temp file + rename). Every source of
randomness is an explicit --seed flag with a fixed default, so default runs
are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import degrade as degrade_mod
from . import harness, metrics, phantom, preprocess, readerstats, srcnn
from .harness import _atomic_write, _build_config, _csv_text
from .image import Image, ImageError, load_pgm, save_pgm

DEFAULT_SEED = 17

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _read_image(path: str) -> Image:
    return load_pgm(Path(path).read_bytes())


def build_parser() -> _Parser:
    parser = _Parser(prog="endosim", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phantom", help="generate a synthetic nuclei phantom")
    p.set_defaults(run=_cmd_phantom)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--density", type=float, default=300.0,
                   dest="nuclei_per_megapixel", help="nuclei per megapixel")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("output")

    p = sub.add_parser("preprocess", help="Gaussian smoothing + CLAHE")
    p.set_defaults(run=_cmd_preprocess)
    pre = preprocess.PreprocessConfig
    p.add_argument("--sigma", type=float, default=pre.gaussian_sigma_px,
                   dest="gaussian_sigma_px")
    p.add_argument("--clip-limit", type=float, default=pre.clahe_clip_limit,
                   dest="clahe_clip_limit")
    p.add_argument("--tiles", type=int, nargs=2, default=pre.clahe_tiles,
                   metavar=("ROWS", "COLS"), dest="clahe_tiles")
    p.add_argument("--bins", type=int, default=pre.clahe_bins, dest="clahe_bins")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("degrade", help="simulate the fiber-probe LR image")
    p.set_defaults(run=_cmd_degrade)
    deg = degrade_mod.DegradationConfig
    p.add_argument("--pixel-size", type=float, default=deg.pixel_size_um,
                   dest="pixel_size_um", help="um per pixel")
    p.add_argument("--fiber-diameter", type=float, default=deg.fiber_diameter_um,
                   dest="fiber_diameter_um", help="m, um")
    p.add_argument("--inter-fiber-distance", type=float,
                   default=deg.inter_fiber_distance_um, dest="inter_fiber_distance_um",
                   help="s, um")
    p.add_argument("--max-offset", type=float, default=deg.max_offset_um,
                   dest="max_offset_um", help="d, um")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--emit-sparse", metavar="PATH",
                   help="also write the sparse acquisition image")
    p.add_argument("--emit-samples", metavar="PATH",
                   help="write the per-fiber sample log as CSV")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("train", help="train the SRCNN on paired PGM images")
    p.set_defaults(run=_cmd_train)
    tc = srcnn.TrainConfig
    p.add_argument("--epochs", type=int, default=tc.epochs)
    p.add_argument("--batch-size", type=int, default=tc.batch_size)
    p.add_argument("--patch-size", type=int, default=tc.patch_size)
    p.add_argument("--patches-per-image", type=int, default=tc.patches_per_image)
    p.add_argument("--learning-rate", type=float, default=tc.learning_rate)
    p.add_argument("--validation-interval", type=int,
                   default=tc.validation_interval)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--history", metavar="CSV",
                   help="write per-epoch loss history")
    p.add_argument("dataset", help="directory with train/ and val/ subdirs "
                   "holding <name>_lr.pgm and <name>_hr.pgm pairs")
    p.add_argument("weights", help="output weights path")

    p = sub.add_parser("infer", help="super-resolve one PGM image")
    p.set_defaults(run=_cmd_infer)
    p.add_argument("weights")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("metrics", help="print psnr_db,ssim for two images")
    p.set_defaults(run=_cmd_metrics)
    p.add_argument("reference")
    p.add_argument("test")

    p = sub.add_parser("sweep", help="run a degradation parameter sweep")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--config", required=True, help="sweep JSON document")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("profile", help="extract a cross-sectional line profile")
    p.set_defaults(run=_cmd_profile)
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--col-start", type=int, default=0)
    p.add_argument("--col-end", type=int, default=None)
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("readerstats", help="reader-study statistics report")
    p.set_defaults(run=_cmd_readerstats)
    p.add_argument("--reads", required=True, help="read-record CSV")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("samplesize", help="TOST equivalence sample size")
    p.set_defaults(run=_cmd_samplesize)
    p.add_argument("--power", type=float, default=0.8)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--limit", type=float, required=True)
    p.add_argument("--p", type=float, required=True, dest="p_assumed")

    return parser


def _load_pairs(root: Path) -> list[tuple[Image, Image]]:
    pairs = []
    for lr_path in sorted(root.glob("*_lr.pgm")):
        hr_path = lr_path.with_name(lr_path.name[: -len("_lr.pgm")] + "_hr.pgm")
        if not hr_path.exists():
            raise ImageError(f"missing HR mate for {lr_path.name}")
        pairs.append((_read_image(str(lr_path)), _read_image(str(hr_path))))
    if not pairs:
        raise ImageError(f"no *_lr.pgm/*_hr.pgm pairs in {root}")
    return pairs


def _config(cls: type, args: argparse.Namespace):
    """cls built from the parsed flags whose dest is one of its fields."""
    names = {f.name for f in fields(cls)}
    return _build_config(cls, {k: v for k, v in vars(args).items() if k in names},
                         f"{args.command} options")


def _cmd_phantom(args: argparse.Namespace) -> int:
    img, _ = phantom.generate_phantom(_config(phantom.PhantomSpec, args), args.seed)
    _atomic_write(args.output, save_pgm(img))
    return EXIT_OK


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _config(preprocess.PreprocessConfig, args)
    out = preprocess.preprocess(_read_image(args.input), cfg)
    _atomic_write(args.output, save_pgm(out))
    return EXIT_OK


def _cmd_degrade(args: argparse.Namespace) -> int:
    cfg = _config(degrade_mod.DegradationConfig, args)
    pair = degrade_mod.degrade(
        _read_image(args.input), cfg, np.random.default_rng(args.seed)
    )
    _atomic_write(args.output, save_pgm(pair.lr))
    if args.emit_sparse:
        _atomic_write(args.emit_sparse, save_pgm(pair.sparse))
    if args.emit_samples:
        # one format map over column lists (offsets are (dy, dx)); on a 1280x960
        # frame a per-row f-string loop takes about 75% longer, csv.writer 130%
        s = pair.samples
        columns = (*s["tile_origin"].T.tolist(), *s["roi_origin"].T.tolist(),
                   *s["offset"].T[::-1].tolist(), s["mean"].tolist())
        rows = map("{},{},{},{},{},{},{:.9g}".format, *columns)
        text = "\n".join(["tile_row,tile_col,roi_row,roi_col,dx,dy,mean", *rows]) + "\n"
        _atomic_write(args.emit_samples, text.encode())
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    root = Path(args.dataset)
    cfg = _config(srcnn.TrainConfig, args)
    model, history = srcnn.train(
        _load_pairs(root / "train"), _load_pairs(root / "val"), cfg
    )
    _atomic_write(args.weights, srcnn.save_weights(model))
    if args.history:
        text = _csv_text(["epoch", "train_mse", "val_mse"], (
            [epoch, f"{train_mse:.6f}", f"{val_mse:.6f}"]
            for epoch, train_mse, val_mse in history.rows))
        _atomic_write(args.history, text.encode())
    return EXIT_OK


def _cmd_infer(args: argparse.Namespace) -> int:
    model = srcnn.load_weights(Path(args.weights).read_bytes())
    sr = srcnn.infer(model, _read_image(args.input))
    _atomic_write(args.output, save_pgm(sr))
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    ref = _read_image(args.reference)
    test = _read_image(args.test)
    print(f"{metrics.psnr(ref, test):.6f},{metrics.ssim(ref, test):.6f}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except RecursionError:
        raise ValueError(f"JSON in {args.config} is nested too deeply") from None
    config = harness.sweep_config_from_json(doc)
    harness.run_sweep(config, out_dir=args.out, threads=args.threads)
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    img = _read_image(args.input)
    col_end = args.col_end if args.col_end is not None else img.width
    profile = harness.line_profile(img, args.row, args.col_start, col_end)
    _atomic_write(
        args.output, harness.profile_csv(profile, col_start=args.col_start).encode()
    )
    return EXIT_OK


def _cmd_readerstats(args: argparse.Namespace) -> int:
    records = readerstats.parse_records(Path(args.reads).read_text())
    report = readerstats.study_report(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in readerstats.report_csv_tables(report).items():
        _atomic_write(out / name, text.encode())
    return EXIT_OK


def _cmd_samplesize(args: argparse.Namespace) -> int:
    n = readerstats.equivalence_sample_size(
        power=args.power, alpha=args.alpha,
        equivalence_limit=args.limit, p_assumed=args.p_assumed,
    )
    print(n)
    return EXIT_OK


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:  # ImageError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
