"""endosim benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/. Each run
is one process and a closed loop: an operation starts when the previous one
has finished. Report lines go to stdout first, and the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they are
the per-layer ones from a traced pass, and the report gives the tracing
overhead against an untraced pass over the same inputs. Full records (and,
when traced, the spans as JSON lines) are written to .bench_out/.

Other modes: --smoke runs the benchmark's own checks at toy size;
--record-refs records the frame_hd output references (see refs.py).
Thread counts are left at the library defaults, as users run them.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCRATCH = ROOT / ".bench_tmp"

SETUP_REPEATS = 5

# name -> unit. The end-to-end metrics apply to every workload; what one
# operation is differs (see README.md).
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "op_s_p50": "s",
    "sr_psnr_db": "dB",
}
# per-layer figures every workload exercises (units come from tracing.py);
# the report prints the rest
PER_LAYER = (
    "srcnn.conv1.fwd_s",
    "srcnn.conv2.fwd_s",
    "srcnn.conv3.fwd_s",
    "srcnn.conv3.dx_s",
    "srcnn.conv2.dx_s",
    "srcnn.lrelu_s",
    "srcnn.adam_step_s",
    "srcnn.loss_and_grads_s",
    "srcnn.loss_and_grads.self_s",
    "srcnn.val_forward_s",
    "srcnn.infer_s",
    "srcnn.infer.peak_alloc_mb",
    "srcnn.conv_gflop_per_s",
    "degrade.s",
    "degrade.fibers_per_s",
    "phantom.generate_s",
    "metrics.psnr_s",
    "metrics.ssim_s",
)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy
    import scipy
    from workloads import NPROC

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def _status_mb(key: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(key)


def timing_summary(samples: list[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    import numpy

    out = {"n": len(samples), "p50": statistics.median(samples)}
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = float(numpy.percentile(samples, p))
            break
    return out


def timed_setups(wl, repeats: int, tracer=None) -> list[float]:
    times = []
    for k in range(repeats):
        if tracer:
            tracer.begin_op(f"setup{k}", "setup")
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
    return times


def measure(wl, seconds: float, tracer=None) -> list:
    """Closed loop of operations until the next one would overrun seconds."""
    from workloads import OpResult

    results = []
    start = time.perf_counter()
    for i in itertools.count():
        if tracer:
            tracer.begin_op(f"op{i}", "run")
        t0 = time.perf_counter()
        try:
            r = wl.op(i)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            r = OpResult(time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"])
        finally:
            if tracer:
                tracer.end_op()
        results.append(r)
        if i + 1 >= wl.max_ops or time.perf_counter() - start + r.seconds > seconds:
            return results


def _median_value(results, key: str) -> float | None:
    vals = [r.values[key] for r in results if key in r.values]
    return statistics.median(vals) if vals else None


def run(workload: str, seed: int, seconds: float, traced: bool, toy: bool) -> dict:
    from workloads import WORKLOADS
    import tracing

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        # a traced run splits its time between an untraced and a traced pass
        wl = WORKLOADS[workload](seed, seconds / 2 if traced else seconds, toy, scratch)
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(traced), "toy": toy, "machine": machine_record(),
                  "inputs": wl.inputs(), "work_computed": wl.work()}
        if not traced:
            setups = timed_setups(wl, SETUP_REPEATS)
            rss0 = _status_mb("VmRSS")
            results = measure(wl, seconds)
            peak = _status_mb("VmHWM") - rss0
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                setups = timed_setups(wl, 1, tracer)
            finally:
                tracer.uninstall()
            base = measure(wl, seconds / 2)
            tracer.install()
            try:
                results = measure(wl, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer.spans)
            untraced_p50 = statistics.median(r.seconds for r in base)
            traced_p50 = statistics.median(r.seconds for r in results)
            record["tracing_overhead"] = {
                "untraced_op_s_p50": untraced_p50, "traced_op_s_p50": traced_p50,
                "delta_s": traced_p50 - untraced_p50,
                "ratio": traced_p50 / untraced_p50 - 1.0}
            record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"{workload}-seed{seed}.spans.jsonl")
            results = base + results
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    failed = sum(1 for r in results if r.failures)
    record["setup_s"] = setups
    record["ops"] = {"op_s": timing_summary([r.seconds for r in results]),
                     "op_seconds": [r.seconds for r in results],
                     "values_p50": {k: _median_value(results, k)
                                    for k in sorted({k for r in results for k in r.values})},
                     "failures": [f for r in results for f in r.failures]}
    record["attempted"], record["failed"] = len(results), failed
    record["fail_ratio"] = failed / len(results)
    if traced:
        metrics = {k: record["per_layer"][k] for k in PER_LAYER if k in record["per_layer"]}
    else:
        psnr = _median_value(results, "sr_psnr_db")
        values = {
            "setup_s": statistics.median(setups),
            "ok_ratio": 1.0 - record["fail_ratio"],
            "peak_rss_mb": peak,
            "op_s_p50": record["ops"]["op_s"]["p50"],
            "sr_psnr_db": psnr if psnr is not None else 0.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["end_to_end"] = metrics
    record["result"] = {"correct": failed == 0, "attempted": len(results),
                        "failed": failed, "metrics": metrics}
    return record


def record_refs() -> int:
    """Record frame_hd references for every pool entry, toy and full size."""
    import refs
    from workloads import FrameHd

    SCRATCH.mkdir(exist_ok=True)
    for toy in (True, False):
        scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=SCRATCH))
        try:
            wl = FrameHd(0, 0.0, toy, scratch)
            wl.setup()
            records = []
            for index in range(wl.max_ops):
                d = scratch / f"frame{index}"
                d.mkdir()
                seconds, failures, _ = wl.run_frame(index, d)
                if failures:
                    print(f"frame {index}: {failures}", file=sys.stderr)
                    return 1
                records.append(refs.frame_record(d))
                print(f"recorded {wl.tag} frame {index} in {seconds:.2f} s")
            refs.save(wl.tag, records)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


def print_report(rec: dict) -> None:
    def line(label, obj):
        print(f"# {label}: {json.dumps(obj, sort_keys=True)}")

    print(f"# perfbench {rec['workload']} seed={rec['seed']} seconds={rec['seconds']}"
          f" trace={rec['trace']} toy={rec['toy']}")
    line("machine", rec["machine"])
    line("inputs", rec["inputs"])
    line("setup_s", rec["setup_s"])
    line("op_s", rec["ops"]["op_s"])
    line("per-op values (median)", rec["ops"]["values_p50"])
    line("fail_ratio", rec["fail_ratio"])
    for scope, kernels in rec["work_computed"].items():
        for name, w in kernels.items():
            print(f"# work computed {scope} {name}: MACs={w['macs']} bytes={w['bytes']}")
    for f in rec["ops"]["failures"]:
        print(f"# FAILED: {f}")
    if rec["trace"]:
        line("tracing overhead", rec["tracing_overhead"])
        for name, m in sorted(rec["per_layer"].items()):
            print(f"# layer {name:30s} {m['value']:.6g} {m['unit']}")
    else:
        for name, m in rec["end_to_end"].items():
            print(f"# end-to-end {name:12s} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["train_desk", "frame_hd", "sweep_small"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true", help="toy input sizes")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own checks")
    ap.add_argument("--record-refs", action="store_true",
                    help="record the frame_hd output references")
    args = ap.parse_args(argv)

    if not (SRC / "endosim" / "__init__.py").is_file():
        print(f"perfbench: no endosim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.smoke:
        import smoke
        return smoke.main(Path(__file__))
    if args.record_refs:
        return record_refs()
    if args.workload is None or args.seconds <= 0:
        ap.error("--workload and a positive --seconds are required")

    rec = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True))
    print_report(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
