"""Span tracing of endosim's public functions, installed from outside.

A traced run replaces each public function named in TARGETS with a timing
wrapper in every module namespace that looks it up (``endosim.harness.train``
is a separate binding from ``endosim.srcnn.train``, so both are patched).
Spans are kept in memory and written out as JSON lines when the run ends;
self times and per-layer figures are derived from them afterwards. Nothing
is patched in untraced runs, so those measure the program as users run it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    phase: str  # "setup" or "run"
    name: str
    t0: float
    t1: float
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


# (in_channels, out_channels, k) of SRCNN's conv2d calls. The input-gradient
# convolutions are conv2d calls on the transposed layers 3 and 2.
CONV_NAMES = {
    (1, 64, 9): "srcnn.conv1.fwd",
    (64, 32, 1): "srcnn.conv2.fwd",
    (32, 1, 5): "srcnn.conv3.fwd",
    (1, 32, 5): "srcnn.conv3.dx",
    (32, 64, 1): "srcnn.conv2.dx",
}


def _conv_span(args, kwargs):
    x, layer = args[0], args[1]
    n, c, h, w = x.shape
    key = (layer.in_channels, layer.out_channels, layer.k)
    macs = n * h * w * layer.in_channels * layer.out_channels * layer.k ** 2
    return CONV_NAMES.get(key, "srcnn.conv.other"), {"macs": macs, "shape": key}


def _fixed(name):
    return lambda args, kwargs: (name, {})


def _fibers(result, attrs):
    attrs["fibers"] = len(result.samples)


# (module, attribute, span namer, optional hook on the result)
TARGETS = [
    ("endosim.srcnn", "conv2d", _conv_span, None),
    ("endosim.srcnn", "lrelu", _fixed("srcnn.lrelu"), None),
    ("endosim.srcnn", "forward", _fixed("srcnn.forward"), None),
    ("endosim.srcnn", "loss_and_grads", _fixed("srcnn.loss_and_grads"), None),
    ("endosim.srcnn", "adam_step", _fixed("srcnn.adam_step"), None),
    ("endosim.srcnn", "train", _fixed("srcnn.train"), None),
    ("endosim.srcnn", "infer", _fixed("srcnn.infer"), None),
    ("endosim.srcnn", "save_weights", _fixed("srcnn.save_weights"), None),
    ("endosim.srcnn", "load_weights", _fixed("srcnn.load_weights"), None),
    ("endosim.degrade", "degrade", _fixed("degrade"), _fibers),
    ("endosim.phantom", "generate_phantom", _fixed("phantom.generate"), None),
    ("endosim.preprocess", "preprocess", _fixed("preprocess"), None),
    ("endosim.metrics", "psnr", _fixed("metrics.psnr"), None),
    ("endosim.metrics", "ssim", _fixed("metrics.ssim"), None),
    ("endosim.harness", "run_sweep", _fixed("harness.run_sweep"), None),
    ("endosim.harness", "train", _fixed("srcnn.train"), None),
    ("endosim.harness", "infer", _fixed("srcnn.infer"), None),
    ("endosim.harness", "save_weights", _fixed("srcnn.save_weights"), None),
    ("endosim.harness", "degrade", _fixed("degrade"), _fibers),
    ("endosim.harness", "generate_phantom", _fixed("phantom.generate"), None),
    ("endosim.harness", "psnr", _fixed("metrics.psnr"), None),
    ("endosim.harness", "ssim", _fixed("metrics.ssim"), None),
    ("endosim.harness", "save_pgm", _fixed("image.save_pgm"), None),
    ("endosim.cli", "dispatch", _fixed("cli.dispatch"), None),
    ("endosim.cli", "load_pgm", _fixed("image.load_pgm"), None),
    ("endosim.cli", "save_pgm", _fixed("image.save_pgm"), None),
]


class Tracer:
    """Records spans while an operation is open; installs and removes the
    wrappers. Worker-thread spans with no open span of their own take the
    innermost open span of the main thread as parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        self._op: str | None = None
        self._phase = ""
        self._alloc_lock = threading.Lock()
        self._alloc_depth = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for mod_name, attr, namer, hook in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            setattr(module, attr,
                    self._wrap(original, namer, hook, attr == "infer"))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def begin_op(self, op: str, phase: str) -> None:
        self._op, self._phase = op, phase
        self._root = self._open(f"op.{phase}", {})

    def end_op(self) -> None:
        self._close(self._root)
        self._op = None

    def _open(self, name, attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), parent, self._op, self._phase, name,
                    time.perf_counter(), 0.0, threading.get_ident(), attrs)
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, namer, hook, track_alloc):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            name, attrs = namer(args, kwargs)
            span = self._open(name, attrs)
            base = self._alloc_begin() if track_alloc else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if track_alloc:
                    attrs["peak_alloc_bytes"] = self._alloc_end(base)
                self._close(span)
            if hook is not None:
                hook(result, attrs)
            return result
        return wrapper

    # tracemalloc runs only while an infer call is open, so its cost on every
    # allocation stays out of the rest of the run. With concurrent infer calls
    # (sweep workers) the peak also counts the other thread's allocations.
    def _alloc_begin(self) -> int:
        with self._alloc_lock:
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1
            return tracemalloc.get_traced_memory()[0]

    def _alloc_end(self, base: int) -> int:
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1] - base
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()
            return peak

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "phase": s.phase,
                    "name": s.name, "start": s.t0, "end": s.t1,
                    "thread": s.thread, **s.attrs,
                }) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        clipped = [(max(a, s.t0), min(b, s.t1)) for a, b in children.get(s.id, ())]
        out[s.id] = s.dur - _union_length([c for c in clipped if c[1] > c[0]])
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


# per-layer metric -> span name whose mean duration it reports
MEAN_SPANS = {
    "srcnn.conv1.fwd_s": "srcnn.conv1.fwd",
    "srcnn.conv2.fwd_s": "srcnn.conv2.fwd",
    "srcnn.conv3.fwd_s": "srcnn.conv3.fwd",
    "srcnn.conv3.dx_s": "srcnn.conv3.dx",
    "srcnn.conv2.dx_s": "srcnn.conv2.dx",
    "srcnn.lrelu_s": "srcnn.lrelu",
    "srcnn.adam_step_s": "srcnn.adam_step",
    "srcnn.loss_and_grads_s": "srcnn.loss_and_grads",
    "srcnn.infer_s": "srcnn.infer",
    "degrade.s": "degrade",
    "phantom.generate_s": "phantom.generate",
    "preprocess.s": "preprocess",
    "metrics.psnr_s": "metrics.psnr",
    "metrics.ssim_s": "metrics.ssim",
    "image.load_pgm_s": "image.load_pgm",
    "image.save_pgm_s": "image.save_pgm",
}


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer figures as {name: (value, unit)}.

    Times are mean seconds per call. Each figure is taken over the calls made
    in the measured loop, or over the set-up's calls for a layer only the
    set-up calls (train_desk generates its data there; frame_hd trains its
    weights there). A layer no phase calls is left out.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def under(span: Span, name: str) -> bool:
        while span.parent is not None:
            span = by_id.get(span.parent)
            if span is None:
                return False
            if span.name == name:
                return True
        return False

    def pick(pred) -> list[Span]:
        run = [s for s in spans if s.phase == "run" and pred(s)]
        return run or [s for s in spans if s.phase == "setup" and pred(s)]

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, chosen: list[Span], value, unit: str) -> None:
        if chosen:
            out[name] = (float(value(chosen)), unit)

    for metric, span_name in MEAN_SPANS.items():
        put(metric, pick(lambda s, n=span_name: s.name == n),
            lambda c: _mean([s.dur for s in c]), "s")
    put("srcnn.loss_and_grads.self_s",
        pick(lambda s: s.name == "srcnn.loss_and_grads"),
        lambda c: _mean([selfs[s.id] for s in c]), "s")
    put("srcnn.val_forward_s",
        pick(lambda s: s.name == "srcnn.forward" and under(s, "srcnn.train")),
        lambda c: _mean([s.dur for s in c]), "s")
    put("srcnn.infer.peak_alloc_mb", pick(lambda s: s.name == "srcnn.infer"),
        lambda c: max(s.attrs["peak_alloc_bytes"] for s in c) / 2**20, "MB")
    put("srcnn.conv_gflop_per_s", pick(lambda s: "macs" in s.attrs),
        lambda c: 2 * sum(s.attrs["macs"] for s in c) / sum(s.dur for s in c) / 1e9,
        "GFLOP/s")
    put("degrade.fibers_per_s", pick(lambda s: s.name == "degrade"),
        lambda c: sum(s.attrs["fibers"] for s in c) / sum(s.dur for s in c), "1/s")
    put("cli.self_s", pick(lambda s: s.name == "cli.dispatch"),
        lambda c: _mean([selfs[s.id] for s in c]), "s")

    def overlap(sweeps: list[Span]) -> float:
        busy = {s.id: 0.0 for s in sweeps}
        for s in spans:
            if s.parent in busy:
                busy[s.parent] += s.dur
        return _mean([busy[s.id] / s.dur for s in sweeps])

    put("harness.overlap", pick(lambda s: s.name == "harness.run_sweep"),
        overlap, "ratio")
    return out
