"""Three-layer super-resolution network with a from-scratch training core.

Forward pass, analytic gradients, Adam updates and the epoch loop are all
implemented directly on numpy arrays. NCHW is the public contract; inside,
convolutions and the training step fold the batch into the GEMM columns and
work in (C, N*H*W). Convolutions use zero same-padding so the SR frame
aligns pixel-to-pixel with the HR frame.
Training arithmetic runs in single precision; the functions are dtype
preserving so correctness oracles can drive them in double precision.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import struct
import sys
import threading
import warnings
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import Image

__all__ = [
    "ConvLayer",
    "SrcnnModel",
    "TrainConfig",
    "AdamState",
    "TrainHistory",
    "TrainingDiverged",
    "conv2d",
    "lrelu",
    "forward",
    "mse_loss",
    "loss_and_grads",
    "adam_step",
    "train",
    "infer",
    "save_weights",
    "load_weights",
]

WEIGHTS_MAGIC = b"SRCW"
WEIGHTS_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma and Ba, 2015


@dataclass(frozen=True)
class ConvLayer:
    kernel: np.ndarray  # (out_channels, in_channels, k, k)
    bias: np.ndarray  # (out_channels,)

    def __post_init__(self) -> None:
        if self.kernel.ndim != 4 or self.kernel.shape[2] != self.kernel.shape[3]:
            raise ValueError(f"bad kernel shape {self.kernel.shape}")
        if min(self.kernel.shape[:2]) < 1:
            raise ValueError(f"kernel shape {self.kernel.shape} has no channels")
        if self.k % 2 == 0:
            raise ValueError("kernel size must be odd for symmetric same-padding")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ValueError("bias length must match output channel count")

    @property
    def k(self) -> int:
        return self.kernel.shape[2]

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]


@dataclass(frozen=True)
class SrcnnModel:
    layer1: ConvLayer  # feature extraction, 1 -> 64, 9x9
    layer2: ConvLayer  # nonlinear mapping, 64 -> 32, 1x1
    layer3: ConvLayer  # reconstruction, 32 -> 1, 5x5
    lrelu_slope: float = 0.01

    def __post_init__(self) -> None:
        # lrelu's max(x, slope * x) form holds only for slopes in [0, 1]
        if not 0.0 <= self.lrelu_slope <= 1.0:
            raise ValueError(f"lrelu slope {self.lrelu_slope} outside [0, 1]")

    @property
    def layers(self) -> tuple[ConvLayer, ConvLayer, ConvLayer]:
        return (self.layer1, self.layer2, self.layer3)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in (layer.kernel, layer.bias)]

    def with_parameters(self, params: list[np.ndarray]) -> "SrcnnModel":
        layers = (ConvLayer(*params[i : i + 2]) for i in range(0, 6, 2))
        return SrcnnModel(*layers, lrelu_slope=self.lrelu_slope)


def init_model(
    seed: int,
    channels: tuple[int, int] = (64, 32),
    init_sd: float = 1e-3,
    dtype: np.dtype = np.float32,
) -> SrcnnModel:
    """Zero-mean Gaussian kernels (sd 1e-3), zero biases, seeded."""
    rng = np.random.default_rng(seed)
    c1, c2 = channels

    def conv(out_c: int, in_c: int, k: int) -> ConvLayer:
        kernel = rng.normal(0.0, init_sd, (out_c, in_c, k, k)).astype(dtype)
        return ConvLayer(kernel=kernel, bias=np.zeros(out_c, dtype=dtype))

    return SrcnnModel(
        layer1=conv(c1, 1, 9),
        layer2=conv(c2, c1, 1),
        layer3=conv(1, c2, 5),
    )


def _fold(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> (C, N*H*W), the batch-folded layout of Chetlur et al.,
    2014 (cuDNN). A free view when N == 1, C == 1 or x came from conv2d."""
    n, c, h, w = x.shape
    return x.transpose(1, 0, 2, 3).reshape(c, n * h * w)


def _im2col(x: np.ndarray, k: int, out: np.ndarray | None = None,
            rows: tuple[int, int] | None = None) -> np.ndarray:
    """(N, C, H, W) -> (C*k*k, N*H*W) patch matrix under zero same-padding,
    written into out (C-contiguous) when given. Each image is padded on its
    own, so no tap reaches into a neighbouring image. rows=(top, bottom)
    keeps the patches of those rows, whose taps still read the rows around."""
    n, c, h, w = x.shape
    p = (k - 1) // 2
    top, bottom = (0, h) if rows is None else rows
    lo, hi = max(top - p, 0), min(bottom + p, h)
    xp = np.pad(x[:, :, lo:hi].transpose(1, 0, 2, 3),
                ((0, 0), (0, 0), (p - top + lo, p - hi + bottom), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (C, N, rows, W, k, k)
    cols = np.empty((c, k, k, n, bottom - top, w), xp.dtype) if out is None else out
    cols = cols.reshape(c, k, k, n, bottom - top, w)
    cols[...] = win.transpose(0, 4, 5, 1, 2, 3)
    return cols.reshape(c * k * k, n * (bottom - top) * w)


def conv2d(
    x: np.ndarray,
    layer: ConvLayer,
    *,
    cols: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation with zero same-padding; spatial dims preserved.

    The batch is folded into the GEMM's column dimension: x is read as
    (C, N*H*W) and the result is an NCHW view of (out, N, H, W) memory, so
    chained calls fold for free. The k*k expansion goes on the side with
    fewer channels: im2col of the input when in <= out, otherwise one GEMM
    contracts the channels into out*k*k tap maps that are shift-added into
    a zero-padded output.

    cols is _im2col(x, k) when the caller has built it and selects the
    im2col path; on that path only, out, laid out as the result, is written
    into. Either way the returned array is the result.
    """
    n, c, h, w = x.shape
    if c != layer.in_channels:
        raise ValueError(f"input has {c} channels, layer expects {layer.in_channels}")
    k, o = layer.k, layer.out_channels
    if out is not None:
        out = _fold(out)
    if cols is not None or k == 1 or c <= o:
        if cols is None:
            cols = _fold(x) if k == 1 else _im2col(x, k)
        y = np.matmul(layer.kernel.reshape(o, -1), cols, out=out)
        if layer.bias.any():  # skips the zero bias of loss_and_grads' dX layers
            y = np.add(y, layer.bias[:, None], out=out)
    else:
        wt = layer.kernel.transpose(0, 2, 3, 1).reshape(o * k * k, c)
        taps = np.matmul(wt, _fold(x)).reshape(o, k, k, n, h, w)
        # tap (u, v) at input pixel (i, j) feeds output pixel (i - u + p, j - v + p),
        # i.e. padded position (i + 2p - u, j + 2p - v)
        p = (k - 1) // 2
        yp = np.zeros((o, n, h + 2 * p, w + 2 * p), dtype=taps.dtype)
        for u in range(k):
            for v in range(k):
                i, j = 2 * p - u, 2 * p - v
                yp[:, :, i : i + h, j : j + w] += taps[:, u, v]
        y = yp[:, :, p : p + h, p : p + w] + layer.bias[:, None, None, None]
    return y.reshape(o, n, h, w).transpose(1, 0, 2, 3)


def lrelu(x: np.ndarray, slope: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, slope * x): two branch-free passes. For 0 <= slope <= 1 this
    equals np.where(x >= 0, x, slope * x) bit for bit, signed zeros and NaN
    included, except at +inf with slope 0, where inf * 0 makes it NaN.
    out, shaped as x, takes the slope * x temporary and then the result."""
    y = np.multiply(x, np.asarray(slope, dtype=x.dtype), out=out)
    return np.maximum(x, y, out=y)


def _lrelu_factor(z: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    """1 where z >= 0, else slope, written into out: lrelu(z) == z * factor
    exactly, and the factor is also the derivative (taken as 1 at z == 0).
    max(mask, slope) of a 0/1 mask is exact for 0 <= slope <= 1 and, unlike
    np.where, does not branch per element, so mixed signs do not slow it."""
    np.greater_equal(z, 0, out=out)
    return np.maximum(out, out.dtype.type(slope), out=out)


# pixels per forward tile, at most; 128 x 128 frames run as two tiles (README)
_TILE_PIXELS = 14336
# pixels per forward unit; frames up to this size run as a single band
_BAND_PIXELS = 3 * 2**16
# pixels per training unit; a batch of smaller images puts several in one
_SHARD_PIXELS = 2**14
# rows per frame-stage band, and the fewest in a last band (fewer join the one before):
# with README's CPU and OpenBLAS, 8, 16, 32, 64 or 128 rows gave the whole frame's bits
_FRAME_ROWS, _FRAME_MIN_ROWS = 64, 8


def _units(n: int, h: int, w: int, budget: int) -> list[tuple[slice, int, int]]:
    """Work units (images, top, bottom) of an (n, C, h, w) batch. Images of
    at most budget pixels go whole, budget // (h*w) to a unit; a larger
    image goes alone, in row bands of budget // w rows (a row at least). The
    units depend on the shape alone, so sums over them in unit order are the
    same bytes however many workers run them."""
    if h * w <= budget:
        per = budget // max(1, h * w)  # h * w is 0 in an empty image
        return [(slice(i, i + per), 0, h) for i in range(0, n, per)]
    rows = max(1, budget // w)
    return [(slice(i, i + 1), top, min(top + rows, h))
            for i in range(n) for top in range(0, h, rows)]


def _frame_bands(fn, shape: tuple[int, int], order: str = "C") -> np.ndarray:
    """The array of shape that fn(rows) gives row by row, fn reading the rows' halo itself:
    fn of all rows, returned as it is, up to _BAND_PIXELS pixels; above, bands _map'ped
    over a _job_pool, each copied into one array in the given order."""
    h, w = shape
    if h * w <= _BAND_PIXELS:
        return fn(slice(0, h))
    out = np.empty(shape, order=order)
    tops = range(0, max(h - _FRAME_MIN_ROWS + 1, 1), _FRAME_ROWS)
    with _job_pool(len(tops)) as pool:
        _map(lambda rows: np.copyto(out[rows], fn(rows)),
             [slice(top, bottom) for top, bottom in zip(tops, [*tops[1:], h])], pool)
    return out


def _map(fn, items: list, pool: Executor | None) -> list:
    """[fn(item) for item in items], here or on the pool, there each call in
    its own copy of the caller's context, so its numpy error state holds."""
    if pool is None:
        return list(map(fn, items))
    return list(pool.map(lambda ctx, item: ctx.run(fn, item),
                         [contextvars.copy_context() for _ in items], items))


def forward(model: SrcnnModel, lr_batch: np.ndarray, *,
            pool: Executor | None = None) -> np.ndarray:
    """conv1 -> lrelu -> conv2 -> lrelu -> conv3; output is not clamped.

    The batch runs as the _units of _BAND_PIXELS pixels in one fresh
    workspace, so activation memory grows with the unit, not the frame.
    Each unit runs as two stages of row tiles of at most _TILE_PIXELS
    pixels, _map'ped over the pool. Front: conv1 and a 1x1 layer after it,
    with their LReLUs, in the running thread's workspace buffers: A holds
    im2col rows, then a1; B holds z1, then z2; the last activation goes to
    the buffer M, over the unit's rows and the back stage's halo. Back: the
    other layers over the tile's rows of M and their receptive-field halo
    (overlap-tile), written into the result.
    """
    ws = _Workspace()
    slope, (n, _, h, w) = model.lrelu_slope, lr_batch.shape
    front = model.layers[: 1 + (model.layer2.k == 1)]
    back = model.layers[len(front):]
    halo = sum((layer.k - 1) // 2 for layer in back)
    out = np.empty((n, back[-1].out_channels, h, w), lr_batch.dtype)

    def tiles(a: int, b: int) -> list[tuple[int, int]]:  # the fewest, as even as can be
        count = min(b - a, -(-(b - a) * len(x) * w // _TILE_PIXELS))
        return [(a + i * (b - a) // count, a + (i + 1) * (b - a) // count) for i in range(count)]

    def front_tile(r: tuple[int, int]) -> None:
        t = x[:, :, r[0] : r[1]]
        z = conv2d(t, front[0], cols=ws.im2col("A", x, front[0].k, r),
                   out=ws.act("B", front[0].out_channels, t))
        for layer in front[1:]:
            a = lrelu(z, slope, out=ws.act("A", z.shape[1], t))
            z = conv2d(a, layer, out=ws.act("B", layer.out_channels, t))
        lrelu(z, slope, out=mid[:, :, r[0] - lo : r[1] - lo])

    def back_tile(r: tuple[int, int]) -> None:
        a, b = max(r[0] - halo, 0), min(r[1] + halo, h)
        y = mid[:, :, a - lo : b - lo]
        for layer in back[:-1]:
            y = lrelu(conv2d(y, layer), slope)
        y_out[:, :, r[0] : r[1]] = conv2d(y, back[-1])[:, :, r[0] - a : r[1] - a]

    for images, top, bottom in _units(n, h, w, _BAND_PIXELS):
        x, y_out = lr_batch[images], out[images]
        lo, hi = max(top - halo, 0), min(bottom + halo, h)
        mid = ws.act("M", front[-1].out_channels, x[:, :, lo:hi])
        _map(front_tile, tiles(lo, hi), pool)
        _map(back_tile, tiles(top, bottom), pool)
    return out


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ValueError("mse_loss requires matching shapes")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    return float(np.mean(diff * diff))


def _transpose_layer(layer: ConvLayer) -> ConvLayer:
    """Layer computing the adjoint of the same-padded correlation."""
    flipped = layer.kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return ConvLayer(
        kernel=np.ascontiguousarray(flipped),
        bias=np.zeros(flipped.shape[0], dtype=layer.kernel.dtype),
    )


def _conv_param_grads(
    x: np.ndarray,
    grad_out: np.ndarray,
    layer: ConvLayer,
    *,
    x_cols: np.ndarray | None = None,
    g_cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and bias gradients of conv2d(x, layer) given dL/dy.

    Same rule and layout as conv2d: the k*k expansion goes on the side with
    fewer channels, and the batch is folded into the GEMM's inner dimension,
    so dW is one 2-D GEMM. x_cols and g_cols are _im2col(x, k) and
    _im2col(grad_out, k) when the caller has built them; the side that is
    not expanded ignores its matrix.
    """
    c, k, out = layer.in_channels, layer.k, layer.out_channels
    g = _fold(grad_out)
    db = g.sum(axis=1)
    if k == 1 or c <= out:
        if x_cols is None:
            x_cols = _fold(x) if k == 1 else _im2col(x, k)
        return np.matmul(g, x_cols.T).reshape(layer.kernel.shape), db
    # dW[o, c, u, v] pairs x[i, j] with g[i - u + p, j - v + p], which is
    # tap (k-1-u, k-1-v) of the im2col of g
    if g_cols is None:
        g_cols = _im2col(grad_out, k)
    dw = np.matmul(g_cols, _fold(x).T)
    dw = dw.reshape(out, k, k, c)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return np.ascontiguousarray(dw), db


class _Workspace(threading.local):
    """Named scratch arrays, sized by one of the _units, that one train call
    reuses across its steps' units, and one forward call across its units.

    get returns the leading elements of the named array, which grows when a
    larger shape is asked for, so a short last batch or unit reuses the
    buffers. Each thread gets its own arrays, so pool threads can share it.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        size = int(np.prod(shape))
        a = self._arrays.pop(name, None)
        if a is None or a.size < size or a.dtype != dtype:
            del a  # free the old array before its successor is allocated
            a = np.empty(size, dtype)
        self._arrays[name] = a
        return a[:size].reshape(shape)

    def act(self, name: str, channels: int, like: np.ndarray) -> np.ndarray:
        """NCHW view of (channels, N, H, W) memory for a batch shaped and
        typed as like, laid out as conv2d returns its result."""
        n, _, h, w = like.shape
        return self.get(name, (channels, n, h, w), like.dtype).transpose(1, 0, 2, 3)

    def im2col(self, name: str, x: np.ndarray, k: int,
               rows: tuple[int, int] | None = None) -> np.ndarray:
        """_im2col(x, k, rows=rows) written into the named array."""
        (n, c, h, w), (top, bottom) = x.shape, rows or (0, x.shape[2])
        return _im2col(x, k, self.get(name, (c * k * k, n * (bottom - top) * w), x.dtype), rows)


def loss_and_grads(
    model: SrcnnModel,
    lr_batch: np.ndarray,
    target: np.ndarray,
    *,
    workspace: _Workspace | None = None,
    pool: Executor | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Single fused forward/backward pass; returns (mse, gradients) with the
    gradients of mse_loss(forward(model, lr_batch), target) in the order of
    model.parameters().

    The batch is cut into _units of _SHARD_PIXELS pixels, each run with its
    receptive-field halo by _shard_grads in the workspace (a fresh one by
    default), and their squared errors and gradients are summed in unit
    order. The units are _map'ped over the pool, which hands them out one
    at a time; without a pool they run here.
    """
    n, _, h, w = lr_batch.shape
    if target.shape != (n, model.layer3.out_channels, h, w):
        raise ValueError("loss_and_grads requires matching shapes")
    ws = _Workspace() if workspace is None else workspace
    scale = 2.0 / target.size
    halo = sum((layer.k - 1) // 2 for layer in model.layers)

    def unit_grads(unit: tuple[slice, int, int]) -> tuple[float, list[np.ndarray]]:
        images, top, bottom = unit
        lo, hi = max(top - halo, 0), min(bottom + halo, h)
        return _shard_grads(model, lr_batch[images, :, lo:hi], target[images, :, lo:hi],
                            slice(top - lo, bottom - lo), scale, ws)

    results = _map(unit_grads, _units(n, h, w, _SHARD_PIXELS), pool)
    sse = sum(unit_sse for unit_sse, _ in results)
    grads = [functools.reduce(np.add, g) for g in zip(*(g for _, g in results))]
    return sse / target.size, grads


def _shard_grads(model: SrcnnModel, x: np.ndarray, target: np.ndarray, rows: slice,
                 scale: float, ws: _Workspace) -> tuple[float, list[np.ndarray]]:
    """One unit's part of loss_and_grads, over its rows and their halo: the
    float64 sum of squared errors on the unit's rows, and the gradients with
    dL/dpred = scale * (pred - target) there and 0 on the halo, where scale
    is the whole batch's 2 / size. A receptive-field halo makes both exact.

    Activations are held batch-folded as (C, N*H*W) in the workspace's
    buffers. A buffer whose contents are dead is reused: dL/dz2 overwrites
    a2 and dL/dz1 overwrites a1.
    """
    l1, l2, l3 = model.layers
    cols1 = ws.im2col("cols1", x, l1.k)
    # z1 and z2 turn into a1 and a2 in place
    a1 = conv2d(x, l1, cols=cols1, out=ws.act("a1", l1.out_channels, x))
    f1 = _lrelu_factor(a1, model.lrelu_slope, ws.act("f1", l1.out_channels, x))
    a1 *= f1
    a2 = conv2d(a1, l2, out=ws.act("a2", l2.out_channels, x))
    f2 = _lrelu_factor(a2, model.lrelu_slope, ws.act("f2", l2.out_channels, x))
    a2 *= f2
    pred = conv2d(a2, l3)
    sse = float(np.sum(np.square(pred[:, :, rows].astype(np.float64) - target[:, :, rows])))

    g3 = scale * (pred - target)
    g3 = g3.astype(x.dtype, copy=False)
    g3[:, :, : rows.start] = g3[:, :, rows.stop :] = 0  # the halo carries no loss
    cols3 = ws.im2col("cols3", g3, l3.k)
    dw3, db3 = _conv_param_grads(a2, g3, l3, g_cols=cols3)

    g_z2 = conv2d(g3, _transpose_layer(l3), cols=cols3, out=a2)  # a2 is dead
    g_z2 *= f2
    dw2, db2 = _conv_param_grads(a1, g_z2, l2)

    g_z1 = conv2d(g_z2, _transpose_layer(l2), out=a1)  # a1 is dead
    g_z1 *= f1
    dw1, db1 = _conv_param_grads(x, g_z1, l1, x_cols=cols1)

    return sse, [dw1, db1, dw2, db2, dw3, db3]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 300
    batch_size: int = 8
    patch_size: int = 512
    patches_per_image: int = 10
    seed: int = 0
    validation_interval: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= sys.float_info.max:  # NaN fails too
            raise ValueError("learning_rate must be positive and finite")
        for name in ("epochs", "batch_size", "patch_size", "patches_per_image",
                     "validation_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class AdamState:
    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new parameters and state."""
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, cfg.learning_rate
    t = state.step_count + 1
    new_params: list[np.ndarray] = []
    new_m: list[np.ndarray] = []
    new_v: list[np.ndarray] = []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params.append((p - lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype))
        new_m.append(m.astype(p.dtype))
        new_v.append(v.astype(p.dtype))
    return new_params, AdamState(step_count=t, first_moment=new_m, second_moment=new_v)


@dataclass
class TrainHistory:
    # one row per epoch: (epoch index, mean train batch MSE, validation MSE)
    # epoch 0 is the initialized model (train loss is nan there)
    rows: list[tuple[int, float, float]] = field(default_factory=list)


class TrainingDiverged(ValueError):
    """A training or validation loss became NaN or infinite."""


def _validation_mse(model: SrcnnModel, val_pairs: list[tuple[Image, Image]], epoch: int,
                    pool: Executor | None = None) -> float:
    """Mean MSE of forward's unclamped output (tiles on the pool) against the
    HR frames; TrainingDiverged if it is not finite."""
    dtype = model.layer1.kernel.dtype
    total = 0.0
    for lr_img, hr_img in val_pairs:
        pred = forward(model, lr_img.data.astype(dtype)[None, None], pool=pool)[0, 0]
        total += mse_loss(pred, hr_img.data.astype(dtype))
    mse = total / len(val_pairs)
    if not np.isfinite(mse):
        raise TrainingDiverged(
            f"training diverged: validation MSE {mse} at epoch {epoch}")
    return mse


@functools.cache
def _openblas_thread_fns() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this
    process, found by symbol as threadpoolctl does. numpy and scipy load one
    each and name the pair differently; np.matmul calls numpy's."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return ()
    fns = []
    for lib in libs:
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                fns.append((get, set_))
    return tuple(fns)


@contextlib.contextmanager
def _pool(workers: int):
    """A ThreadPoolExecutor of workers threads, which start at the first
    submits. With two or more workers, every OpenBLAS that
    _openblas_thread_fns finds is held at one thread until the pool is shut
    down, so that our threads do not compete with BLAS threads for the
    cores; the previous counts come back on exit, also on error. The cap is
    process-wide: two pools of two or more overlapping in one process would
    restore each other's counts. With no OpenBLAS to cap, a RuntimeWarning
    names numpy's BLAS and nothing is capped."""
    blas = _openblas_thread_fns() if workers >= 2 else ()
    if workers >= 2 and not blas:
        name = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name")
        warnings.warn(f"cannot cap the threads of numpy's BLAS ({name}); "
                      "concurrent threads share them", RuntimeWarning, stacklevel=4)
    old = [get() for get, _ in blas]
    try:
        for _, set_ in blas:
            set_(1)
        with ThreadPoolExecutor(workers) as pool:
            yield pool
    finally:
        for (_, set_), count in zip(blas, old):
            set_(count)


def _job_pool(jobs: int):
    """A _pool of min(cores, jobs) threads on the main thread with OpenBLAS to
    cap, else None; sweep cells run on pool threads, so they start none."""
    main = threading.current_thread() is threading.main_thread()
    workers = min(len(os.sched_getaffinity(0)), jobs) if main and _openblas_thread_fns() else 1
    return _pool(workers) if workers >= 2 else contextlib.nullcontext()


# a diverging run's non-finite Adam update meets a loss check that raises
@np.errstate(over="ignore", invalid="ignore")
def train(
    pairs: list[tuple[Image, Image]],
    val_pairs: list[tuple[Image, Image]],
    cfg: TrainConfig,
) -> tuple[SrcnnModel, TrainHistory]:
    """MSE training with Adam and best-validation checkpointing.

    Per epoch: patches_per_image random crop windows per training pair (one
    window shared by the LR and HR members), shuffled; each batch of
    batch_size crops its own windows and takes one Adam step; then a
    full-frame validation pass. The returned model is the one with the
    smallest validation MSE seen, the initialized model included. A batch
    loss or validation MSE that is NaN or infinite raises TrainingDiverged.

    Each step's _units and each validation pass's tiles go to one _job_pool
    sized by the units of a full batch. Same bytes on any thread.
    """
    if not pairs or not val_pairs:
        raise ValueError("training and validation sets must be non-empty")
    for lr_img, hr_img in pairs:
        if lr_img.data.shape != hr_img.data.shape:
            raise ValueError("lr/hr pair dimensions differ")
        if min(lr_img.data.shape) < cfg.patch_size:
            raise ValueError("patch_size larger than a training image")

    rng = np.random.default_rng(cfg.seed)
    model = best = init_model(cfg.seed)
    state = AdamState.zeros_like(model.parameters())
    p = cfg.patch_size
    ws = _Workspace()
    with _job_pool(len(_units(cfg.batch_size, p, p, _SHARD_PIXELS))) as pool:
        best_val = _validation_mse(model, val_pairs, 0, pool)
        history = TrainHistory([(0, float("nan"), best_val)])
        for epoch in range(1, cfg.epochs + 1):
            # (lr, hr, x0, y0) per crop, pair by pair; x0 is drawn before y0
            windows = [(lr, hr, int(rng.integers(0, lr.width - p + 1)),
                        int(rng.integers(0, lr.height - p + 1)))
                       for lr, hr in pairs for _ in range(cfg.patches_per_image)]
            order = rng.permutation(len(windows))
            losses: list[float] = []
            for start in range(0, len(order), cfg.batch_size):
                batch = [windows[i] for i in order[start : start + cfg.batch_size]]
                x, t = (np.stack([pair[side].data[y0 : y0 + p, x0 : x0 + p]
                                  for *pair, x0, y0 in batch]).astype(np.float32)[:, None]
                        for side in (0, 1))
                loss, grads = loss_and_grads(model, x, t, workspace=ws, pool=pool)
                losses.append(loss)
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"training diverged: batch loss {loss} "
                                           f"at epoch {epoch}, step {len(losses)}")
                params, state = adam_step(model.parameters(), grads, state, cfg)
                model = model.with_parameters(params)

            val = float("nan")
            if epoch % cfg.validation_interval == 0 or epoch == cfg.epochs:
                val = _validation_mse(model, val_pairs, epoch, pool)
                if val < best_val:
                    best, best_val = model, val
            history.rows.append((epoch, sum(losses) / len(losses), val))

    return best, history


def infer(model: SrcnnModel, lr: Image) -> Image:
    """forward's output, clamped in place to [0, 1] for export; tiles on a _job_pool."""
    x = lr.data.astype(model.layer1.kernel.dtype)
    with _job_pool(-(-x.size // _TILE_PIXELS)) as pool:
        out = forward(model, x[None, None], pool=pool)[0, 0]
    return Image(np.clip(out, 0.0, 1.0, out=out))


def save_weights(model: SrcnnModel) -> bytes:
    """Serialize as: magic "SRCW", version u32, slope f32, then per layer
    out/in/k u32 each followed by kernel and bias as little-endian f32."""
    out = bytearray(WEIGHTS_MAGIC + struct.pack("<If", WEIGHTS_VERSION, model.lrelu_slope))
    for layer in model.layers:
        out += struct.pack("<III", layer.out_channels, layer.in_channels, layer.k)
        out += layer.kernel.astype("<f4").tobytes()
        out += layer.bias.astype("<f4").tobytes()
    return bytes(out)


def load_weights(blob: bytes) -> SrcnnModel:
    if blob[:4] != WEIGHTS_MAGIC:
        raise ValueError("not a SRCW weights file")
    pos = 4

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal pos
        start, pos = pos, pos + np.dtype(dtype).itemsize * count
        if pos > len(blob):
            raise ValueError("truncated weights file")
        return np.frombuffer(blob, dtype, count, start)

    (version,), (slope,) = take("<u4", 1), take("<f4", 1)
    if version != WEIGHTS_VERSION:
        raise ValueError(f"unsupported weights version {version}")
    layers: list[ConvLayer] = []
    for _ in range(3):
        out_c, in_c, k = (int(d) for d in take("<u4", 3))
        kernel = take("<f4", out_c * in_c * k * k).reshape(out_c, in_c, k, k)
        layers.append(ConvLayer(kernel=kernel.astype(np.float32),
                                bias=take("<f4", out_c).astype(np.float32)))
    if pos != len(blob):
        raise ValueError("trailing bytes after weights payload")
    l1, l2, l3 = layers
    if (l1.in_channels, l2.in_channels, l3.in_channels, l3.out_channels) != (
        1, l1.out_channels, l2.out_channels, 1
    ):
        in_out = [(layer.in_channels, layer.out_channels) for layer in layers]
        raise ValueError(f"layer channels {in_out} do not chain 1 -> c1 -> c2 -> 1")
    for layer in layers:
        if not (np.isfinite(layer.kernel).all() and np.isfinite(layer.bias).all()):
            raise ValueError("non-finite value in weights payload")
    return SrcnnModel(*layers, lrelu_slope=float(slope))
