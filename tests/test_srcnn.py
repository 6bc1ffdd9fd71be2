import ast
import importlib
import os
import struct
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from endosim.image import Image
from endosim import srcnn
from endosim.srcnn import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    AdamState,
    ConvLayer,
    SrcnnModel,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    conv2d,
    forward,
    infer,
    init_model,
    load_weights,
    loss_and_grads,
    lrelu,
    mse_loss,
    save_weights,
    train,
)


def random_layer(rng, out_c, in_c, k, scale=0.5):
    return ConvLayer(
        kernel=rng.normal(0, scale, (out_c, in_c, k, k)),
        bias=rng.normal(0, scale, out_c),
    )


def micro_model(rng, scale=0.5, channels=(3, 2)):
    """Full three-layer topology at reduced width, well-scaled weights."""
    c1, c2 = channels
    return SrcnnModel(
        layer1=random_layer(rng, c1, 1, 9, scale),
        layer2=random_layer(rng, c2, c1, 1, scale),
        layer3=random_layer(rng, 1, c2, 5, scale),
        lrelu_slope=0.01,
    )


def brute_force_conv(x, layer):
    n, c, h, w = x.shape
    o = layer.out_channels
    k = layer.k
    p = (k - 1) // 2
    y = np.zeros((n, o, h, w))
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(w):
                    acc = float(layer.bias[oi])
                    for ci in range(c):
                        for u in range(k):
                            for v in range(k):
                                ii, jj = i + u - p, j + v - p
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += layer.kernel[oi, ci, u, v] * x[ni, ci, ii, jj]
                    y[ni, oi, i, j] = acc
    return y


def fresh_forward(m, x):
    """forward composed from fresh arrays: the reference for its workspace."""
    a = lrelu(conv2d(x, m.layer1), m.lrelu_slope)
    a = lrelu(conv2d(a, m.layer2), m.lrelu_slope)
    return conv2d(a, m.layer3)


def tracing_assignment(name):
    """The value node of perfbench/tracing.py's top-level assignment to
    name, read without importing the tracer."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    return next(
        node.value for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == name
    )


def traced_conv_names():
    """perfbench's CONV_NAMES."""
    return ast.literal_eval(tracing_assignment("CONV_NAMES"))


def test_traced_bindings_resolve():
    # a traced run getattrs each (module, attribute) in perfbench's TARGETS;
    # a binding deleted or renamed in endosim would fail that run only
    bindings = [(entry.elts[0].value, entry.elts[1].value)
                for entry in tracing_assignment("TARGETS").elts]
    assert bindings
    unresolved = [f"{module}.{attr}" for module, attr in bindings
                  if not callable(getattr(importlib.import_module(module), attr, None))]
    assert unresolved == []


class TestConv2d:
    def test_one_by_one_identity(self):
        layer = ConvLayer(kernel=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        np.testing.assert_array_equal(conv2d(x, layer), x)

    def test_all_ones_counts_taps(self):
        layer = ConvLayer(kernel=np.ones((1, 1, 3, 3)), bias=np.zeros(1))
        y = conv2d(np.ones((1, 1, 5, 5)), layer)[0, 0]
        assert y[2, 2] == 9.0
        assert y[0, 0] == 4.0  # corner sees only 4 covered taps

    # N = 3 as well: the batch is folded into the GEMM columns, and padding
    # or a tap shift-add that leaked between images would show
    def test_matches_brute_force(self):
        for n in (1, 3):
            rng = np.random.default_rng(1)
            x = rng.normal(size=(n, 2, 5, 5))
            layer = random_layer(rng, 3, 2, 3)
            assert np.abs(conv2d(x, layer) - brute_force_conv(x, layer)).max() <= 1e-12

    def test_many_channel_path_matches_brute_force(self):
        for n in (2, 3):
            rng = np.random.default_rng(2)
            x = rng.normal(size=(n, 4, 6, 7))
            layer = random_layer(rng, 2, 4, 5)
            assert np.abs(conv2d(x, layer) - brute_force_conv(x, layer)).max() <= 1e-12

    def test_channel_mismatch(self):
        layer = ConvLayer(kernel=np.ones((1, 2, 3, 3)), bias=np.zeros(1))
        with pytest.raises(ValueError):
            conv2d(np.zeros((1, 1, 4, 4)), layer)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer(kernel=np.ones((1, 1, 2, 2)), bias=np.zeros(1))

    @pytest.mark.parametrize("kernel_shape, bias_len, message", [
        ((1, 1, 3, 5), 1, r"bad kernel shape \(1, 1, 3, 5\)"),
        ((2, 1, 3, 3), 1, "bias length must match output channel count"),
    ])
    def test_malformed_layer_rejected(self, kernel_shape, bias_len, message):
        with pytest.raises(ValueError, match=message):
            ConvLayer(kernel=np.ones(kernel_shape), bias=np.zeros(bias_len))


def brute_force_param_grads(x, grad_out, k):
    n, c, h, w = x.shape
    o = grad_out.shape[1]
    p = (k - 1) // 2
    dw = np.zeros((o, c, k, k))
    for oi in range(o):
        for ci in range(c):
            for u in range(k):
                for v in range(k):
                    acc = 0.0
                    for ni in range(n):
                        for i in range(h):
                            for j in range(w):
                                ii, jj = i + u - p, j + v - p
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += grad_out[ni, oi, i, j] * x[ni, ci, ii, jj]
                    dw[oi, ci, u, v] = acc
    return dw, grad_out.sum(axis=(0, 2, 3))


class TestConvParamGrads:
    # (out, in, k): im2col of x for in < out, im2col of grad_out for in > out,
    # plain GEMM for k == 1
    @pytest.mark.parametrize("out_c,in_c,k", [(3, 2, 3), (2, 4, 5), (1, 3, 5), (2, 3, 1)])
    def test_matches_brute_force(self, out_c, in_c, k):
        for n in (2, 3):
            rng = np.random.default_rng(12)
            x = rng.normal(size=(n, in_c, 6, 7))
            g = rng.normal(size=(n, out_c, 6, 7))
            layer = random_layer(rng, out_c, in_c, k)
            dw, db = srcnn._conv_param_grads(x, g, layer)
            ref_dw, ref_db = brute_force_param_grads(x, g, k)
            assert dw.shape == layer.kernel.shape
            assert np.abs(dw - ref_dw).max() <= 1e-12
            assert np.abs(db - ref_db).max() <= 1e-12


class TestLrelu:
    def test_values(self):
        x = np.array([0.0, -1.0, 2.0])
        np.testing.assert_array_equal(lrelu(x, 0.01), [0.0, -0.01, 2.0])

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4))
        expected = np.where(x >= 0, x, 0.2 * x)
        np.testing.assert_array_equal(lrelu(x, 0.2), expected)

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                             (np.float64, np.uint64)])
    def test_bitwise_equal_to_select(self, slope, dtype, bits):
        fi = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                   fi.smallest_subnormal, -fi.smallest_subnormal,
                   -3 * fi.smallest_subnormal, fi.tiny, -fi.tiny, fi.max, -fi.max]
        if slope == 0.0:
            special.remove(np.inf)  # inf * 0 is NaN: the documented exception
        rng = np.random.default_rng(4)
        x = np.concatenate([np.array(special, dtype=dtype),
                            rng.normal(size=200).astype(dtype)])
        with np.errstate(invalid="ignore"):
            expected = np.where(x >= 0, x, x * np.asarray(slope, dtype=dtype))
            got = lrelu(x, slope)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(bits), expected.view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_matches_fresh_result(self, dtype):
        x = np.random.default_rng(5).normal(size=(2, 3, 4, 5)).astype(dtype)
        buf = np.full_like(x, np.nan)
        got = lrelu(x, 0.01, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, lrelu(x, 0.01), strict=True)

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
    def test_slope_outside_unit_interval_rejected(self, slope):
        m = init_model(0, channels=(2, 2))
        with pytest.raises(ValueError):
            SrcnnModel(*m.layers, lrelu_slope=slope)


class TestForward:
    def test_zero_model_gives_zero(self):
        m = init_model(0, channels=(4, 3))
        zeroed = m.with_parameters([np.zeros_like(p) for p in m.parameters()])
        y = forward(zeroed, np.random.default_rng(4).normal(size=(1, 1, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(y, 0.0)

    def test_shape_preserved(self):
        m = init_model(1, channels=(4, 3))
        y = forward(m, np.zeros((2, 1, 12, 17), dtype=np.float32))
        assert y.shape == (2, 1, 12, 17)

    @pytest.mark.parametrize("shape", [(0, 1, 4, 4), (1, 1, 4, 0), (1, 1, 0, 4)])
    def test_empty_batch_gives_empty_output(self, shape):
        m = init_model(1, channels=(4, 3))
        y = forward(m, np.zeros(shape, dtype=np.float32))
        assert y.shape == shape and y.dtype == np.float32

    def test_hand_composition(self):
        rng = np.random.default_rng(5)
        m = micro_model(rng)
        x = rng.normal(0.5, 0.2, (1, 1, 3, 3))
        a1 = lrelu(brute_force_conv(x, m.layer1), m.lrelu_slope)
        a2 = lrelu(brute_force_conv(a1, m.layer2), m.lrelu_slope)
        expected = brute_force_conv(a2, m.layer3)
        assert np.abs(forward(m, x) - expected).max() <= 1e-10


class TestMseLoss:
    def test_zero_on_equal(self):
        x = np.random.default_rng(6).normal(size=(2, 1, 4, 4))
        assert mse_loss(x, x) == 0.0

    def test_constant_residual(self):
        x = np.zeros((1, 1, 5, 5))
        assert abs(mse_loss(x + 0.1, x) - 0.01) <= 1e-15

    def test_summation_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 1, 6, 6))
        b = rng.normal(size=(2, 1, 6, 6))
        expected = float(np.sum((a - b) ** 2)) / a.size
        assert abs(mse_loss(a, b) - expected) / expected <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mse_loss requires matching shapes"):
            mse_loss(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 5)))


class TestBackward:
    def test_shape_mismatch(self):
        m = micro_model(np.random.default_rng(8))
        with pytest.raises(ValueError, match="loss_and_grads requires matching shapes"):
            loss_and_grads(m, np.zeros((2, 1, 4, 4)), np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_workspace_matches_fresh_arrays(self, dtype):
        # large -> small -> large, so a stale or mis-sized buffer shows; train
        # reuses one workspace across steps of different batch sizes
        rng = np.random.default_rng(6)
        m = micro_model(rng, scale=0.1)
        m = m.with_parameters([p.astype(dtype) for p in m.parameters()])
        ws = srcnn._Workspace()
        for shape in [(2, 1, 13, 11), (1, 1, 5, 7), (2, 1, 11, 13)]:
            x, t = (rng.uniform(0, 1, shape).astype(dtype) for _ in range(2))
            loss, grads = loss_and_grads(m, x, t, workspace=ws)
            fresh_loss, fresh_grads = loss_and_grads(m, x, t, workspace=srcnn._Workspace())
            np.testing.assert_array_equal(loss, fresh_loss, strict=True)
            for got, expected in zip(grads, fresh_grads, strict=True):
                np.testing.assert_array_equal(got, expected, strict=True)

    def test_zero_residual_zero_grads(self):
        rng = np.random.default_rng(8)
        m = micro_model(rng)
        x = rng.normal(0.5, 0.2, (1, 1, 8, 8))
        target = forward(m, x)
        for g in loss_and_grads(m, x, target)[1]:
            np.testing.assert_array_equal(g, 0.0)

    def test_finite_difference_oracle(self):
        # with channels (3, 1) conv3 has in == out, so its dW expands x, not dL/dy
        for channels in ((3, 2), (3, 1)):
            rng = np.random.default_rng(9)
            m = micro_model(rng, channels=channels)
            x = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
            target = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
            grads = loss_and_grads(m, x, target)[1]
            params = m.parameters()
            h = 1e-4
            for pi, (p, g) in enumerate(zip(params, grads)):
                flat = p.ravel()
                gf = g.ravel()
                for j in range(flat.size):
                    orig = flat[j]

                    def loss_at(v):
                        q = [arr.copy() for arr in params]
                        q[pi].ravel()[j] = v
                        return mse_loss(forward(m.with_parameters(q), x), target)

                    num = (loss_at(orig + h) - loss_at(orig - h)) / (2 * h)
                    rel = abs(num - gf[j]) / max(abs(num), abs(gf[j]), 1e-8)
                    assert rel <= 1e-5

    def test_batch_equals_mean_of_per_image_calls(self):
        # the finite-difference oracle runs at N = 1; with N > 1 and H != W a
        # folded im2col or tap shift-add that leaked between images, or mixed
        # up rows and columns, would break this decomposition of the mean loss
        rng = np.random.default_rng(25)
        m = micro_model(rng)
        x = rng.uniform(0.2, 0.8, (3, 1, 9, 11))
        target = rng.uniform(0.2, 0.8, (3, 1, 9, 11))
        loss, grads = loss_and_grads(m, x, target)
        per_image = [loss_and_grads(m, x[i : i + 1], target[i : i + 1]) for i in range(3)]
        assert abs(loss - sum(l for l, _ in per_image) / 3) <= 1e-12
        for pi, g in enumerate(grads):
            mean = sum(gs[pi] for _, gs in per_image) / 3
            assert np.abs(g - mean).max() <= 1e-12

    def test_final_bias_gradient_constant_residual(self):
        rng = np.random.default_rng(10)
        m = micro_model(rng)
        x = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
        r = 0.125
        target = forward(m, x) - r
        grads = loss_and_grads(m, x, target)[1]
        # d/db3 mean((pred - target)^2) with constant residual r is 2r
        assert abs(grads[-1][0] - 2 * r) <= 1e-10


class TestShards:
    def test_shard_rule(self):
        # criterion 5's and train_desk's batch and the call-shape test's batch
        # are whole-image units; the paper's default 8x512x512 batch is 16
        # bands of 32 rows an image; forward's 1280x960 frame is seven bands
        # of 153 rows (the last 42); an empty batch has no units
        budget = srcnn._SHARD_PIXELS
        assert srcnn._units(8, 64, 64, budget) == [(slice(0, 4), 0, 64), (slice(4, 8), 0, 64)]
        assert srcnn._units(2, 8, 8, budget) == [(slice(0, 256), 0, 8)]
        units = srcnn._units(8, 512, 512, budget)
        assert len(units) == 128 and {b - t for _, t, b in units} == {32}
        assert units[15:17] == [(slice(0, 1), 480, 512), (slice(1, 2), 0, 32)]
        frame = srcnn._units(1, 960, 1280, srcnn._BAND_PIXELS)
        assert [b - t for _, t, b in frame] == [153] * 6 + [42]
        assert srcnn._units(0, 8, 8, budget) == []

    def test_frame_band_rule(self):
        # the band height the frame stages' oracles (test_metrics, test_preprocess)
        # were checked at; a frame of at most _BAND_PIXELS runs whole, and a last
        # band under 8 rows (1 to 3 changed the blur's bits) joins the one before
        assert (srcnn._FRAME_ROWS, srcnn._FRAME_MIN_ROWS) == (64, 8)

        def spans(h, w):
            seen = []

            def fn(rows):
                seen.append(rows)
                return np.full((rows.stop - rows.start, w), rows.start, dtype=float)

            out = srcnn._frame_bands(fn, (h, w))
            assert out.shape == (h, w) and all((out[r] == r.start).all() for r in seen)
            return sorted((r.start, r.stop) for r in seen)

        assert spans(128, 128) == [(0, 128)]
        assert spans(960, 1280) == [(t, t + 64) for t in range(0, 960, 64)]
        assert spans(700, 1000) == [(t, t + 64) for t in range(0, 640, 64)] + [(640, 700)]
        assert spans(193, 1280) == [(0, 64), (64, 128), (128, 193)]
        assert spans(200, 1280) == [(0, 64), (64, 128), (128, 192), (192, 200)]
        assert spans(3, 10**5) == [(0, 3)]

    @pytest.mark.parametrize("n, height, width, band_rows", [
        (1, 40, 12, 8),  # five bands
        (1, 37, 12, 8),  # last band (5 rows) shorter than the halo (6 rows)
        (2, 5, 12, 2),  # images shorter than the halo
        (1, 9, 12, 1),  # one-row bands
        (3, 20, 12, 7),  # a batch of several images, three bands each
    ])
    def test_banded_step_equals_whole_image_step(self, monkeypatch, n, height, width,
                                                 band_rows):
        # float64 units of band_rows rows with a 6-row halo, against one
        # _shard_grads call over the whole batch; a pool changes no byte
        rng = np.random.default_rng(32)
        m = micro_model(rng)
        x = rng.uniform(0.2, 0.8, (n, 1, height, width))
        target = rng.uniform(0.2, 0.8, (n, 1, height, width))
        sse, ref = srcnn._shard_grads(m, x, target, slice(0, height), 2 / target.size,
                                      srcnn._Workspace())
        monkeypatch.setattr(srcnn, "_SHARD_PIXELS", band_rows * width)
        units = srcnn._units(n, height, width, srcnn._SHARD_PIXELS)
        assert len(units) == n * -(-height // band_rows)
        serial = loss_and_grads(m, x, target)
        with ThreadPoolExecutor(2) as pool:
            pooled = loss_and_grads(m, x, target, pool=pool)
        assert abs(serial[0] - sse / target.size) <= 1e-12 * serial[0]
        for g, r in zip(serial[1], ref, strict=True):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()
        assert pooled[0] == serial[0]
        for g, r in zip(pooled[1], serial[1]):
            np.testing.assert_array_equal(g, r, strict=True)

    def test_workspace_holds_one_unit(self):
        # a 256x256 image is four units of 64 rows; no buffer may outgrow
        # the largest unit's im2col, 81 taps of 64 rows and a 6-row halo on
        # each side
        rng = np.random.default_rng(33)
        x = rng.uniform(0.2, 0.8, (2, 1, 256, 256)).astype(np.float32)
        target = rng.uniform(0.2, 0.8, (2, 1, 256, 256)).astype(np.float32)
        ws = srcnn._Workspace()
        loss_and_grads(init_model(0), x, target, workspace=ws)
        sizes = {name: a.size for name, a in ws._arrays.items()}
        assert sizes["cols1"] == 81 * (2**14 + 12 * 256)
        assert max(sizes.values()) <= 81 * (2**14 + 12 * 256)

    def test_sharded_step_equals_one_shard(self, monkeypatch):
        # 5 images at 2 a shard make shards of 2, 2 and 1; their sum equals
        # one _shard_grads call over the whole batch, and a pool changes no byte
        rng = np.random.default_rng(28)
        m = micro_model(rng)
        x = rng.uniform(0.2, 0.8, (5, 1, 9, 11))
        target = rng.uniform(0.2, 0.8, (5, 1, 9, 11))
        monkeypatch.setattr(srcnn, "_SHARD_PIXELS", 2 * 9 * 11)
        units = srcnn._units(5, 9, 11, srcnn._SHARD_PIXELS)
        assert [(len(x[s]), top, bottom) for s, top, bottom in units] == [
            (2, 0, 9), (2, 0, 9), (1, 0, 9)]
        sse, ref = srcnn._shard_grads(m, x, target, slice(0, 9), 2 / target.size,
                                      srcnn._Workspace())
        serial = loss_and_grads(m, x, target)
        # shards handed out one at a time to more threads than this machine
        # has cores, switching threads as often as the interpreter allows
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(3) as pool:
                pooled = loss_and_grads(m, x, target, pool=pool)
        finally:
            sys.setswitchinterval(interval)
        assert abs(serial[0] - sse / target.size) <= 1e-12 * serial[0]
        assert len(serial[1]) == len(ref) == 6
        for g, r in zip(serial[1], ref):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()
        assert pooled[0] == serial[0]
        for g, r in zip(pooled[1], serial[1]):
            np.testing.assert_array_equal(g, r, strict=True)

    def test_shards_are_handed_out_one_at_a_time(self, monkeypatch):
        # 6 shards on 2 threads: while shard 0 holds one thread, the other
        # runs all 5 remaining shards; a worker given a fixed block of
        # shards would leave some behind shard 0 and time out here
        rng = np.random.default_rng(31)
        m = micro_model(rng)
        x = rng.uniform(0.2, 0.8, (6, 1, 8, 8))
        target = rng.uniform(0.2, 0.8, (6, 1, 8, 8))
        monkeypatch.setattr(srcnn, "_SHARD_PIXELS", 8 * 8)
        serial = loss_and_grads(m, x, target)
        real = srcnn._shard_grads
        others_done = threading.Event()
        lock, others, waits = threading.Lock(), [], []

        def holding(model, xs, *args):
            if np.shares_memory(xs, x[0]):
                waits.append(others_done.wait(timeout=5))
                return real(model, xs, *args)
            result = real(model, xs, *args)
            with lock:
                others.append(result)
                if len(others) == 5:
                    others_done.set()
            return result

        monkeypatch.setattr(srcnn, "_shard_grads", holding)
        with ThreadPoolExecutor(2) as pool:
            pooled = loss_and_grads(m, x, target, pool=pool)
        assert waits == [True]
        assert pooled[0] == serial[0]
        for g, r in zip(pooled[1], serial[1]):
            np.testing.assert_array_equal(g, r, strict=True)

    def test_workspace_gives_each_thread_its_own_arrays(self):
        ws = srcnn._Workspace()
        here = ws.get("a", (4,), np.float32)
        there = []
        worker = threading.Thread(target=lambda: there.append(ws.get("a", (4,), np.float32)))
        worker.start()
        worker.join()
        assert not np.shares_memory(here, there[0])
        assert np.shares_memory(here, ws.get("a", (4,), np.float32))


class TestAdam:
    def cfg(self, **kw):
        return TrainConfig(**kw)

    def test_zero_gradient_no_motion(self):
        p = [np.array([1.0, -2.0])]
        g = [np.zeros(2)]
        new_p, state = adam_step(p, g, AdamState.zeros_like(p), self.cfg())
        np.testing.assert_array_equal(new_p[0], p[0])
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        for gval in (1e-3, 0.5, 10.0):
            p = [np.array([0.0])]
            g = [np.array([gval])]
            new_p, _ = adam_step(p, g, AdamState.zeros_like(p), self.cfg())
            assert abs(abs(new_p[0][0]) - 1e-4) <= 1e-7

    def test_scalar_quadratic_matches_reference_recurrence(self):
        cfg = self.cfg(learning_rate=0.1)
        p = [np.array([2.5])]
        state = AdamState.zeros_like(p)
        # independent reference of the published recurrences
        ref_p, ref_m, ref_v = 2.5, 0.0, 0.0
        for t in range(1, 11):
            g = 2 * (p[0][0] - 1.0)  # d/dp (p-1)^2
            p, state = adam_step(p, [np.array([g])], state, cfg)
            g_ref = 2 * (ref_p - 1.0)
            b1, b2 = srcnn.ADAM_BETA1, srcnn.ADAM_BETA2
            ref_m = b1 * ref_m + (1 - b1) * g_ref
            ref_v = b2 * ref_v + (1 - b2) * g_ref**2
            m_hat = ref_m / (1 - b1**t)
            v_hat = ref_v / (1 - b2**t)
            ref_p = ref_p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + srcnn.ADAM_EPS)
            assert abs(p[0][0] - ref_p) <= 1e-12


def tiny_pairs(rng, n, size=20):
    pairs = []
    for _ in range(n):
        hr = Image(rng.uniform(0.1, 0.9, (size, size)))
        pairs.append((hr, hr))  # lr == hr
    return pairs


class TestTrain:
    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf"), 10**309])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_never_worse_than_initial_checkpoint(self):
        rng = np.random.default_rng(11)
        pairs = tiny_pairs(rng, 2)
        cfg = TrainConfig(epochs=50, patch_size=8, patches_per_image=2,
                          batch_size=4, learning_rate=1e-3, seed=3,
                          validation_interval=5)
        model, history = train(pairs, pairs, cfg)
        init_val = history.rows[0][2]
        assert min(row[2] for row in history.rows) <= init_val

    def test_returns_the_best_validated_model(self):
        # lr 1e-2 overshoots: epoch 4 validates best and epoch 6 worse
        pairs = tiny_pairs(np.random.default_rng(41), 2)
        cfg = TrainConfig(epochs=6, patch_size=8, patches_per_image=2, batch_size=4,
                          learning_rate=1e-2, seed=1, validation_interval=1)
        model, history = train(pairs, pairs, cfg)
        vals = [row[2] for row in history.rows]
        assert 0 < int(np.argmin(vals)) < cfg.epochs  # neither the first nor the last
        assert srcnn._validation_mse(model, pairs, 0) == min(vals)

    def test_crop_draw_order(self, monkeypatch):
        # per epoch: a window per pair and patch, x0 drawn before y0, then one
        # permutation; each batch stacks its LR and HR crops as float32
        real = srcnn.loss_and_grads
        seen = []

        def recording(model, x, t, **kwargs):
            seen.append((x.copy(), t.copy()))
            return real(model, x, t, **kwargs)

        monkeypatch.setattr(srcnn, "loss_and_grads", recording)
        rng = np.random.default_rng(31)
        pairs = [(Image(rng.uniform(0, 1, shape)), Image(rng.uniform(0, 1, shape)))
                 for shape in [(9, 14), (12, 10)]]
        cfg = TrainConfig(epochs=2, patch_size=8, patches_per_image=3, batch_size=4,
                          learning_rate=1e-3, seed=6)
        train(pairs, pairs[:1], cfg)

        replay, p, expected = np.random.default_rng(cfg.seed), cfg.patch_size, []
        for _ in range(cfg.epochs):
            crops = []
            for lr_img, hr_img in pairs:
                for _ in range(cfg.patches_per_image):
                    x0 = replay.integers(0, lr_img.width - p + 1)
                    y0 = replay.integers(0, lr_img.height - p + 1)
                    window = (slice(y0, y0 + p), slice(x0, x0 + p))
                    crops.append([lr_img.data[window], hr_img.data[window]])
            order = replay.permutation(len(crops))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                expected.append([np.array([crops[i][side] for i in idx], np.float32)[:, None]
                                 for side in (0, 1)])
        assert [len(x) for x, _ in seen] == [4, 2, 4, 2]
        for (x, t), (ex, et) in zip(seen, expected):
            assert x.dtype == t.dtype == np.float32
            np.testing.assert_array_equal(x, ex)
            np.testing.assert_array_equal(t, et)

    def test_seed_determinism(self):
        rng = np.random.default_rng(12)
        pairs = tiny_pairs(rng, 2)
        cfg = TrainConfig(epochs=3, patch_size=8, patches_per_image=2,
                          batch_size=4, seed=7)
        m1, h1 = train(pairs, pairs, cfg)
        m2, h2 = train(pairs, pairs, cfg)
        np.testing.assert_array_equal(np.array(h1.rows), np.array(h2.rows))
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_reused_workspace_matches_fresh_arrays(self, monkeypatch):
        # train reuses one workspace across its steps; 5 patches at batch size
        # 2 give batches of 2, 2 and 1, so the batch shape changes under it
        real = srcnn.loss_and_grads
        steps = []

        def recording(model, x, t, **kwargs):
            loss, grads = real(model, x, t, **kwargs)
            steps.append(([p.copy() for p in model.parameters()], x.copy(), t.copy(),
                          loss, [g.copy() for g in grads]))
            return loss, grads

        monkeypatch.setattr(srcnn, "loss_and_grads", recording)
        pairs = tiny_pairs(np.random.default_rng(26), 1)
        cfg = TrainConfig(epochs=2, patch_size=8, patches_per_image=5, batch_size=2,
                          learning_rate=1e-3, seed=5)
        train(pairs, pairs, cfg)
        assert [len(step[1]) for step in steps] == [2, 2, 1, 2, 2, 1]

        # the same Adam steps on fresh arrays
        model = init_model(cfg.seed)
        params = model.parameters()
        state = AdamState.zeros_like(params)
        for used_params, x, t, loss, grads in steps:
            for p, q in zip(used_params, params):
                np.testing.assert_allclose(p, q, rtol=1e-6, atol=1e-9)
            ref_loss, ref_grads = real(model.with_parameters(params), x, t)
            assert abs(loss - ref_loss) <= 1e-6 * ref_loss
            for g, r in zip(grads, ref_grads):
                np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-6 * np.abs(r).max())
            params, state = adam_step(params, ref_grads, state, cfg)

    def test_step_calls_each_traced_conv_once(self, monkeypatch):
        # perfbench's tracer names its per-layer figures by the (in, out, k)
        # of the conv2d calls inside loss_and_grads, and patches conv2d,
        # loss_and_grads and adam_step; a step that stopped calling one of
        # them would drop its figure from every trace
        conv_names = traced_conv_names()
        calls = {"loss_and_grads": 0, "adam_step": 0}
        conv_keys = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_conv = srcnn.conv2d

        def conv(x, layer, **kwargs):
            if calls["loss_and_grads"] > calls["adam_step"]:  # inside the step
                conv_keys.append((layer.in_channels, layer.out_channels, layer.k))
            return real_conv(x, layer, **kwargs)

        for name in calls:
            monkeypatch.setattr(srcnn, name, counting(name, getattr(srcnn, name)))
        monkeypatch.setattr(srcnn, "conv2d", conv)
        pairs = tiny_pairs(np.random.default_rng(27), 1)
        train(pairs, pairs, TrainConfig(epochs=1, patch_size=8, patches_per_image=2,
                                        batch_size=2))
        assert calls == {"loss_and_grads": 1, "adam_step": 1}
        assert sorted(conv_keys) == sorted(conv_names)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], [], TrainConfig())

    @pytest.mark.parametrize("interval, where", [
        (1, "validation MSE nan at epoch 1"),
        (3, "batch loss nan at epoch 2, step 1"),
    ])
    def test_divergence_raises(self, interval, where):
        # lr 1e6 overflows the first Adam steps; the parameters turn NaN, and
        # no numpy warning comes before the error
        pairs = tiny_pairs(np.random.default_rng(16), 2, size=32)
        cfg = TrainConfig(epochs=3, patch_size=16, patches_per_image=4, batch_size=4,
                          learning_rate=1e6, validation_interval=interval)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match=where):
                train(pairs, pairs, cfg)

    def test_divergence_raises_on_two_shards(self):
        # an 8x64x64 batch is two shards; lr 1e10 overflows the shards' own
        # GEMMs, and numpy's error state is a context variable, which pool
        # threads do not inherit, so the shards must run in train's context
        # for its overflow warnings to stay silenced
        pairs = tiny_pairs(np.random.default_rng(16), 2, size=64)
        cfg = TrainConfig(epochs=3, patch_size=64, patches_per_image=4, batch_size=8,
                          learning_rate=1e10, validation_interval=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="batch loss nan at epoch 3, step 1"):
                train(pairs, pairs, cfg)

    def test_one_and_two_workers_same_bytes(self, monkeypatch):
        # a train_desk-shaped step (8 patches of 64x64, two shards): on the
        # main thread its shards run on two pool threads, on any other
        # thread serially in that thread
        if not srcnn._openblas_thread_fns() or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("shards run serially without OpenBLAS control or a second core")
        real = srcnn._shard_grads
        threads = []

        def recording(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(srcnn, "_shard_grads", recording)
        pairs = tiny_pairs(np.random.default_rng(29), 2, size=72)
        cfg = TrainConfig(epochs=2, patch_size=64, patches_per_image=4, batch_size=8,
                          learning_rate=1e-3, seed=3)
        main = train(pairs, pairs, cfg)
        main_threads, threads[:] = set(threads), []
        other = []
        worker = threading.Thread(target=lambda: other.append(train(pairs, pairs, cfg)))
        worker.start()
        worker.join(timeout=600)
        assert not worker.is_alive()
        assert len(main_threads) == 2 and threading.get_ident() not in main_threads
        assert set(threads) == {worker.ident} and len(threads) == 2 * 2
        assert save_weights(main[0]) == save_weights(other[0][0])
        np.testing.assert_array_equal(np.array(main[1].rows), np.array(other[0][1].rows))

    @pytest.mark.parametrize("learning_rate", [1e-3, 1e6])
    def test_restores_blas_threads_and_leaves_no_thread(self, monkeypatch, learning_rate):
        fns = srcnn._openblas_thread_fns()
        if not fns or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("shards run serially without OpenBLAS control or a second core")
        old = [get() for get, _ in fns]
        real = srcnn._shard_grads
        seen = []

        def recording(*args):
            seen.append([get() for get, _ in fns])
            return real(*args)

        monkeypatch.setattr(srcnn, "_shard_grads", recording)
        monkeypatch.setattr(srcnn, "_SHARD_PIXELS", 8 * 8)  # one patch a shard
        pairs = tiny_pairs(np.random.default_rng(30), 2)
        cfg = TrainConfig(epochs=3, patch_size=8, patches_per_image=2, batch_size=4,
                          learning_rate=learning_rate)
        before = set(threading.enumerate())
        try:
            for _, set_ in fns:
                set_(2)
            if learning_rate > 1:
                with pytest.raises(TrainingDiverged):
                    train(pairs, pairs, cfg)
            else:
                train(pairs, pairs, cfg)
            assert [get() for get, _ in fns] == [2] * len(fns)
        finally:
            for (_, set_), count in zip(fns, old):
                set_(count)
        assert seen and all(counts == [1] * len(fns) for counts in seen)
        assert set(threading.enumerate()) == before

    def test_patch_larger_than_image_rejected(self):
        rng = np.random.default_rng(13)
        pairs = tiny_pairs(rng, 1, size=8)
        with pytest.raises(ValueError):
            train(pairs, pairs, TrainConfig(patch_size=16))


class TestInfer:
    def test_zero_model(self):
        m = init_model(0, channels=(4, 3))
        zeroed = m.with_parameters([np.zeros_like(p) for p in m.parameters()])
        img = Image(np.random.default_rng(14).uniform(0, 1, (16, 16)))
        np.testing.assert_array_equal(infer(zeroed, img).data, 0.0)

    def test_shape(self):
        m = init_model(1, channels=(4, 3))
        img = Image(np.random.default_rng(15).uniform(0, 1, (12, 18)))
        out = infer(m, img)
        assert (out.height, out.width) == (12, 18)

    def test_receptive_field_locality(self):
        rng = np.random.default_rng(16)
        m = micro_model(rng, scale=0.1)
        x = rng.uniform(0.2, 0.8, (1, 1, 24, 24))
        y0 = forward(m, x)
        x2 = x.copy()
        x2[0, 0, 12, 12] += 0.1
        dy = np.abs(forward(m, x2) - y0)[0, 0]
        yy, xx = np.mgrid[0:24, 0:24]
        outside = np.maximum(np.abs(yy - 12), np.abs(xx - 12)) > 7
        assert np.all(dy[outside] == 0.0)
        assert dy[12, 12] > 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("height, width, band_rows", [
        (40, 24, 5),  # eight bands
        (37, 24, 5),  # last band (2 rows) shorter than the halo (6 rows)
        (4, 24, 2),  # frame shorter than the halo
        (30, 20, None),  # one band at the default band size
    ])
    def test_banded_matches_full_frame_forward(
        self, monkeypatch, dtype, height, width, band_rows
    ):
        if band_rows is not None:
            monkeypatch.setattr(srcnn, "_BAND_PIXELS", band_rows * width)
        rng = np.random.default_rng(23)
        m = micro_model(rng, scale=0.1)
        m = m.with_parameters([p.astype(dtype) for p in m.parameters()])
        lr = Image(rng.uniform(0.2, 0.8, (height, width)))
        x = lr.data.astype(dtype)[None, None]
        expected = np.clip(forward(m, x)[0, 0], 0, 1)
        assert 0.0 < expected.min() and expected.max() < 1.0  # nothing clipped
        sr = infer(m, lr).data
        tol = 1e-12 if dtype == np.float64 else 1e-6
        assert np.abs(sr - expected).max() <= tol
        # validation runs the same band loop, on the unclipped output
        hr = Image(rng.uniform(0, 1, (height, width)))
        expected_val = mse_loss(forward(m, x), hr.data.astype(dtype)[None, None])
        assert abs(srcnn._validation_mse(m, [(lr, hr)], 0) - expected_val) <= tol

    @pytest.mark.parametrize("height, band_rows", [
        (40, 8),  # five bands
        (37, 8),  # last band (5 rows) shorter than the halo (6 rows)
        (4, 2),  # frame shorter than the halo
    ])
    def test_banded_matches_fresh_band_loop(self, monkeypatch, height, band_rows):
        width, halo = 24, 6
        monkeypatch.setattr(srcnn, "_BAND_PIXELS", band_rows * width)
        rng = np.random.default_rng(24)
        m = micro_model(rng, scale=0.1)
        m = m.with_parameters([p.astype(np.float32) for p in m.parameters()])
        lr = Image(rng.uniform(0.2, 0.8, (height, width)))
        x = lr.data.astype(np.float32)
        expected = np.empty((height, width))
        for top in range(0, height, band_rows):
            bottom = min(top + band_rows, height)
            lo, hi = max(top - halo, 0), min(bottom + halo, height)
            pred = fresh_forward(m, x[None, None, lo:hi])[0, 0]
            expected[top:bottom] = pred[top - lo : bottom - lo]
        np.testing.assert_array_equal(infer(m, lr).data, np.clip(expected, 0, 1))

    def test_bands_reuse_one_workspace(self, monkeypatch):
        allocations = 0

        class Counting(srcnn._Workspace):
            def get(self, name, shape, dtype):
                nonlocal allocations
                before = self._arrays.get(name)
                a = super().get(name, shape, dtype)
                allocations += self._arrays[name] is not before
                return a

        monkeypatch.setattr(srcnn, "_Workspace", Counting)
        monkeypatch.setattr(srcnn, "_BAND_PIXELS", 8 * 16)  # 8-row bands
        m = micro_model(np.random.default_rng(25), scale=0.1)
        counts = []
        for bands in (3, 8):
            allocations = 0
            infer(m, Image(np.random.default_rng(bands).uniform(0, 1, (8 * bands, 16))))
            counts.append(allocations)
        assert 0 < counts[1] <= counts[0]

    def test_bands_call_each_traced_forward_layer(self, monkeypatch):
        # perfbench's tracer patches forward, lrelu and conv2d in the module
        # and names the forward convs by (in, out, k); a band loop that
        # bypassed them would drop srcnn.val_forward_s, srcnn.lrelu_s and
        # the conv*.fwd_s figures from every trace
        forward_keys = [k for k, v in traced_conv_names().items() if v.endswith(".fwd")]
        calls = {"forward": 0, "lrelu": 0}
        conv_keys = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_conv = srcnn.conv2d

        def conv(x, layer, **kwargs):
            conv_keys.append((layer.in_channels, layer.out_channels, layer.k))
            return real_conv(x, layer, **kwargs)

        for name in calls:
            monkeypatch.setattr(srcnn, name, counting(name, getattr(srcnn, name)))
        monkeypatch.setattr(srcnn, "conv2d", conv)
        monkeypatch.setattr(srcnn, "_BAND_PIXELS", 8 * 16)  # three bands in one forward
        infer(init_model(0), Image(np.random.default_rng(26).uniform(0, 1, (24, 16))))
        assert calls == {"forward": 1, "lrelu": 6}
        assert sorted(conv_keys) == sorted(forward_keys * 3)

    def test_tiled_inference_matches_full_frame(self):
        rng = np.random.default_rng(17)
        m = micro_model(rng, scale=0.1)
        img = rng.uniform(0.2, 0.8, (1, 1, 16, 32))
        full = forward(m, img)
        # two halves with overlap >= receptive-field radius 7, stitched at centers
        left = forward(m, img[:, :, :, :24])
        right = forward(m, img[:, :, :, 8:])
        stitched = np.concatenate([left[:, :, :, :16], right[:, :, :, 8:]], axis=3)
        interior = np.abs(stitched - full)[:, :, :, 8:24]
        assert interior.max() <= 1e-12


def model_9_5_5(rng, dtype):
    """A 9-5-5 model: its front stage is conv1 alone, and its back stage is
    conv2, LReLU and conv3, with a halo of 2 + 2 rows."""
    m = SrcnnModel(random_layer(rng, 3, 1, 9, 0.1), random_layer(rng, 2, 3, 5, 0.1),
                   random_layer(rng, 1, 2, 5, 0.1))
    return m.with_parameters([p.astype(dtype) for p in m.parameters()])


class TestStagedForward:
    """forward runs in row bands cut into tiles of at most _TILE_PIXELS
    pixels; its bytes must equal those of the untiled pass (fresh_forward),
    which holds only when a GEMM split by columns gives the same bits as the
    whole GEMM."""

    # (batch, height, width, tile budget); OpenBLAS takes another kernel,
    # with other bits, for GEMMs of fewer than about 64 columns, and no tile
    # of a band cut into several is narrower than a row or a third of the
    # budget
    CASES = [
        (1, 23, 64, 5 * 64),  # five tiles of 4 or 5 rows
        (1, 9, 64, 64),  # one-row tiles
        (1, 7, 80, 70),  # a row wider than the budget: one-row tiles
        (3, 17, 64, 2 * 3 * 64),  # a batch of 3: tiles of 1 or 2 rows of 3 images
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", ["9-1-5", "9-5-5"])
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("n, height, width, tile", CASES)
    def test_tiles_match_untiled_pass(self, monkeypatch, n, height, width, tile,
                                      pooled, layers, dtype):
        monkeypatch.setattr(srcnn, "_TILE_PIXELS", tile)
        rng = np.random.default_rng(40)
        if layers == "9-5-5":
            m = model_9_5_5(rng, dtype)
        else:
            m = micro_model(rng, scale=0.1).with_parameters(
                [p.astype(dtype) for p in micro_model(rng, scale=0.1).parameters()])
        x = rng.uniform(0.2, 0.8, (n, 1, height, width)).astype(dtype)
        expected = fresh_forward(m, x)
        with ThreadPoolExecutor(2) as pool:
            pool = pool if pooled else None
            # budgets of one row, of three rows and of the whole batch: a
            # batch of n > 1 images is then cut image by image into bands of
            # n and 3n rows, or runs whole
            for band_rows in (1, 3, height + 1):
                monkeypatch.setattr(srcnn, "_BAND_PIXELS", band_rows * n * width)
                np.testing.assert_array_equal(forward(m, x, pool=pool), expected, strict=True)

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bands_of_tiles_match_fresh_band_loop(self, monkeypatch, pooled, dtype):
        # bands of 7 rows, cut into tiles of 1 or 2 rows, against each
        # band's interior of an untiled pass over the band and its 6-row halo
        height, width, band, halo = 30, 64, 7, 6
        monkeypatch.setattr(srcnn, "_BAND_PIXELS", band * width)
        monkeypatch.setattr(srcnn, "_TILE_PIXELS", 2 * width)
        rng = np.random.default_rng(41)
        m = micro_model(rng, scale=0.1)
        m = m.with_parameters([p.astype(dtype) for p in m.parameters()])
        x = rng.uniform(0.2, 0.8, (height, width)).astype(dtype)
        expected = np.empty((height, width), dtype)
        for top in range(0, height, band):
            bottom = min(top + band, height)
            lo, hi = max(top - halo, 0), min(bottom + halo, height)
            expected[top:bottom] = fresh_forward(m, x[None, None, lo:hi])[0, 0, top - lo :
                                                                          bottom - lo]
        with ThreadPoolExecutor(2) as pool:
            got = forward(m, x[None, None], pool=pool if pooled else None)[0, 0]
        np.testing.assert_array_equal(got, expected, strict=True)


def recording_conv2d(monkeypatch, threads, blas_counts=None):
    """Patch srcnn.conv2d to record the thread of each call and, when given
    a list, the OpenBLAS thread counts it runs under."""
    real = srcnn.conv2d

    def conv(*args, **kwargs):
        threads.append(threading.get_ident())
        if blas_counts is not None:
            blas_counts.append([get() for get, _ in srcnn._openblas_thread_fns()])
        return real(*args, **kwargs)

    monkeypatch.setattr(srcnn, "conv2d", conv)


class TestThreadRule:
    def test_infer_off_the_main_thread_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(srcnn, "_TILE_PIXELS", 4 * 16)  # many tiles
        seen = []
        real = srcnn.conv2d

        def conv(*args, **kwargs):
            seen.append((threading.get_ident(), threading.active_count()))
            return real(*args, **kwargs)

        monkeypatch.setattr(srcnn, "conv2d", conv)
        m = micro_model(np.random.default_rng(42), scale=0.1)
        img = Image(np.random.default_rng(43).uniform(0, 1, (40, 16)))
        with ThreadPoolExecutor(1) as pool:
            worker = pool.submit(lambda: (threading.get_ident(), threading.active_count(),
                                          infer(m, img)))
            ident, count, sr = worker.result(timeout=600)
        assert len(seen) > 3 and set(seen) == {(ident, count)}
        np.testing.assert_array_equal(sr.data, infer(m, img).data)

    def test_infer_on_the_main_thread_uses_a_pool(self, monkeypatch):
        fns = srcnn._openblas_thread_fns()
        cores = len(os.sched_getaffinity(0))
        if not fns or cores < 2:
            pytest.skip("infer runs serially without OpenBLAS control or a second core")
        monkeypatch.setattr(srcnn, "_TILE_PIXELS", 4 * 16)
        workers, threads, counts = [], [], []
        real_pool = srcnn._pool

        def recording_pool(n):
            workers.append(n)
            return real_pool(n)

        monkeypatch.setattr(srcnn, "_pool", recording_pool)
        recording_conv2d(monkeypatch, threads, counts)
        m = micro_model(np.random.default_rng(44), scale=0.1)
        img = Image(np.random.default_rng(45).uniform(0, 1, (40, 16)))
        old = [get() for get, _ in fns]
        before = set(threading.enumerate())
        try:
            for _, set_ in fns:
                set_(2)
            infer(m, img)
            assert [get() for get, _ in fns] == [2] * len(fns)
        finally:
            for (_, set_), count in zip(fns, old):
                set_(count)
        tiles = -(-40 * 16 // (4 * 16))
        assert workers == [min(cores, tiles)]
        assert threading.get_ident() not in threads
        assert 2 <= len(set(threads)) <= workers[0]
        assert counts and all(c == [1] * len(fns) for c in counts)
        assert set(threading.enumerate()) == before

    def test_validation_uses_trains_pool(self, monkeypatch):
        if not srcnn._openblas_thread_fns() or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("train runs serially without OpenBLAS control or a second core")
        pools = {"loss_and_grads": [], "forward": []}
        real_lag, real_forward = srcnn.loss_and_grads, srcnn.forward

        def lag(*args, pool=None, **kwargs):
            pools["loss_and_grads"].append(pool)
            return real_lag(*args, pool=pool, **kwargs)

        def fwd(model, x, *, pool=None):
            pools["forward"].append(pool)
            return real_forward(model, x, pool=pool)

        monkeypatch.setattr(srcnn, "loss_and_grads", lag)
        monkeypatch.setattr(srcnn, "forward", fwd)
        pairs = tiny_pairs(np.random.default_rng(46), 2, size=72)
        train(pairs, pairs, TrainConfig(epochs=2, patch_size=64, patches_per_image=4,
                                        batch_size=8))
        used = {id(p) for p in pools["loss_and_grads"] + pools["forward"]}
        assert len(pools["forward"]) == 3 * 2  # epochs 0, 1, 2; two pairs
        assert len(used) == 1 and pools["loss_and_grads"][0] is not None


class TestWeightsIO:
    def test_roundtrip(self):
        m = init_model(18)
        back = load_weights(save_weights(m))
        for a, b in zip(m.parameters(), back.parameters()):
            assert np.abs(a - b).max() <= 1e-6
        x = np.random.default_rng(19).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
        np.testing.assert_allclose(forward(m, x), forward(back, x), atol=1e-5)

    def test_wrong_magic(self):
        blob = save_weights(init_model(20, channels=(2, 2)))
        with pytest.raises(ValueError):
            load_weights(b"XXXX" + blob[4:])

    def test_truncated(self):
        blob = save_weights(init_model(21, channels=(2, 2)))
        for cut in (len(blob) // 2, 10):  # mid-payload; inside the slope
            with pytest.raises(ValueError, match="truncated weights file"):
                load_weights(blob[:cut])

    def test_trailing_garbage(self):
        blob = save_weights(init_model(22, channels=(2, 2)))
        with pytest.raises(ValueError):
            load_weights(blob + b"\x00")

    @pytest.mark.parametrize("chain", [
        (2, 3, 3, 2, 2, 1),  # layer1 input is not the one image channel
        (1, 3, 4, 2, 2, 1),  # layer2 input differs from layer1 output
        (1, 3, 3, 2, 3, 1),  # layer3 input differs from layer2 output
        (1, 3, 3, 2, 2, 2),  # layer3 output is not one channel
    ])
    def test_broken_layer_chain_rejected(self, chain):
        rng = np.random.default_rng(24)
        i1, o1, i2, o2, i3, o3 = chain
        m = SrcnnModel(
            random_layer(rng, o1, i1, 3),
            random_layer(rng, o2, i2, 1),
            random_layer(rng, o3, i3, 3),
        )
        with pytest.raises(ValueError, match="chain"):
            load_weights(save_weights(m))

    @pytest.mark.parametrize("c1, c2", [(0, 2), (2, 0)])
    def test_layer_without_channels_rejected(self, c1, c2):
        # such a file chains 1 -> c1 -> c2 -> 1, but infer would return a
        # constant image from it
        blob = bytearray(WEIGHTS_MAGIC + struct.pack("<If", WEIGHTS_VERSION, 0.01))
        for out_c, in_c, k in ((c1, 1, 9), (c2, c1, 1), (1, c2, 5)):
            blob += struct.pack("<III", out_c, in_c, k)
            blob += bytes(4 * (out_c * in_c * k * k + out_c))
        with pytest.raises(ValueError, match="no channels"):
            load_weights(bytes(blob))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("index", [0, 5])  # layer1 kernel, layer3 bias
    def test_non_finite_value_rejected(self, value, index):
        m = init_model(25, channels=(2, 2))
        params = [p.copy() for p in m.parameters()]
        params[index].flat[-1] = value
        with pytest.raises(ValueError, match="non-finite"):
            load_weights(save_weights(m.with_parameters(params)))
