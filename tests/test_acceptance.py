"""Acceptance gate.

Each test verifies one numbered acceptance criterion and prints a single
``criterion N: PASS``/``FAIL`` line (visible even under output capture).
Criteria 5 and 10 run miniature end-to-end trainings and dominate the
runtime of this module.
"""

import math

import numpy as np
import pytest
from scipy import stats

from endosim.degrade import DegradationConfig, degrade, identity_check
from endosim.image import Image
from endosim.metrics import psnr, ssim
from endosim.phantom import PhantomSpec, generate_phantom
from endosim.preprocess import PreprocessConfig, clahe, gaussian_blur
from endosim.readerstats import (
    ReadRecord,
    equivalence_sample_size,
    summarize,
    unpaired_t_test,
)
from endosim import srcnn
from endosim.srcnn import (
    ConvLayer,
    SrcnnModel,
    TrainConfig,
    adam_step,
    AdamState,
    conv2d,
    forward,
    infer,
    init_model,
    loss_and_grads,
    lrelu,
    mse_loss,
    train,
)
from endosim.harness import SweepConfig, run_sweep


def report(capsys, criterion, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed {detail}"


# --------------------------------------------------------------------------
# 1. Degradation oracle equivalence


def brute_force_degrade(data, m, s, offsets):
    """Independent reference: explicit tile loops, replayed offsets."""
    h, w = data.shape
    lr = data.copy()
    sparse = np.zeros((h, w))
    means = []
    margin = (s - m) // 2
    i = 0
    for ty in range(0, (h // s) * s, s):
        for tx in range(0, (w // s) * s, s):
            dy, dx = offsets[i]
            i += 1
            ry = ty + margin + dy
            rx = tx + margin + dx
            ry = 0 if ry < 0 else (h - m if ry > h - m else ry)
            rx = 0 if rx < 0 else (w - m if rx > w - m else rx)
            block = np.array(
                [[data[ry + a, rx + b] for b in range(m)] for a in range(m)]
            )
            mean = block.mean()
            lr[ty : ty + s, tx : tx + s] = mean
            sparse[ry : ry + m, rx : rx + m] = block
            means.append((ry, rx, float(mean)))
    return lr, sparse, means


def test_criterion_1_degradation_oracle(capsys):
    rng = np.random.default_rng(20260824)
    ok = True
    detail = ""
    for case in range(200):
        m = int(rng.integers(1, 5))
        s = int(rng.integers(m, 9))
        d = int(rng.integers(0, 4))
        h = int(rng.integers(max(7, s), 65))
        w = int(rng.integers(max(7, s), 65))
        img = Image(rng.uniform(0, 1, (h, w)))
        cfg = DegradationConfig(
            pixel_size_um=1.0,
            fiber_diameter_um=float(m),
            inter_fiber_distance_um=float(s),
            max_offset_um=float(d),
        )
        pair = degrade(img, cfg, np.random.default_rng(case))
        offsets = pair.samples["offset"].tolist()
        lr_ref, sparse_ref, means_ref = brute_force_degrade(img.data, m, s, offsets)
        same = (
            np.array_equal(pair.lr.data, lr_ref)
            and np.array_equal(pair.sparse.data, sparse_ref)
            and [(*roi, mv) for roi, mv in zip(pair.samples["roi_origin"].tolist(),
                                               pair.samples["mean"].tolist())] == means_ref
        )
        if not same:
            ok = False
            detail = f"case {case}: m={m} s={s} d={d} size={w}x{h}"
            break
    report(capsys, 1, ok, detail)


# --------------------------------------------------------------------------
# 2. Identity degradation


def test_criterion_2_identity_degradation(capsys):
    rng = np.random.default_rng(2)
    img = Image(rng.uniform(0, 1, (24, 31)))
    exact = identity_check(img) == img

    config = SweepConfig(
        phantom_specs=(PhantomSpec(width=64, height=64),),
        train_count=2,
        val_count=1,
        test_count=2,
        offset_um=(0.0,),
        baseline_fiber_diameter_um=1.0,
        baseline_inter_fiber_distance_um=1.0,
        pixel_size_um=1.0,
        train_config=TrainConfig(
            epochs=1, batch_size=2, patch_size=32, patches_per_image=1
        ),
        base_seed=7,
    )
    rows, _ = run_sweep(config)
    row = rows[0]
    harness_ok = (
        math.isinf(row.mean_psnr_lr)
        and row.mean_psnr_lr > 0
        and abs(row.mean_ssim_lr - 1.0) <= 1e-12
    )
    report(capsys, 2, exact and harness_ok)


# --------------------------------------------------------------------------
# 3. Gradient correctness


def _kink_safe_model():
    """Full-width SRCNN whose pre-activations stay far from the LReLU kink,
    so central differences never straddle it; both branches are exercised
    via alternating +/-3 biases."""
    base = init_model(0, init_sd=0.02, dtype=np.float64)

    def split_bias(layer):
        bias = np.where(np.arange(layer.out_channels) % 2 == 0, 3.0, -3.0)
        return ConvLayer(kernel=layer.kernel, bias=bias)

    return SrcnnModel(
        layer1=split_bias(base.layer1),
        layer2=split_bias(base.layer2),
        layer3=base.layer3,
        lrelu_slope=base.lrelu_slope,
    )


def test_criterion_3_gradient_check(capsys):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
    t = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
    model = _kink_safe_model()

    z1 = conv2d(x, model.layer1)
    z2 = conv2d(lrelu(z1, model.lrelu_slope), model.layer2)
    assert min(np.abs(z1).min(), np.abs(z2).min()) > 0.5  # safety margin

    _, analytic = loss_and_grads(model, x, t)
    params = model.parameters()
    h = 1e-4
    max_rel = 0.0
    for pi, p in enumerate(params):
        flat = p.ravel()
        gflat = analytic[pi].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lo_hi = mse_loss(forward(model.with_parameters(params), x), t)
            flat[j] = orig - h
            lo_lo = mse_loss(forward(model.with_parameters(params), x), t)
            flat[j] = orig
            num = (lo_hi - lo_lo) / (2 * h)
            # the floor keeps double-precision roundoff on near-zero
            # gradients (abs error ~5e-13 at this loss scale) out of the
            # relative-error statistic
            rel = abs(num - gflat[j]) / max(abs(num), abs(gflat[j]), 1e-6)
            max_rel = max(max_rel, rel)
    report(capsys, 3, max_rel <= 1e-5, f"max rel err {max_rel:.3g}")


# --------------------------------------------------------------------------
# 4. Adam oracle


def test_criterion_4_adam_oracle(capsys):
    cfg = TrainConfig(learning_rate=0.1)
    params = [np.array([5.0])]
    state = AdamState.zeros_like(params)

    # published recurrences, scalar quadratic f(x) = (x - 3)^2 / 2
    x = 5.0
    m = v = 0.0
    ok = True
    for step in range(1, 11):
        grads = [np.array([params[0][0] - 3.0])]
        params, state = adam_step(params, grads, state, cfg)

        g = x - 3.0
        b1, b2 = srcnn.ADAM_BETA1, srcnn.ADAM_BETA2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        x = x - cfg.learning_rate * m_hat / (math.sqrt(v_hat) + srcnn.ADAM_EPS)
        if abs(float(params[0][0]) - x) > 1e-12:
            ok = False
            break
    report(capsys, 4, ok)


# --------------------------------------------------------------------------
# 5 & 6 shared desk-scale data

DESK_SPEC = PhantomSpec(width=128, height=128)


def desk_pairs(deg_cfg, count, seed_base):
    pairs = []
    for k in range(count):
        hr, _ = generate_phantom(DESK_SPEC, seed_base + k)
        lr = degrade(hr, deg_cfg, np.random.default_rng(seed_base + k + 7919)).lr
        pairs.append((lr, hr))
    return pairs


@pytest.mark.slow
def test_criterion_5_training_improves_over_lr(capsys):
    deg = DegradationConfig(
        pixel_size_um=2.0,
        fiber_diameter_um=4.0,
        inter_fiber_distance_um=8.0,
        max_offset_um=0.0,
    )
    train_pairs = desk_pairs(deg, 20, 500)
    val_pairs = desk_pairs(deg, 5, 600)
    test_pairs = desk_pairs(deg, 10, 700)

    passes = 0
    details = []
    for seed in (1, 2, 3):
        cfg = TrainConfig(
            learning_rate=1e-3,
            epochs=200,
            batch_size=8,
            patch_size=64,
            patches_per_image=4,
            validation_interval=10,
            seed=seed,
        )
        model, _ = train(train_pairs, val_pairs, cfg)
        psnr_lr, psnr_sr, ssim_lr, ssim_sr = [], [], [], []
        for lr_img, hr_img in test_pairs:
            sr_img = infer(model, lr_img)
            psnr_lr.append(psnr(hr_img, lr_img))
            psnr_sr.append(psnr(hr_img, sr_img))
            ssim_lr.append(ssim(hr_img, lr_img))
            ssim_sr.append(ssim(hr_img, sr_img))
        dp = float(np.mean(psnr_sr) - np.mean(psnr_lr))
        ds = float(np.mean(ssim_sr) - np.mean(ssim_lr))
        if dp >= 0.5 and ds >= 0.0:
            passes += 1
        details.append(f"seed {seed}: dPSNR {dp:+.3f} dB, dSSIM {ds:+.4f}")
    report(capsys, 5, passes >= 2, "; ".join(details))


def test_criterion_6_degradation_trend(capsys):
    means = []
    for s_um in (4.0, 8.0, 16.0, 24.0):
        deg = DegradationConfig(
            pixel_size_um=2.0,
            fiber_diameter_um=4.0,
            inter_fiber_distance_um=s_um,
            max_offset_um=0.0,
        )
        vals = [psnr(hr, lr) for lr, hr in desk_pairs(deg, 20, 800)]
        means.append(float(np.mean(vals)))
    ok = all(means[i + 1] <= means[i] + 0.2 for i in range(len(means) - 1))
    report(capsys, 6, ok, f"mean PSNR_LR by s: {[f'{m:.2f}' for m in means]}")


# --------------------------------------------------------------------------
# 7. Metric exactness


def test_criterion_7_metric_exactness(capsys):
    rng = np.random.default_rng(7)
    base = Image(rng.uniform(0, 0.9, (16, 16)))
    shifted = Image(base.data + 0.1)
    psnr_ok = abs(psnr(base, shifted) - 20.0) <= 1e-9

    img = Image(rng.uniform(0, 1, (16, 16)))
    self_ok = abs(ssim(img, img) - 1.0) <= 1e-12

    from test_metrics import brute_force_ssim

    oracle_ok = True
    for _ in range(50):
        x = rng.uniform(0, 1, (16, 16))
        y = rng.uniform(0, 1, (16, 16))
        if abs(ssim(Image(x), Image(y)) - brute_force_ssim(x, y)) > 1e-9:
            oracle_ok = False
            break
    report(capsys, 7, psnr_ok and self_ok and oracle_ok)


# --------------------------------------------------------------------------
# 8. Preprocess oracles


def test_criterion_8_preprocess_oracles(capsys):
    from test_preprocess import brute_force_blur, global_he_oracle

    rng = np.random.default_rng(8)
    data = rng.uniform(0.05, 0.95, (14, 14))
    blur_err = np.abs(
        gaussian_blur(Image(data), 1.5).data - brute_force_blur(data, 1.5)
    ).max()

    cfg = PreprocessConfig(clahe_clip_limit=1.0, clahe_tiles=(1, 1))
    he_err = np.abs(
        clahe(Image(data), cfg).data - global_he_oracle(data, cfg.clahe_bins)
    ).max()
    report(
        capsys,
        8,
        blur_err <= 1e-12 and he_err <= 1.0 / 256,
        f"blur err {blur_err:.2g}, he err {he_err:.2g}",
    )


# --------------------------------------------------------------------------
# 9. Reader statistics


def mc_equivalence_n(p, limit, alpha, power, analytic_n, trials=100_000):
    """Smallest n whose Monte-Carlo TOST power reaches the target, scanned
    around the closed-form solution."""
    z = stats.norm.ppf(1.0 - alpha)
    rng = np.random.default_rng(int(p * 1000))
    best = None
    for n in range(max(2, analytic_n - 8), analytic_n + 9):
        p1 = rng.binomial(n, p, trials) / n
        p2 = rng.binomial(n, p, trials) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
            diff = p1 - p2
            reject = ((diff + limit) / se >= z) & ((diff - limit) / se <= -z)
        if float(np.mean(reject)) >= power:
            best = n
            break
    return best


def test_criterion_9_reader_statistics(capsys):
    records = [
        ReadRecord(f"p{i}", "r1", "HR", "neoplastic", "high", "neoplastic")
        for i in range(70)
    ] + [
        ReadRecord(f"q{i}", "r1", "HR", "non_neoplastic", "high", "neoplastic")
        for i in range(8)
    ] + [
        ReadRecord(f"n{i}", "r1", "HR", "non_neoplastic", "low", "non_neoplastic")
        for i in range(30)
    ] + [
        ReadRecord(f"m{i}", "r1", "HR", "neoplastic", "low", "non_neoplastic")
        for i in range(12)
    ]
    s = summarize(records)
    counts_ok = (
        s.total == 120
        and abs(s.prevalence - 0.65) <= 1e-15
        and (s.tp, s.fn, s.tn, s.fp) == (70, 8, 30, 12)
        and s.sensitivity == 70 / 78
        and s.specificity == 30 / 42
    )

    a = [0.70, 0.74, 0.66, 0.71]
    b = [0.73, 0.69, 0.75, 0.77]
    res = unpaired_t_test(a, b)
    ref = stats.ttest_ind(a, b, equal_var=True)
    t_ok = abs(res.p - ref.pvalue) <= 1e-6

    from itertools import combinations

    def t_stat(ga, gb):
        na, nb = len(ga), len(gb)
        sp = ((na - 1) * np.var(ga, ddof=1) + (nb - 1) * np.var(gb, ddof=1)) / (
            na + nb - 2
        )
        if sp == 0:
            return 0.0 if np.mean(ga) == np.mean(gb) else np.inf
        return (np.mean(ga) - np.mean(gb)) / np.sqrt(sp * (1 / na + 1 / nb))

    pooled = a + b
    observed = abs(t_stat(a, b))
    ge = gt = total = 0
    for idx in combinations(range(8), 4):
        ga = [pooled[i] for i in idx]
        gb = [pooled[i] for i in range(8) if i not in idx]
        tt = abs(t_stat(ga, gb))
        ge += tt >= observed - 1e-9
        gt += tt > observed + 1e-9
        total += 1
    perm_ok = abs(res.p - (ge + gt) / (2 * total)) <= 0.08

    mc_ok = True
    mc_detail = []
    for p in (0.6, 0.7, 0.8):
        analytic = equivalence_sample_size(0.8, 0.05, 0.15, p)
        mc = mc_equivalence_n(p, 0.15, 0.05, 0.8, analytic)
        mc_detail.append(f"p={p}: analytic {analytic}, MC {mc}")
        if mc is None or abs(mc - analytic) > 5:
            mc_ok = False
    report(
        capsys,
        9,
        counts_ok and t_ok and perm_ok and mc_ok,
        "; ".join(mc_detail),
    )


# --------------------------------------------------------------------------
# 10. Determinism


def test_criterion_10_sweep_determinism(capsys, tmp_path):
    config = SweepConfig(
        phantom_specs=(PhantomSpec(width=64, height=64),),
        train_count=3,
        val_count=2,
        test_count=2,
        offset_um=(0.0, 2.0),
        baseline_fiber_diameter_um=6.0,
        baseline_inter_fiber_distance_um=12.0,
        pixel_size_um=2.0,
        train_config=TrainConfig(
            epochs=3, batch_size=4, patch_size=32, patches_per_image=2
        ),
        base_seed=11,
    )
    texts = []
    for run, threads in ((0, 1), (1, 1), (2, 4)):
        out = tmp_path / f"run{run}"
        run_sweep(config, out_dir=out, threads=threads)
        texts.append((out / "results.csv").read_bytes())
    report(
        capsys,
        10,
        texts[0] == texts[1] == texts[2] and len(texts[0]) > 0,
    )
