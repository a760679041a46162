"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The direction-of-effect criteria run full reconstructions of a 128x128
textured crop (camera image, head/coat region) over several densities and
seeds; expect a few minutes of runtime.  They need the camera image from
scikit-image and skip when it is not installed; criteria 1, 2, 3 and 8
always run.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

import fsrecon as f
from fsrecon.core import (
    reconstruct_block,
    reconstruct_block_reference,
    synthesize_model,
    init_model_state,
    projection_coefficients,
    select_basis,
    update_model,
)
from fsrecon.grid import AreaLabel, BlockContext
from fsrecon.priors import ALPHA_MAX, build_prior_map, prior_alphas
from fsrecon.weighting import build_weight_map, effective_density

SEEDS = (1, 2, 3)


def report(criterion: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


@lru_cache(maxsize=1)
def crop() -> f.ImageGrid:
    skimage_data = pytest.importorskip("skimage.data")
    return f.ImageGrid(skimage_data.camera().astype(float)[64:192, 96:224])


def random_ctx(rng, M, density, block_size, border):
    labels = np.where(rng.random((M, M)) < density, AreaLabel.A, AreaLabel.B).astype(np.uint8)
    values = np.where(labels == AreaLabel.A, rng.uniform(0, 255, (M, M)), 0.0)
    return BlockContext(
        block_size=block_size, border=border, labels=labels, values=values
    )


@lru_cache(maxsize=None)
def mean_psnr(method: str, density: float, tau: float = 2.0) -> float:
    from fsrecon.pipeline import run_method
    from fsrecon.weighting import FsrParams

    img = crop()
    params = FsrParams(tau=tau)
    vals = []
    for seed in SEEDS:
        mask = f.generate_mask(img.width, img.height, density, seed)
        vals.append(f.psnr(img, run_method(method, img, mask, params).image))
    return float(np.mean(vals))


def prior_at(k, l, M, alpha):
    """``build_prior_map``'s weight at bin (k, l) of an M x M plane for one alpha."""
    return build_prior_map(M, M, [alpha], np.array([k * M + l])).item()


def weight_at(m, n, label, M, params):
    """``build_weight_map``'s weight at (m, n) of an M x M window that holds only ``label``."""
    labels = np.full((M, M), label, dtype=np.uint8)
    ctx = BlockContext(block_size=M, border=0, labels=labels, values=np.zeros((M, M)))
    return float(build_weight_map(ctx, params).w[m, n])


def test_criterion_1_formula_unit_suite():
    import fsrecon.weighting as weighting

    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True

    for _ in range(1000):
        M = 2 * int(rng.integers(2, 24))
        k, l = int(rng.integers(0, M)), int(rng.integers(0, M))
        m, n = int(rng.integers(0, M)), int(rng.integers(0, M))
        rho = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(0.05, 1.0))
        tau = float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0, 6))
        omega = float(rng.uniform(1e-6, 1.0))
        p = f.FsrParams(rho_hat=rho, delta=delta, tau=tau)

        # independent scalar evaluations
        kt = min(k, M - k)
        lt = min(l, M - l)
        base = max(0.0, 1.0 - math.sqrt(2.0) * math.sqrt((kt / M) ** 2 + (lt / M) ** 2))
        ok &= math.isclose(prior_at(k, l, M, 1.0), base**2, rel_tol=1e-12, abs_tol=1e-15)
        ok &= math.isclose(
            prior_at(k, l, M, alpha),
            base ** (2 * alpha) if alpha else 1.0,
            rel_tol=1e-12,
            abs_tol=1e-15,
        )
        expected_alpha = min(max(-math.log(omega) / tau, 0.0), ALPHA_MAX)
        ok &= math.isclose(f.alpha_of_omega(omega, p), expected_alpha, rel_tol=1e-12)
        d = math.hypot(m - (M - 1) / 2, n - (M - 1) / 2)
        ok &= math.isclose(
            weight_at(m, n, AreaLabel.A, M, p), rho**d, rel_tol=1e-12
        )
        ok &= math.isclose(
            weight_at(m, n, AreaLabel.R, M, p), delta * rho**d, rel_tol=1e-12
        )
        ok &= weight_at(m, n, AreaLabel.B, M, p) == 0.0

    # effective density vs brute-force ratio on random label fields
    for _ in range(50):
        M = 8
        labels = rng.integers(0, 4, size=(M, M)).astype(np.uint8)
        values = np.where(
            (labels == AreaLabel.A) | (labels == AreaLabel.R), 1.0, 0.0
        )
        ctx = BlockContext(block_size=4, border=2, labels=labels, values=values)
        p = f.FsrParams(rho_hat=float(rng.uniform(0.1, 1.0)), delta=float(rng.uniform(0.1, 1.0)))
        num = sum(
            weight_at(m, n, AreaLabel(labels[m, n]), M, p)
            for m in range(M)
            for n in range(M)
        )
        den = sum(
            p.rho_hat ** math.hypot(m - (M - 1) / 2, n - (M - 1) / 2)
            for m in range(M)
            for n in range(M)
        )
        got = f.effective_density(ctx, f.build_weight_map(ctx, p), p)
        ok &= math.isclose(got, num / den, rel_tol=1e-12)

    # trivial identities
    ok &= prior_at(0, 0, 32, 1.0) == 1.0
    ok &= prior_at(16, 16, 32, 1.0) == 0.0
    ok &= all(prior_at(k, l, 16, 0.0) == 1.0 for k in range(16) for l in range(16))
    ok &= f.alpha_of_omega(1.0, f.FsrParams()) == 0.0

    elapsed = time.perf_counter() - t0
    report(1, f"formula unit suite, {elapsed:.1f}s < 5s", ok and elapsed < 5.0)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    params = f.FsrParams(block_size=8, border=4, iterations=10)
    ok = True
    for i in range(50):
        density = 0.05 + 0.90 * i / 49
        ctx = random_ctx(rng, 16, density, 8, 4)
        tf, tr = [], []
        fast, fb1 = reconstruct_block(ctx, params, selection_trace=tf)
        ref, fb2 = reconstruct_block_reference(ctx, params, selection_trace=tr)
        ok &= fb1 == fb2
        if fb1:
            continue  # zero-data window; both paths fell back identically
        ok &= tf == tr
        ok &= float(np.max(np.abs(fast - ref))) < 1e-4
    elapsed = time.perf_counter() - t0
    report(2, f"oracle equivalence fast vs spatial, {elapsed:.1f}s < 60s", ok and elapsed < 60.0)


def test_criterion_3_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True

    # model realness and monotone weighted residual energy, 100 iterations
    for _ in range(20):
        ctx = random_ctx(rng, 16, float(rng.uniform(0.1, 0.9)), 8, 4)
        p = f.FsrParams(block_size=8, border=4, iterations=100)
        wm = build_weight_map(ctx, p)
        if wm.weight_sum == 0.0:
            continue
        energies = []
        reconstruct_block_reference(ctx, p, energy_trace=energies)
        ok &= all(b <= a + 1e-9 * max(energies) for a, b in zip(energies, energies[1:]))

        omega = effective_density(ctx, wm, p)
        ok &= 0.0 <= omega <= 1.0
        state = init_model_state(ctx.values, wm)
        prior = build_prior_map(16, 16, [f.alpha_of_omega(omega, p)], state.order)
        for _ in range(100):
            proj = projection_coefficients(state)
            j = select_basis(proj, prior)
            update_model(state, j, p)
        g = synthesize_model(state)
        g_complex = np.fft.ifft2(state.coef) * 256
        ok &= float(np.max(np.abs(g_complex.imag))) < 1e-6
        ok &= np.allclose(g, g_complex.real)

    # known-sample preservation, bit exact
    img = f.ImageGrid(rng.uniform(0, 255, (32, 32)))
    mask = f.generate_mask(32, 32, 0.4, 5)
    res = f.reconstruct_image(img, mask, f.FsrParams(block_size=4, border=6, iterations=20))
    ok &= bool(np.array_equal(res.image.samples[mask.flags], img.samples[mask.flags]))

    # prior fold symmetry and axis monotonicity
    for kind in (f.PriorKind.OTF, f.PriorKind.ADAPTIVE):
        alphas = prior_alphas(kind, np.array([0.35]), f.FsrParams())
        wf = build_prior_map(32, 32, alphas, np.arange(32 * 32)).reshape(32, 32)
        flipped = wf[(-np.arange(32)) % 32][:, (-np.arange(32)) % 32]
        ok &= bool(np.array_equal(wf, flipped))
        axis = wf[: 17, 0]
        ok &= bool(np.all(np.diff(axis) <= 0))

    elapsed = time.perf_counter() - t0
    report(3, f"invariant suite, {elapsed:.1f}s < 60s", ok and elapsed < 60.0)


def test_criterion_4_fsr_vs_linear_interpolation():
    t0 = time.perf_counter()
    gains = {
        d: mean_psnr("fsr-ap", d) - mean_psnr("lin", d) for d in (0.2, 0.5)
    }
    ok = all(g > 1.0 for g in gains.values())
    elapsed = time.perf_counter() - t0
    report(
        4,
        f"FSR-AP over LIN: +{gains[0.2]:.2f} dB @20%, +{gains[0.5]:.2f} dB @50%, "
        f"{elapsed:.0f}s < 600s",
        ok and elapsed < 600.0,
    )


def test_criterion_5_adaptive_vs_fixed_prior():
    t0 = time.perf_counter()
    diffs = {
        d: mean_psnr("fsr-ap", d) - mean_psnr("fsr-otf", d) for d in (0.1, 0.3, 0.5, 0.8)
    }
    ok = all(v >= -0.05 for v in diffs.values()) and diffs[0.8] > 0.0
    elapsed = time.perf_counter() - t0
    detail = " ".join(f"{int(d*100)}%:{v:+.3f}" for d, v in diffs.items())
    report(5, f"FSR-AP vs FSR-OTF ({detail}), {elapsed:.0f}s < 900s", ok and elapsed < 900.0)


def test_criterion_6_tau_robustness():
    t0 = time.perf_counter()
    sweep = {tau: mean_psnr("fsr-ap", 0.3, tau) for tau in (1.0, 1.5, 2.0, 3.0)}
    spread = max(sweep.values()) - min(sweep.values())
    low_tau_gap = sweep[2.0] - mean_psnr("fsr-ap", 0.3, 0.1)
    ok = spread < 0.5 and low_tau_gap > 0.5
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"tau robustness: spread {spread:.2f} dB < 0.5, tau=0.1 deficit "
        f"{low_tau_gap:.2f} dB > 0.5, {elapsed:.0f}s < 900s",
        ok and elapsed < 900.0,
    )


def test_criterion_7_prior_timing_overhead():
    img = crop()
    mask = f.generate_mask(img.width, img.height, 0.1, 1)
    times = {}
    for method, kind in (("ap", f.PriorKind.ADAPTIVE), ("otf", f.PriorKind.OTF)):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            f.reconstruct_image(img, mask, f.FsrParams(), kind)
            best = min(best, time.perf_counter() - t0)
        times[method] = best
    ratio = times["ap"] / times["otf"]
    ok = 0.9 <= ratio <= 1.1
    report(7, f"adaptive prior timing ratio {ratio:.3f} within [0.9, 1.1]", ok)


def test_criterion_8_degenerate_inputs():
    rng = np.random.default_rng(808)
    ok = True
    params = f.FsrParams(block_size=4, border=6, iterations=10)

    # full density: bit-identical output
    img = f.ImageGrid(rng.uniform(0, 255, (20, 20)))
    full = f.SamplingMask(np.ones((20, 20), dtype=bool))
    res = f.reconstruct_image(img, full, params)
    ok &= bool(np.array_equal(res.image.samples, img.samples)) and not res.fallback_blocks

    # zero density: fallback fill, every block flagged
    empty = f.SamplingMask(np.zeros((20, 20), dtype=bool))
    res = f.reconstruct_image(img, empty, params)
    ok &= len(res.fallback_blocks) == 25
    ok &= bool(np.all(res.image.samples == res.image.samples[0, 0]))

    # single-pixel mask
    flags = np.zeros((20, 20), dtype=bool)
    flags[7, 11] = True
    res = f.reconstruct_image(img, f.SamplingMask(flags), params)
    ok &= bool(np.all(np.isfinite(res.image.samples)))
    ok &= res.image.samples[7, 11] == img.samples[7, 11]

    # dimensions not divisible by the block size
    img2 = f.ImageGrid(rng.uniform(0, 255, (19, 23)))
    mask2 = f.generate_mask(23, 19, 0.5, 3)
    res2 = f.reconstruct_image(img2, mask2, params)
    ok &= res2.image.samples.shape == (19, 23)
    ok &= bool(np.array_equal(res2.image.samples[mask2.flags], img2.samples[mask2.flags]))

    report(8, "degenerate input suite", ok)
