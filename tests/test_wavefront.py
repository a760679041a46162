"""Wavefront order reproduces raster order bit for bit.

``reconstruct_image`` runs the blocks of each wavefront as one stack.  The
loop below is the plain raster-order definition it must match: one block
at a time, each window seeing every raster-earlier block, and the
fallback value taken from the known samples of raster-earlier blocks and
written wherever the block entry reports a window without usable data.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsrecon import core
from fsrecon.core import reconstruct_block, reconstruct_image
from fsrecon.grid import (
    AreaLabel, ImageGrid, SamplingMask, build_block_context, pad_planes,
)
from fsrecon.priors import PriorKind, build_prior_map
from fsrecon.weighting import FsrParams, build_weight_map


def raster_reconstruction(image, mask, params, block_fn):
    H, W = image.height, image.width
    B, b = params.block_size, params.border
    labels, out = pad_planes(image, mask, B, b)
    M = B + 2 * b
    windows = sliding_window_view(labels, (M, M)), sliding_window_view(out, (M, M))
    known = mask.flags
    global_mean = float(image.samples[known].mean()) if known.any() else 128.0
    seen_sum, seen_cnt = 0.0, 0
    fallback_blocks = []
    for r0 in range(0, H, B):
        for c0 in range(0, W, B):
            ctx = build_block_context(*windows, (r0, c0))
            fb = seen_sum / seen_cnt if seen_cnt else global_mean
            patch, used_fb = block_fn(ctx, params)
            center = np.s_[r0 + b : r0 + b + B, c0 + b : c0 + b + B]
            fill = labels[center] == AreaLabel.B
            if used_fb:  # the entry leaves NaN where it has no model
                assert np.isnan(patch[fill]).all()
            out[center][fill] = fb if used_fb else patch[fill]
            if not used_fb:
                labels[center][fill] = AreaLabel.R
            elif fill.any():  # listed exactly when it filled a pixel with the fallback value
                fallback_blocks.append((r0, c0))
            blk_known = known[r0 : r0 + B, c0 : c0 + B]
            seen_sum += float(image.samples[r0 : r0 + B, c0 : c0 + B][blk_known].sum())
            seen_cnt += int(np.count_nonzero(blk_known))
    return out[b : b + H, b : b + W], fallback_blocks


def make_case(height, width, density, seed):
    rng = np.random.default_rng(seed)
    image = ImageGrid(rng.uniform(0, 255, (height, width)))
    return image, SamplingMask(rng.random((height, width)) < density)


def assert_matches_raster(image, mask, params, prior):
    def block_fn(ctx, params):
        return reconstruct_block(ctx, params, prior=prior)

    want, want_fallbacks = raster_reconstruction(image, mask, params, block_fn)
    got = reconstruct_image(image, mask, params, prior)
    assert got.image.samples.tobytes() == want.tobytes()
    assert got.fallback_blocks == want_fallbacks
    out = got.image.samples
    assert out[mask.flags].tobytes() == image.samples[mask.flags].tobytes()
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 255.0))


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    block_size=st.sampled_from([2, 4, 6]),
    border=st.integers(0, 8),
    density=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    rho_hat=st.sampled_from([0.7, 1e-150]),
    kind=st.sampled_from(list(PriorKind)),
    seed=st.integers(0, 2**16),
)
@example(height=1, width=37, block_size=4, border=6, density=0.3, rho_hat=0.7,
         kind=PriorKind.ADAPTIVE, seed=1)
@example(height=5, width=3, block_size=2, border=8, density=0.3, rho_hat=0.7,
         kind=PriorKind.OTF, seed=2)
@example(height=40, width=40, block_size=2, border=3, density=0.01, rho_hat=0.7,
         kind=PriorKind.NONE, seed=3)
# the window of block (0, 8) holds data only where 1e-150 ** d is subnormal:
# a nonzero weight sum without a finite reciprocal, so that block falls back
@example(height=12, width=12, block_size=4, border=2, density=0.3, rho_hat=1e-150,
         kind=PriorKind.OTF, seed=2)
def test_wavefront_equals_raster_order(
    height, width, block_size, border, density, rho_hat, kind, seed
):
    image, mask = make_case(height, width, density, seed)
    params = FsrParams(block_size=block_size, border=border, iterations=4, rho_hat=rho_hat)
    assert_matches_raster(image, mask, params, kind)


def test_set_up_runs_once_per_front(monkeypatch):
    # perfbench traces the set-up layers by these names in core's namespace
    calls, prior_calls = [], []

    def counting(ctx, params):
        calls.append(ctx.labels.shape)
        return build_weight_map(ctx, params)

    def counting_priors(M, alphas, bins):
        prior_calls.append(len(alphas))
        return build_prior_map(M, alphas, bins)

    monkeypatch.setattr(core, "build_weight_map", counting)
    monkeypatch.setattr(core, "build_prior_map", counting_priors)
    image, mask = make_case(13, 23, 0.3, 5)
    params = FsrParams(block_size=2, border=3, iterations=4)
    result = reconstruct_image(image, mask, params)
    k = -(-params.border // params.block_size) + 1
    row, col = np.divmod(np.arange(7 * 12), 12)
    front = col + k * row
    assert len(calls) == len(set(front))
    assert all(len(shape) == 3 for shape in calls)
    # every window holds data, so one prior call per front, on all its alphas
    assert result.fallback_blocks == []
    assert prior_calls == np.unique(front, return_counts=True)[1].tolist()
