"""Wavefront order reproduces raster order bit for bit.

``reconstruct_image`` runs the blocks of each wavefront as one stack.  The
loop below is the plain raster-order definition it must match: one block
at a time, each window seeing every raster-earlier block, and the
fallback value taken from the known samples of raster-earlier blocks.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsrecon import core
from fsrecon.core import reconstruct_block, reconstruct_image
from fsrecon.grid import (
    AreaLabel, ImageGrid, SamplingMask, build_block_context, pad_planes, plane_windows,
)
from fsrecon.weighting import FsrParams, PriorKind, build_weight_map


def raster_reconstruction(image, mask, params, block_fn):
    H, W = image.height, image.width
    B, b = params.block_size, params.border
    labels, out = pad_planes(image, mask, B, b)
    windows = plane_windows(labels, out, B + 2 * b)
    known = mask.flags
    global_mean = float(image.samples[known].mean()) if known.any() else 128.0
    seen_sum, seen_cnt = 0.0, 0
    fallback_blocks = []
    for r0 in range(0, H, B):
        for c0 in range(0, W, B):
            ctx = build_block_context(*windows, (r0, c0), B, b)
            fb = seen_sum / seen_cnt if seen_cnt else global_mean
            patch, used_fb = block_fn(ctx, params, fb)
            center = np.s_[r0 + b : r0 + b + B, c0 + b : c0 + b + B]
            fill = labels[center] == AreaLabel.B
            out[center][fill] = patch[fill]
            if used_fb:
                fallback_blocks.append((r0, c0))
            else:
                labels[center][fill] = AreaLabel.R
            blk_known = known[r0 : r0 + B, c0 : c0 + B]
            seen_sum += float(image.samples[r0 : r0 + B, c0 : c0 + B][blk_known].sum())
            seen_cnt += int(np.count_nonzero(blk_known))
    return out[b : b + H, b : b + W], fallback_blocks


def make_case(height, width, density, seed):
    rng = np.random.default_rng(seed)
    image = ImageGrid(rng.uniform(0, 255, (height, width)))
    return image, SamplingMask(rng.random((height, width)) < density)


def assert_matches_raster(image, mask, params):
    want, want_fallbacks = raster_reconstruction(image, mask, params, reconstruct_block)
    got = reconstruct_image(image, mask, params)
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
    kind=st.sampled_from(list(PriorKind)),
    seed=st.integers(0, 2**16),
)
@example(height=1, width=37, block_size=4, border=6, density=0.3, kind=PriorKind.ADAPTIVE, seed=1)
@example(height=5, width=3, block_size=2, border=8, density=0.3, kind=PriorKind.OTF, seed=2)
@example(height=40, width=40, block_size=2, border=3, density=0.01, kind=PriorKind.NONE, seed=3)
def test_wavefront_equals_raster_order(height, width, block_size, border, density, kind, seed):
    image, mask = make_case(height, width, density, seed)
    params = FsrParams(block_size=block_size, border=border, iterations=4, prior_kind=kind)
    assert_matches_raster(image, mask, params)


def test_set_up_runs_once_per_front(monkeypatch):
    # perfbench traces the set-up layers by these names in core's namespace
    calls = []

    def counting(ctx, params):
        calls.append(ctx.labels.shape)
        return build_weight_map(ctx, params)

    monkeypatch.setattr(core, "build_weight_map", counting)
    image, mask = make_case(13, 23, 0.3, 5)
    params = FsrParams(block_size=2, border=3, iterations=4)
    reconstruct_image(image, mask, params)
    k = -(-params.border // params.block_size) + 1
    row, col = np.divmod(np.arange(7 * 12), 12)
    assert len(calls) == len(set(col + k * row))
    assert all(len(shape) == 3 for shape in calls)
