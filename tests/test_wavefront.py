"""Wavefront order reproduces raster order bit for bit.

``reconstruct_image`` runs the blocks of each wavefront as one stack.  The
loop below is the plain raster-order definition it must match: one block
at a time, each window seeing every raster-earlier block, and the
fallback value taken from the known samples of raster-earlier blocks.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsrecon.core import reconstruct_block, reconstruct_block_reference, reconstruct_image
from fsrecon.grid import ImageGrid, SamplingMask, build_block_context
from fsrecon.weighting import FsrParams, PriorKind


def raster_reconstruction(image, mask, params, block_fn):
    H, W = image.height, image.width
    B = params.block_size
    out = np.where(mask.flags, image.samples, 0.0)
    recon_map = np.zeros((H, W), dtype=bool)
    known = mask.flags
    global_mean = float(image.samples[known].mean()) if known.any() else 128.0
    seen_sum, seen_cnt = 0.0, 0
    fallback_blocks = []
    for r0 in range(0, H, B):
        for c0 in range(0, W, B):
            ctx = build_block_context(image, mask, recon_map, out, (r0, c0), B, params.border)
            fb = seen_sum / seen_cnt if seen_cnt else global_mean
            patch, used_fb = block_fn(ctx, params, fb)
            r1, c1 = min(r0 + B, H), min(c0 + B, W)
            blk_known = known[r0:r1, c0:c1]
            fill = ~blk_known
            out[r0:r1, c0:c1][fill] = patch[: r1 - r0, : c1 - c0][fill]
            if used_fb:
                fallback_blocks.append((r0, c0))
            else:
                recon_map[r0:r1, c0:c1][fill] = True
            seen_sum += float(image.samples[r0:r1, c0:c1][blk_known].sum())
            seen_cnt += int(np.count_nonzero(blk_known))
    return out, fallback_blocks


def make_case(height, width, density, seed):
    rng = np.random.default_rng(seed)
    image = ImageGrid(rng.uniform(0, 255, (height, width)))
    return image, SamplingMask(rng.random((height, width)) < density)


def assert_matches_raster(image, mask, params, reference=False):
    block_fn = reconstruct_block_reference if reference else reconstruct_block
    want, want_fallbacks = raster_reconstruction(image, mask, params, block_fn)
    got = reconstruct_image(image, mask, params, reference=reference)
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


@pytest.mark.parametrize("kind", list(PriorKind))
def test_reference_wavefront_equals_raster_order(kind):
    image, mask = make_case(13, 11, 0.3, 7)
    params = FsrParams(block_size=2, border=3, iterations=4, prior_kind=kind)
    assert_matches_raster(image, mask, params, reference=True)
