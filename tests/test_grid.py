import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fsrecon.grid import (
    AreaLabel,
    BlockContext,
    ImageGrid,
    SamplingMask,
    build_block_context,
    generate_mask,
    pad_planes,
)


class TestGenerateMask:
    def test_zero_density(self):
        mask = generate_mask(8, 8, 0.0, 123)
        assert np.count_nonzero(mask.flags) == 0

    def test_full_density(self):
        mask = generate_mask(8, 8, 1.0, 5)
        assert np.count_nonzero(mask.flags) == 64

    def test_exact_count_and_determinism(self):
        m1 = generate_mask(100, 100, 0.2, 7)
        m2 = generate_mask(100, 100, 0.2, 7)
        assert np.count_nonzero(m1.flags) == 2000
        assert np.array_equal(m1.flags, m2.flags)

    def test_different_seeds_differ(self):
        m1 = generate_mask(100, 100, 0.2, 7)
        m2 = generate_mask(100, 100, 0.2, 8)
        assert not np.array_equal(m1.flags, m2.flags)

    def test_density_out_of_range(self):
        with pytest.raises(ValueError):
            generate_mask(8, 8, 1.5, 0)

    def test_density_exactness(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, h = rng.integers(2, 40, size=2)
            d = rng.uniform(0, 1)
            mask = generate_mask(int(w), int(h), float(d), 0)
            assert abs(mask.density() - d) <= 1.0 / (w * h)


def _blank(h, w):
    return ImageGrid(np.zeros((h, w)))


def _context(img, mask, block_pos, block_size, border, recon=None):
    """Window of a block; ``recon`` marks pixels relabelled R in the planes."""
    labels, values = pad_planes(img, mask, block_size, border)
    if recon is not None:
        labels[border : border + img.height, border : border + img.width][recon] = AreaLabel.R
    M = block_size + 2 * border
    windows = sliding_window_view(labels, (M, M)), sliding_window_view(values, (M, M))
    return build_block_context(*windows, block_pos, block_size, border)


class TestBuildBlockContext:
    def test_windows_show_later_writes_to_the_planes(self):
        img = ImageGrid(np.arange(36.0).reshape(6, 6))
        mask = SamplingMask(np.zeros((6, 6), dtype=bool))
        labels, values = pad_planes(img, mask, 2, 1)
        windows = sliding_window_view(labels, (4, 4)), sliding_window_view(values, (4, 4))
        labels[3, 3], values[3, 3] = AreaLabel.R, 7.0
        ctx = build_block_context(*windows, (2, 2), 2, 1)
        assert ctx.labels[1, 1] == AreaLabel.R and ctx.values[1, 1] == 7.0
        assert np.count_nonzero(ctx.values) == 1
        labels[3, 3] = AreaLabel.B
        assert ctx.labels[1, 1] == AreaLabel.R  # the context keeps its own copy

    def test_top_left_block_outside_labels(self):
        img = ImageGrid(np.arange(64, dtype=float).reshape(8, 8))
        mask = SamplingMask(np.ones((8, 8), dtype=bool))
        ctx = _context(img, mask, (0, 0), 4, 14)
        # window rows/cols -14..17 relative to the image
        assert np.all(ctx.labels[:14, :] == AreaLabel.OUTSIDE)
        assert np.all(ctx.labels[:, :14] == AreaLabel.OUTSIDE)
        assert np.all(ctx.values[ctx.labels == AreaLabel.OUTSIDE] == 0)

    def test_all_known_interior_block(self):
        img = _blank(64, 64)
        mask = SamplingMask(np.ones((64, 64), dtype=bool))
        ctx = _context(img, mask, (16, 16), 4, 14)
        assert np.all(ctx.labels == AreaLabel.A)

    def test_all_unknown_first_block(self):
        img = _blank(64, 64)
        mask = SamplingMask(np.zeros((64, 64), dtype=bool))
        ctx = _context(img, mask, (16, 16), 4, 14)
        assert np.all(ctx.labels == AreaLabel.B)

    def test_label_partition(self):
        rng = np.random.default_rng(3)
        img = ImageGrid(rng.uniform(0, 255, (20, 20)))
        mask = SamplingMask(rng.random((20, 20)) < 0.5)
        recon = ~mask.flags & (rng.random((20, 20)) < 0.3)
        ctx = _context(img, mask, (8, 8), 4, 6, recon)
        counts = sum(np.count_nonzero(ctx.labels == lab) for lab in AreaLabel)
        assert counts == ctx.M * ctx.N

    def test_values_come_from_the_right_buffer(self):
        # every block of a ragged 10x7 image, so windows run past the
        # bottom and right edges into the whole-block padding
        rng = np.random.default_rng(4)
        H, W, B, b = 10, 7, 4, 3
        img = ImageGrid(rng.uniform(0, 255, (H, W)))
        mask = SamplingMask(rng.random((H, W)) < 0.4)
        recon = ~mask.flags & (rng.random((H, W)) < 0.5)
        fallback = ~mask.flags & ~recon & (rng.random((H, W)) < 0.5)
        recon_vals = rng.uniform(1, 255, (H, W))
        labels, values = pad_planes(img, mask, B, b)
        inside = np.s_[b : b + H, b : b + W]
        labels[inside][recon] = AreaLabel.R
        values[inside][recon | fallback] = recon_vals[recon | fallback]
        assert np.any(fallback)
        origins = [(r0, c0) for r0 in range(0, H, B) for c0 in range(0, W, B)]
        M = B + 2 * b
        windows = sliding_window_view(labels, (M, M)), sliding_window_view(values, (M, M))
        ctxs = [build_block_context(*windows, o, B, b) for o in origins]
        stacked = build_block_context(*windows, np.array(origins), B, b)
        assert stacked.labels.shape == (len(origins), B + 2 * b, B + 2 * b)
        assert np.array_equal(stacked.labels, [ctx.labels for ctx in ctxs])
        assert np.array_equal(stacked.values, [ctx.values for ctx in ctxs])
        kept = stacked.labels.copy(), [ctx.labels.copy() for ctx in ctxs]
        labels[inside] = AreaLabel.R  # the planes are relabelled after every front
        assert np.array_equal(stacked.labels, kept[0])
        assert all(np.array_equal(ctx.labels, k) for ctx, k in zip(ctxs, kept[1]))
        for (r0, c0), ctx in zip(origins, ctxs):
            assert ctx.labels.shape == (B + 2 * b, B + 2 * b)
            for m in range(ctx.M):
                for n in range(ctx.N):
                    r, c = r0 - b + m, c0 - b + n
                    if not (0 <= r < H and 0 <= c < W):
                        want = (AreaLabel.OUTSIDE, 0.0)
                    elif mask.flags[r, c]:
                        want = (AreaLabel.A, img.samples[r, c])
                    elif recon[r, c]:
                        want = (AreaLabel.R, recon_vals[r, c])
                    else:
                        want = (AreaLabel.B, 0.0)
                    assert (ctx.labels[m, n], ctx.values[m, n]) == want


class TestBlockContextChecks:
    def stack(self, F=3, M=8):
        labels = np.full((F, M, M), AreaLabel.A, dtype=np.uint8)
        labels[:, ::3] = AreaLabel.R
        return labels, np.random.default_rng(F).uniform(1, 255, (F, M, M))

    def test_shape_mismatch(self):
        labels, values = self.stack()
        with pytest.raises(ValueError, match="shapes differ"):
            BlockContext(4, 2, labels, values[:, :, :-1])
        with pytest.raises(ValueError, match="shapes differ"):
            BlockContext(4, 2, labels, values[0])

    def test_window_size(self):
        labels, values = self.stack()
        BlockContext(4, 2, labels, values)
        with pytest.raises(ValueError, match="square"):
            BlockContext(2, 2, labels, values)  # M = 8 != 2 + 2*2
        with pytest.raises(ValueError, match="square"):
            BlockContext(4, 2, labels[:, :, :6], values[:, :, :6])  # 8 x 6

    @pytest.mark.parametrize("label", [AreaLabel.B, AreaLabel.OUTSIDE])
    @pytest.mark.parametrize("value", [1.0, -1e-300, np.inf, np.nan])
    def test_nonzero_value_on_a_dead_position(self, label, value):
        labels, values = self.stack()
        labels[:, 1, :] = label
        values[:, 1, :] = 0.0
        values[2, 1, 5] = -0.0  # a signed zero is zero
        BlockContext(4, 2, labels, values)
        values[2, 1, 3] = value  # one position of the last window
        with pytest.raises(ValueError, match="zero on B/OUTSIDE"):
            BlockContext(4, 2, labels, values)
