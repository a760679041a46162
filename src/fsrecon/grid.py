"""Image buffers, sampling masks, and block geometry.

Each block to be reconstructed is embedded in a larger square window (the
extrapolation area) whose pixels are partitioned into originally known
samples (A), unknown samples (B), samples reconstructed by previously
processed blocks (R), and positions beyond the image bounds (OUTSIDE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from numpy.typing import NDArray


class AreaLabel(IntEnum):
    A = 0        # originally known sample
    B = 1        # unknown sample
    R = 2        # previously reconstructed sample
    OUTSIDE = 3  # beyond image bounds


@dataclass(frozen=True)
class ImageGrid:
    """A 2D scalar sample field on a regular grid.

    Samples are stored row-major as float64 in [0, 255] for 8-bit sources.
    Multi-channel images are handled as independent grids.
    """

    samples: NDArray[np.float64]

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"samples must be a non-empty 2D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SamplingMask:
    """Per-pixel availability flags; True means the sample is known."""

    flags: NDArray[np.bool_]

    def __post_init__(self):
        arr = np.asarray(self.flags, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"flags must be a non-empty 2D array, got shape {arr.shape}")
        object.__setattr__(self, "flags", arr)

    @property
    def height(self) -> int:
        return self.flags.shape[0]

    @property
    def width(self) -> int:
        return self.flags.shape[1]

    def density(self) -> float:
        return float(np.count_nonzero(self.flags)) / self.flags.size


@dataclass(frozen=True)
class BlockContext:
    """One extrapolation area: an M x N window around the block to rebuild.

    ``origin`` is the image coordinate (row, col) of the top-left pixel of
    the center block.  The window spans image rows
    ``origin[0] - border .. origin[0] + block_size + border - 1`` and the
    analogous columns; positions outside the image carry the OUTSIDE label.
    ``values`` is zero wherever the label is B or OUTSIDE.
    """

    origin: tuple[int, int]
    block_size: int
    border: int
    labels: NDArray[np.uint8]
    values: NDArray[np.float64] = field(repr=False)

    def __post_init__(self):
        M, N = self.labels.shape
        if self.values.shape != (M, N):
            raise ValueError("labels and values shapes differ")
        if M != self.block_size + 2 * self.border or M != N:
            raise ValueError("window must be square with M = block_size + 2*border")
        dead = (self.labels == AreaLabel.B) | (self.labels == AreaLabel.OUTSIDE)
        if np.any(self.values[dead] != 0.0):
            raise ValueError("values must be zero on B/OUTSIDE positions")

    @property
    def M(self) -> int:
        return self.labels.shape[0]

    @property
    def N(self) -> int:
        return self.labels.shape[1]


def generate_mask(width: int, height: int, density: float, seed: int) -> SamplingMask:
    """Draw a uniform random mask with exactly round(density*W*H) known pixels.

    Deterministic: identical arguments always yield a bit-identical mask.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    n_pixels = width * height
    n_known = round(density * n_pixels)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_pixels, size=n_known, replace=False)
    flags = np.zeros(n_pixels, dtype=bool)
    flags[chosen] = True
    return SamplingMask(flags.reshape(height, width))


def check_inputs(image: ImageGrid, mask: SamplingMask) -> NDArray[np.float64]:
    """Validate an image and its mask; return the known samples in raster order.

    Rejects a mask whose size differs from the image and any known sample
    outside [0, 255].
    """
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError("image and mask dimensions differ")
    known = image.samples[mask.flags]
    if known.size and (known.min() < 0.0 or known.max() > 255.0):
        raise ValueError("known samples must lie in [0, 255]")
    return known


def build_block_context(
    image: ImageGrid,
    mask: SamplingMask,
    recon_map: NDArray[np.bool_],
    recon_values: NDArray[np.float64],
    block_pos: tuple[int, int],
    block_size: int,
    border: int,
) -> BlockContext:
    """Assemble the extrapolation area for the block anchored at ``block_pos``.

    ``recon_map`` marks pixels filled by previously processed blocks (true
    only where the mask is false); ``recon_values`` holds their values.
    """
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError("image and mask dimensions differ")
    if recon_map.shape != image.samples.shape:
        raise ValueError("recon_map dimensions differ from image")

    M = block_size + 2 * border
    r0 = block_pos[0] - border
    c0 = block_pos[1] - border

    labels = np.full((M, M), AreaLabel.OUTSIDE, dtype=np.uint8)
    values = np.zeros((M, M), dtype=np.float64)

    # intersection of the window with the image
    ri0, ri1 = max(r0, 0), min(r0 + M, image.height)
    ci0, ci1 = max(c0, 0), min(c0 + M, image.width)
    if ri0 < ri1 and ci0 < ci1:
        wr = slice(ri0 - r0, ri1 - r0)
        wc = slice(ci0 - c0, ci1 - c0)
        sub_mask = mask.flags[ri0:ri1, ci0:ci1]
        sub_recon = recon_map[ri0:ri1, ci0:ci1]
        lab = np.full(sub_mask.shape, AreaLabel.B, dtype=np.uint8)
        lab[sub_recon] = AreaLabel.R
        lab[sub_mask] = AreaLabel.A
        labels[wr, wc] = lab
        val = np.zeros(sub_mask.shape, dtype=np.float64)
        val[sub_recon] = recon_values[ri0:ri1, ci0:ci1][sub_recon]
        val[sub_mask] = image.samples[ri0:ri1, ci0:ci1][sub_mask]
        values[wr, wc] = val

    return BlockContext(
        origin=tuple(block_pos),
        block_size=block_size,
        border=border,
        labels=labels,
        values=values,
    )
