"""Image buffers, sampling masks, and block geometry.

Each block to be reconstructed is embedded in a larger square window (the
extrapolation area) whose pixels are partitioned into originally known
samples (A), unknown samples (B), samples reconstructed by previously
processed blocks (R), and positions beyond the image bounds (OUTSIDE).
The image under reconstruction is held as a label plane and a value plane,
padded with OUTSIDE so that every window is a plain slice of both; the
windows of a wavefront are gathered from them as one (F, M, N) stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from numpy.typing import NDArray


class AreaLabel(IntEnum):
    # per-front array code compares with .value: numpy compares a uint8
    # array with a plain int about 8x faster than with a member
    A = 0        # originally known sample
    B = 1        # unknown sample
    R = 2        # previously reconstructed sample
    OUTSIDE = 3  # beyond image bounds


@dataclass(frozen=True)
class ImageGrid:
    """A 2D scalar sample field on a regular grid.

    Samples are stored row-major as float64 in [0, 255] for 8-bit sources.
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
    """Extrapolation areas: M x N windows around the blocks to rebuild.

    ``labels`` and ``values`` are one (M, N) window or a stack of them
    with leading axes; M and N are the last two.  The center block starts
    at window position ``(border, border)``; positions outside the image
    carry the OUTSIDE label.  ``values`` is zero wherever the label is B or
    OUTSIDE.
    """

    block_size: int
    border: int
    labels: NDArray[np.uint8]
    values: NDArray[np.float64] = field(repr=False)

    def __post_init__(self):
        M, N = self.labels.shape[-2:]
        if self.values.shape != self.labels.shape:
            raise ValueError("labels and values shapes differ")
        if M != self.block_size + 2 * self.border or M != N:
            raise ValueError("window must be square with M = block_size + 2*border")
        dead = (self.labels == AreaLabel.B.value) | (self.labels == AreaLabel.OUTSIDE.value)
        if np.any(dead & (self.values != 0.0)):  # NaN != 0.0, so NaN is rejected too
            raise ValueError("values must be zero on B/OUTSIDE positions")

    @property
    def M(self) -> int:
        return self.labels.shape[-2]

    @property
    def N(self) -> int:
        return self.labels.shape[-1]


def generate_mask(width: int, height: int, density: float, seed: int) -> SamplingMask:
    """Draw a uniform random mask with exactly round(density*W*H) known pixels.

    Deterministic: identical arguments always yield a bit-identical mask.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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


def pad_planes(
    image: ImageGrid, mask: SamplingMask, block_size: int, border: int
) -> tuple[NDArray[np.uint8], NDArray[np.float64]]:
    """Label and value planes of an image: A/B labels and the known samples.

    Both are padded with OUTSIDE and zero, by ``border`` on every side and
    further to whole blocks at the bottom and right, so the window of every
    block is a slice.  Image pixel (r, c) sits at plane position
    (r + border, c + border).
    """
    H, W = image.height, image.width
    shape = (-(-H // block_size) * block_size + 2 * border,
             -(-W // block_size) * block_size + 2 * border)
    labels = np.full(shape, AreaLabel.OUTSIDE, dtype=np.uint8)
    values = np.zeros(shape)
    inside = np.s_[border : border + H, border : border + W]
    labels[inside] = np.where(mask.flags, AreaLabel.A, AreaLabel.B)
    values[inside] = np.where(mask.flags, image.samples, 0.0)
    return labels, values


def build_block_context(
    labels: NDArray[np.uint8],
    values: NDArray[np.float64],
    origins: tuple[int, int] | NDArray[np.intp],
    block_size: int,
    border: int,
) -> BlockContext:
    """The extrapolation areas of the blocks at image positions ``origins``.

    One ``(r0, c0)`` pair gives one (M, N) window, an (F, 2) array a stack
    of F.  ``labels`` and ``values`` are ``sliding_window_view``s of planes
    from ``pad_planes`` in which the pixels of earlier blocks may be
    relabelled R; values at B positions, such as fallback fills, read as
    zero.  The labels are a copy, so relabelling the planes later leaves
    the context unchanged.
    """
    r, c = np.asarray(origins).T
    lab = np.array(labels[r, c])
    data = (lab == AreaLabel.A.value) | (lab == AreaLabel.R.value)
    vals = np.where(data, values[r, c], 0.0)
    return BlockContext(block_size, border, lab, vals)
