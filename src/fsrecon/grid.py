"""Image buffers, sampling masks, and block geometry.

Each block to be reconstructed is embedded in a larger square window (the
extrapolation area) whose pixels are partitioned into originally known
samples (A), unknown samples (B), samples reconstructed by previously
processed blocks (R), and positions beyond the image bounds (OUTSIDE).
The image under reconstruction is held as a label plane and a value plane,
padded with OUTSIDE so that every window is a plain slice of both; the
windows of a wavefront are gathered from them as one (F, M, M) stack.
The geometry, block size B and border b with M = B + 2b, lives only in
``FsrParams``; a window carries its pixels and nothing else.
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
    """Extrapolation areas: M x M windows around the blocks to rebuild.

    ``labels`` and ``values`` are one (M, M) window or a stack of them
    with leading axes.  Positions outside the image carry the OUTSIDE
    label.  ``values`` is finite, and zero wherever the label is B or
    OUTSIDE.  The window holds no geometry: the reconstruction reads the
    block size and border from its ``FsrParams`` and rejects a window
    whose side M is not their ``window_size``.
    """

    labels: NDArray[np.uint8]
    values: NDArray[np.float64] = field(repr=False)

    def __post_init__(self):
        if self.values.shape != self.labels.shape:
            raise ValueError("labels and values shapes differ")
        if self.labels.ndim < 2 or self.labels.shape[-2] != self.labels.shape[-1]:
            raise ValueError(f"window must be square, got shape {self.labels.shape}")
        dead = (self.labels == AreaLabel.B.value) | (self.labels == AreaLabel.OUTSIDE.value)
        if np.any(dead & (self.values != 0.0)):  # NaN != 0.0, so NaN is rejected too
            raise ValueError("values must be zero on B/OUTSIDE positions")
        if not np.isfinite(self.values).all():  # what is left lies on A or R
            raise ValueError("values must be finite")


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
    if image.samples.shape != mask.flags.shape:
        raise ValueError(
            f"image {image.samples.shape} and mask {mask.flags.shape} dimensions differ"
        )
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
    (r + border, c + border).  Planes that numpy cannot allocate raise a
    ValueError naming ``block_size``, ``border`` and the planned shape.
    """
    H, W = image.height, image.width
    shape = (-(-H // block_size) * block_size + 2 * border,
             -(-W // block_size) * block_size + 2 * border)
    try:
        labels = np.full(shape, AreaLabel.OUTSIDE, dtype=np.uint8)
        values = np.zeros(shape)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise ValueError(
            f"cannot allocate padded planes of shape {shape} for block_size {block_size}"
            f" and border {border}: {exc}"
        ) from None
    inside = np.s_[border : border + H, border : border + W]
    labels[inside] = np.where(mask.flags, AreaLabel.A, AreaLabel.B)
    values[inside] = np.where(mask.flags, image.samples, 0.0)
    return labels, values


def build_block_context(
    labels: NDArray[np.uint8],
    values: NDArray[np.float64],
    origins: tuple[int, int] | NDArray[np.intp],
) -> BlockContext:
    """The extrapolation areas of the blocks at image positions ``origins``.

    One ``(r0, c0)`` pair gives one (M, M) window, an (F, 2) array a stack
    of F.  ``labels`` and ``values`` are ``sliding_window_view``s of planes
    from ``pad_planes`` in which the pixels of earlier blocks may be
    relabelled R; values at B positions, such as fallback fills, read as
    zero.  The labels are a copy, so relabelling the planes later leaves
    the context unchanged.  The window side M is the views' window shape;
    ``reconstruct_image`` cuts them at ``FsrParams.window_size``, the one
    record of the geometry.
    """
    r, c = np.asarray(origins).T
    lab = np.array(labels[r, c])
    data = (lab == AreaLabel.A.value) | (lab == AreaLabel.R.value)
    vals = np.where(data, values[r, c], 0.0)
    return BlockContext(lab, vals)
