"""Simple reference reconstructions: nearest-neighbor and linear fill."""

from __future__ import annotations

import logging

import numpy as np
from scipy.interpolate import LinearNDInterpolator
from scipy.spatial import QhullError

from .grid import ImageGrid, SamplingMask, check_inputs

log = logging.getLogger(__name__)


def nearest_neighbor_fill(image: ImageGrid, mask: SamplingMask) -> ImageGrid:
    """Fill each unknown pixel with its Euclidean-nearest known sample.

    Exact integer distances; ties go to the smallest (row, col).
    """
    known_vals = check_inputs(image, mask)
    known_rc = np.argwhere(mask.flags)  # sorted by (row, col), as known_vals
    if known_rc.shape[0] == 0:
        raise ValueError("mask holds no known samples")
    unknown_rc = np.argwhere(~mask.flags)
    out = image.samples.copy()
    kr = known_rc[:, 0].astype(np.int64)
    kc = known_rc[:, 1].astype(np.int64)
    # chunked exact squared distances; argmin picks the first (smallest
    # (row, col)) among ties because known_rc is lexicographically sorted
    chunk = max(1, (1 << 22) // known_rc.shape[0])
    for i in range(0, unknown_rc.shape[0], chunk):
        sub = unknown_rc[i : i + chunk].astype(np.int64)
        d2 = (sub[:, :1] - kr[None, :]) ** 2 + (sub[:, 1:] - kc[None, :]) ** 2
        nearest = np.argmin(d2, axis=1)
        out[sub[:, 0], sub[:, 1]] = known_vals[nearest]
    return ImageGrid(out)


def linear_triangulation_fill(image: ImageGrid, mask: SamplingMask) -> ImageGrid:
    """Barycentric-linear interpolation over a Delaunay triangulation.

    Pixels outside the convex hull of the known samples fall back to the
    nearest-neighbor value.  Degenerate sample sets (fewer than three
    points, or all collinear) fall back to nearest-neighbor entirely.
    """
    known_vals = check_inputs(image, mask)
    known_rc = np.argwhere(mask.flags)
    nn = nearest_neighbor_fill(image, mask)  # raises on a mask without samples
    if known_rc.shape[0] < 3:
        log.warning("fewer than 3 known samples; using nearest-neighbor fill")
        return nn
    try:
        interp = LinearNDInterpolator(known_rc.astype(np.float64), known_vals)
    except QhullError:
        log.warning("degenerate (collinear) samples; using nearest-neighbor fill")
        return nn
    unknown_rc = np.argwhere(~mask.flags)
    vals = interp(unknown_rc.astype(np.float64))
    inside = ~np.isnan(vals)  # outside the hull the nearest-neighbor value stays
    out = nn.samples.copy()
    out[unknown_rc[inside, 0], unknown_rc[inside, 1]] = vals[inside]
    return ImageGrid(out)
