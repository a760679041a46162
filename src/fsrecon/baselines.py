"""Simple reference reconstructions: nearest-neighbor and linear fill."""

from __future__ import annotations

import logging

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import LinearNDInterpolator
from scipy.spatial import Delaunay, QhullError, cKDTree

from .grid import ImageGrid, SamplingMask, check_inputs

log = logging.getLogger(__name__)


def _nearest_known(known_rc: NDArray[np.intp], query_rc: NDArray[np.intp]) -> NDArray[np.intp]:
    """Row index into ``known_rc`` of each query pixel's nearest known sample.

    ``known_rc`` must be sorted by (row, col), as ``np.argwhere`` returns it,
    so among samples at equal distance the smallest index is the smallest
    (row, col).  An exact kd-tree query gives the nearest distance d; a ball
    query of radius d + 1e-9 then returns every sample tied at d.  The margin
    cannot admit a farther sample: squared distances are integers, so the
    next distance past d = sqrt(n) is sqrt(n + 1) >= d + 1 / (2 sqrt(n + 1)),
    about 1.4e-3 further out on a 256x256 image and 3.5e-6 on a side of 1e5
    pixels.  At that size the rounding of d is below 2e-11, so the margin
    still holds every sample tied at d.
    """
    tree = cKDTree(known_rc)
    dist, _ = tree.query(query_rc, k=1)
    ties = tree.query_ball_point(query_rc, dist + 1e-9)
    return np.fromiter(map(min, ties), dtype=np.intp, count=len(ties))


def nearest_neighbor_fill(image: ImageGrid, mask: SamplingMask) -> ImageGrid:
    """Fill each unknown pixel with its Euclidean-nearest known sample.

    Exact search; ties go to the smallest (row, col).
    """
    known_vals = check_inputs(image, mask)
    known_rc = np.argwhere(mask.flags)  # sorted by (row, col), as known_vals
    if known_rc.shape[0] == 0:
        raise ValueError("mask holds no known samples")
    out = image.samples.copy()
    unknown = ~mask.flags
    if unknown.any():
        out[unknown] = known_vals[_nearest_known(known_rc, np.argwhere(unknown))]
    return ImageGrid(out)


def linear_triangulation_fill(image: ImageGrid, mask: SamplingMask) -> ImageGrid:
    """Barycentric-linear interpolation over a Delaunay triangulation.

    Pixels outside the convex hull of the known samples take the
    nearest-neighbor value.  Degenerate sample sets (fewer than three
    points, or all collinear) fall back to nearest-neighbor entirely.
    """
    known_rc = np.argwhere(mask.flags)
    # each fallback validates the inputs in nearest_neighbor_fill, and
    # raises there, before the warning, on bad inputs or an empty mask
    if known_rc.shape[0] < 3:
        nn = nearest_neighbor_fill(image, mask)
        log.warning("fewer than 3 known samples; using nearest-neighbor fill")
        return nn
    try:
        tri = Delaunay(known_rc.astype(np.float64))
    except QhullError:
        nn = nearest_neighbor_fill(image, mask)
        log.warning("degenerate (collinear) samples; using nearest-neighbor fill")
        return nn
    known_vals = check_inputs(image, mask)
    unknown = ~mask.flags
    unknown_rc = np.argwhere(unknown)
    vals = LinearNDInterpolator(tri, known_vals)(unknown_rc.astype(np.float64))
    outside = np.isnan(vals)
    if outside.any():
        vals[outside] = known_vals[_nearest_known(known_rc, unknown_rc[outside])]
    out = image.samples.copy()
    out[unknown] = vals
    return ImageGrid(out)
