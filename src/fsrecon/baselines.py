"""Simple reference reconstructions: nearest-neighbor and linear fill.

The nearest-neighbour search scans integer lattice offsets around each
pixel, nearest first, when the samples are dense enough, and hands the
pixels it leaves, or all of them on a sparse mask, to a kd-tree.
scipy is imported on the first kd-tree query or triangulation, not at
module load, because FSR runs never use it.  Only ``scipy.spatial`` is
imported: the linear interpolant is evaluated here from the
triangulation's own barycentric transform.
"""

from __future__ import annotations

import logging
from types import ModuleType

import numpy as np
from numpy.typing import NDArray

from .grid import ImageGrid, SamplingMask, check_inputs

log = logging.getLogger(__name__)

# The scan tries every lattice offset within this radius of a pixel; pixels
# with no sample that near go to the kd-tree.  Radii 6 to 12 were equally
# fast on 256x256 masks; the scan beats the kd-tree from density ~0.008 on.
SCAN_RADIUS = 8
# The scan runs only if (known samples / box area) x offsets reaches this:
# below it, most pixels walk every offset and then pay the kd-tree anyway.
SCAN_MIN_HITS = 1.5
# Neighbours the kd-tree fetches per pixel it searches (those the scan
# leaves, or all on a sparse mask) to find the ties at its nearest distance;
# few such pixels have more ties than this.
K_NEAREST = 6


def _scan_offsets(radius: int) -> NDArray[np.intp]:
    """(dr, dc) with 0 < dr^2 + dc^2 <= radius^2, sorted by (dr^2 + dc^2, dr, dc)."""
    dr, dc = np.mgrid[-radius : radius + 1, -radius : radius + 1].reshape(2, -1)
    d2 = dr * dr + dc * dc
    keep = (d2 > 0) & (d2 <= radius * radius)
    dr, dc, d2 = dr[keep], dc[keep], d2[keep]
    return np.stack([dr, dc], axis=1)[np.lexsort((dc, dr, d2))]


_OFFSETS = _scan_offsets(SCAN_RADIUS)


def import_scipy() -> ModuleType:
    """``scipy.spatial``, imported on the first call."""
    from scipy import spatial

    return spatial


def _nearest_known(known_rc: NDArray[np.intp], query_rc: NDArray[np.intp]) -> NDArray[np.intp]:
    """Row index into ``known_rc`` of each query pixel's nearest known sample.

    ``known_rc`` must be sorted by (row, col), as ``np.argwhere`` returns it,
    so among samples at equal distance the smallest index is the smallest
    (row, col).  Query pixels are not samples themselves.

    When the samples are dense enough (``SCAN_MIN_HITS``), a plane of sample
    indices over the bounding box of both sets, padded by ``SCAN_RADIUS`` and
    -1 off the samples, is read at each pixel plus each offset of
    ``_OFFSETS``, one gather over the pixels not yet resolved.  The offsets
    are sorted by (squared distance, dr, dc), so a pixel's first hit is its
    nearest sample and, among ties, the one of smallest (row, col): exact
    integer arithmetic, no distance compared.  Pixels with no sample within
    ``SCAN_RADIUS``, and every pixel of a sparser mask, go to ``_kd_nearest``.
    """
    lo = np.minimum(known_rc.min(axis=0), query_rc.min(axis=0))
    height, width = np.maximum(known_rc.max(axis=0), query_rc.max(axis=0)) - lo + 1
    if known_rc.shape[0] * len(_OFFSETS) < SCAN_MIN_HITS * height * width:
        return _kd_nearest(known_rc, query_rc)
    stride = width + 2 * SCAN_RADIUS
    plane = np.full((height + 2 * SCAN_RADIUS) * stride, -1, dtype=np.intp)
    plane[(known_rc - lo + SCAN_RADIUS) @ [stride, 1]] = np.arange(known_rc.shape[0])
    pos = (query_rc - lo + SCAN_RADIUS) @ [stride, 1]
    best = np.empty(query_rc.shape[0], dtype=np.intp)
    pending = np.arange(query_rc.shape[0])
    for step in (_OFFSETS @ [stride, 1]).tolist():
        hit = plane[pos + step]
        found = hit >= 0
        if found.any():
            best[pending[found]] = hit[found]
            left = ~found
            pending, pos = pending[left], pos[left]
            if not pending.size:
                return best
    best[pending] = _kd_nearest(known_rc, query_rc[pending])
    return best


def _kd_nearest(known_rc: NDArray[np.intp], query_rc: NDArray[np.intp]) -> NDArray[np.intp]:
    """``_nearest_known`` by a kd-tree, for any distance.

    A kd-tree query returns the ``K_NEAREST`` nearest samples; squared
    distances are exact integers and sqrt is correctly rounded, so ``==``
    against the nearest distance finds exactly the ties among them.

    A row whose last column still ties may have more ties beyond it; a ball
    query of radius d + 1e-9 then returns every sample tied at d.  The margin
    cannot admit a farther sample: the next distance past d = sqrt(n) is
    sqrt(n + 1) >= d + 1 / (2 sqrt(n + 1)), about 1.4e-3 further out on a
    256x256 image and 3.5e-6 on a side of 1e5 pixels.  At that size the
    rounding of d is below 2e-11, so the margin still holds every sample
    tied at d.
    """
    tree = import_scipy().cKDTree(known_rc)
    k = min(K_NEAREST, known_rc.shape[0])
    dist, idx = tree.query(query_rc, k=list(range(1, k + 1)))
    tied = dist == dist[:, :1]
    best = np.where(tied, idx, known_rc.shape[0]).min(axis=1)
    more = tied[:, -1] & (k < known_rc.shape[0])  # every sample seen: nothing beyond
    if more.any():
        ties = tree.query_ball_point(query_rc[more], dist[more, 0] + 1e-9)
        best[more] = np.fromiter(map(min, ties), dtype=np.intp, count=len(ties))
    return best


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
    The interpolant repeats ``scipy.interpolate.LinearNDInterpolator``'s
    arithmetic in its order, so the bytes equal that interpolator's.
    """
    known_vals = check_inputs(image, mask)
    unknown = ~mask.flags
    if not unknown.any():
        return ImageGrid(image.samples.copy())
    known_rc = np.argwhere(mask.flags)
    spatial = import_scipy()
    try:
        tri = spatial.Delaunay(known_rc.astype(np.float64))
    except (spatial.QhullError, ValueError):  # under 3 samples, collinear or none
        nn = nearest_neighbor_fill(image, mask)  # raises, before the warning, on none
        log.warning("fewer than 3 or collinear known samples; using nearest-neighbor fill")
        return nn
    unknown_rc = np.argwhere(unknown)
    pts = unknown_rc.astype(np.float64)
    simplex = tri.find_simplex(pts)
    inside = simplex >= 0
    # scipy's accumulators start at 0.0, which turns a -0.0 product into +0.0
    t = tri.transform[simplex[inside]]  # (n, 3, 2): inverse map, then vertex 2
    d = pts[inside] - t[:, 2]
    c0 = (0.0 + t[:, 0, 0] * d[:, 0]) + t[:, 0, 1] * d[:, 1]
    c1 = (0.0 + t[:, 1, 0] * d[:, 0]) + t[:, 1, 1] * d[:, 1]
    v = known_vals[tri.simplices[simplex[inside]]]
    vals = np.full(len(pts), np.nan)
    vals[inside] = ((0.0 + c0 * v[:, 0]) + c1 * v[:, 1]) + ((1.0 - c0) - c1) * v[:, 2]
    outside = np.isnan(vals)
    if outside.any():
        vals[outside] = known_vals[_nearest_known(known_rc, unknown_rc[outside])]
    out = image.samples.copy()
    out[unknown] = vals
    return ImageGrid(out)
