"""Simple reference reconstructions: nearest-neighbor and linear fill.

The nearest-neighbour search scans integer lattice offsets around each
pixel, nearest first, when the samples are dense enough, and hands the
pixels it leaves, or all of them on a sparse mask, to a kd-tree.
scipy is imported on the first kd-tree query or triangulation, not at
module load, because FSR runs never use it.  Only ``scipy.spatial`` is
imported: the linear interpolant is evaluated here from the
triangulation's barycentric transform.

scipy builds ``Delaunay.transform`` lazily, one LAPACK factor, condition
estimate and solve per simplex, which was about a third of a ``lin``
call.  ``_barycentric_transform`` builds it with numpy instead, repeating
OpenBLAS's arithmetic so that it equals scipy's bit for bit, and ``lin``
hands it to scipy through the private cache ``Delaunay._transform``
before ``find_simplex``.  That arithmetic is the BLAS kernel's, chosen at
run time, so a probe compares both transforms once per process on a
fixed triangulation (``_numpy_transform_matches``, run by the first
``import_scipy``).  If they differ, if the cache cannot be set, or if a
sample coordinate reaches ``EXACT_BELOW`` = 2**20, ``lin`` leaves the
transform to scipy.
"""

from __future__ import annotations

import functools
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
# _barycentric_transform equals scipy's only for integer coordinates below this.
EXACT_BELOW = 2**20


def _scan_offsets(radius: int) -> NDArray[np.intp]:
    """(dr, dc) with 0 < dr^2 + dc^2 <= radius^2, sorted by (dr^2 + dc^2, dr, dc)."""
    dr, dc = np.mgrid[-radius : radius + 1, -radius : radius + 1].reshape(2, -1)
    d2 = dr * dr + dc * dc
    keep = (d2 > 0) & (d2 <= radius * radius)
    dr, dc, d2 = dr[keep], dc[keep], d2[keep]
    return np.stack([dr, dc], axis=1)[np.lexsort((dc, dr, d2))]


_OFFSETS = _scan_offsets(SCAN_RADIUS)


def import_scipy() -> ModuleType:
    """``scipy.spatial``, imported on the first call, which also runs the transform probe."""
    from scipy import spatial

    _numpy_transform_matches()
    return spatial


def _two_sum(a: NDArray[np.float64], b: NDArray[np.float64]):
    """``s = fl(a + b)`` and the exact rest ``a + b - s`` (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: NDArray[np.float64]):
    """Veltkamp's split of ``a`` into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _fma(a: NDArray[np.float64], b: NDArray[np.float64], c: NDArray[np.float64]):
    """``a * b + c`` rounded once, to nearest even, as a fused multiply-add.

    Boldo and Melquiond's emulation (IEEE Trans. Computers 57(4), 2008),
    proved correct in binary floating point barring overflow and
    underflow: Dekker's exact product ``ph + pl = a * b``, the exact sum
    ``sh + sl = c + ph``, then ``sl + pl`` rounded to odd, so that the last
    rounding, of ``sh`` plus that, is not a double rounding.  Exact while
    |a| and |b| stay below 2**995 and a nonzero |a * b| above 2**-969; in
    ``_barycentric_transform`` they lie within 2**-41 and 2**21.
    """
    ph = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    sh, sl = _two_sum(c, ph)
    v, rest = _two_sum(sl, pl)
    # round to odd: an inexact v with an even last bit steps once towards the rest
    even = (v.view(np.int64) & 1) == 0
    v = np.where((rest != 0) & even, np.nextafter(v, np.copysign(np.inf, rest)), v)
    return sh + v


def _barycentric_transform(points: NDArray[np.float64], simplices: NDArray) -> NDArray[np.float64]:
    """scipy's ``Delaunay.transform`` for integer ``points`` in [0, ``EXACT_BELOW``), bit for bit.

    Rows 0 and 1 of simplex k are T^-1, where T's columns are vertices 0
    and 1 minus vertex 2; row 2 is vertex 2.  scipy hands T's C buffer to
    LAPACK, which reads it as A = T^T (a row per vertex), factors it
    (getrf) and solves A X = I (getrs), and X^T = T^-1 is stored.  This
    repeats OpenBLAS's arithmetic in its order:

    - getf2 pivots on the first largest |A[:, 0]| (IAMAX) and scales by
      the pivot's reciprocal: ``l = other * (1 / pivot)``,
      ``u22 = b1 - l * b0``;
    - the unit-lower forward solve multiplies and subtracts, which on the
      columns of I is exact: y = (1, 0 - l) and (0, 1);
    - the back substitution multiplies by the reciprocal diagonal and
      fuses one multiply-add: ``x1 = y1 * (1 / u22)``,
      ``x0 = fma(-b0, x1, y0) * (1 / pivot)``.

    scipy fills a simplex with NaN when getrf meets a zero pivot or the
    reciprocal condition number rcond that gecon estimates is below
    1000 eps.  Here that is exactly the simplices with det T == 0.  The
    entries of T are integers of magnitude D < 2**20, so det T is exact
    (products below 2**40) and, if nonzero, at least 1 in magnitude; then
    ||T||_1 <= 2D and ||T^-1||_1 = ||adj T||_1 / |det T| <= 2D, so rcond
    >= 1 / (4 D**2) > 2**-42, 2.4% above 1000 eps.  gecon's estimate of
    ||T^-1||_1 is a lower bound up to the rounding of its solves, a
    relative error near cond(T) eps <= 2**-10, well inside that margin.
    A singular T is NaN in scipy whether getrf's u22 rounds to zero or to
    a rounding residue, whose rcond is then near eps.
    """
    vx, vy = np.take(points.T, simplices.T, axis=1)  # (3, n): vertex, simplex
    ax, ay = vx[:2] - vx[2], vy[:2] - vy[2]  # A's columns
    swap = np.abs(ax[1]) > np.abs(ax[0])  # IAMAX takes the first of equals
    pivot, other = np.where(swap, ax[::-1], ax)
    b0, b1 = np.where(swap, ay[::-1], ay)
    singular = pivot * b1 - b0 * other == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_pivot = 1.0 / pivot
        l = other * r_pivot
        r_u22 = 1.0 / (b1 - l * b0)
        # x for I's column of the pivot vertex, y = (1, 0 - l), and of the other,
        # y = (0, 1): there fma(-b0, x1, 0.0) is the rounded product plus 0.0
        x1 = (0.0 - l) * r_u22
        pivot_row = np.stack([_fma(-b0, x1, 1.0) * r_pivot, x1])
        other_row = np.stack([(-b0 * r_u22 + 0.0) * r_pivot, r_u22])
    out = np.empty((len(pivot), 3, 2))
    out[:, 0] = np.where(swap, other_row, pivot_row).T
    out[:, 1] = np.where(swap, pivot_row, other_row).T
    out[:, 2, 0], out[:, 2, 1] = vx[2], vy[2]
    out[singular] = np.nan
    return out


@functools.lru_cache(maxsize=None)
def _numpy_transform_matches() -> bool:
    """Whether ``_barycentric_transform`` can stand in for scipy's on this host.

    It must equal ``Delaunay.transform`` bit for bit on a fixed
    triangulation, and ``Delaunay.transform`` must return what is set in
    ``Delaunay._transform``.  The points are a flat parabola and one point
    on its axis; their thin triangles tell apart arithmetic orders that
    Delaunay triangulations of random masks do not (a fused factor update).
    """
    from scipy import spatial

    i = np.arange(-64, 65)
    points = np.concatenate([np.stack([i * i // 64, i + 64], axis=1), [[64, 64]]])
    tri = spatial.Delaunay(points.astype(np.float64))
    expected = tri.transform
    got = _barycentric_transform(tri.points, tri.simplices)
    try:
        tri._transform = got
    except AttributeError:  # a Delaunay without a settable cache
        return False
    return tri.transform is got and got.tobytes() == expected.tobytes()


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
    arithmetic in its order, so the bytes equal that interpolator's.  The
    barycentric transform that ``find_simplex`` and the interpolant read is
    ``_barycentric_transform``'s, set before ``find_simplex``, or scipy's
    own where the module docstring says; the two are equal bit for bit.
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
    if known_rc.max() < EXACT_BELOW and _numpy_transform_matches():
        tri._transform = _barycentric_transform(tri.points, tri.simplices)
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
