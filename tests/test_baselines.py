import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import LinearNDInterpolator
from scipy.spatial import QhullError

from fsrecon import baselines
from fsrecon.baselines import linear_triangulation_fill, nearest_neighbor_fill
from fsrecon.grid import ImageGrid, SamplingMask, generate_mask


def brute_force_nn(image, mask):
    """Every (unknown, known) squared distance; argmin takes the first of the
    ties, which is the smallest (row, col) because known is (row, col) sorted."""
    known = np.argwhere(mask.flags)
    unknown = np.argwhere(~mask.flags)
    out = image.samples.copy()
    d2 = (unknown[:, :1] - known[None, :, 0]) ** 2 + (unknown[:, 1:] - known[None, :, 1]) ** 2
    out[~mask.flags] = image.samples[mask.flags][np.argmin(d2, axis=1)]
    return out


def brute_force_lin(image, mask):
    """Delaunay interpolant inside the hull, brute-force nearest neighbour elsewhere."""
    known = np.argwhere(mask.flags)
    out = brute_force_nn(image, mask)
    if known.shape[0] < 3:
        return out
    try:
        interp = LinearNDInterpolator(known.astype(np.float64), image.samples[mask.flags])
    except QhullError:
        return out
    unknown = np.argwhere(~mask.flags)
    vals = interp(unknown.astype(np.float64))
    inside = ~np.isnan(vals)
    out[unknown[inside, 0], unknown[inside, 1]] = vals[inside]
    return out


def tie_heavy_mask(kind, height, width, stride, density, seed):
    rng = np.random.default_rng(seed)
    flags = np.zeros((height, width), dtype=bool)
    if kind == "grid":
        flags[rng.integers(stride) :: stride, rng.integers(stride) :: stride] = True
    elif kind == "corners":
        flags[0, 0] = flags[-1, -1] = True
    elif kind == "anti-corners":
        flags[0, -1] = flags[-1, 0] = True
    elif kind == "all-but-one":
        flags[:] = True
        flags[rng.integers(height), rng.integers(width)] = False
    elif kind == "row":
        flags[rng.integers(height), :] = True
    elif kind == "column":
        flags[:, rng.integers(width)] = True
    elif kind == "random":
        flags = rng.random((height, width)) < density
    if not flags.any():  # "single", and masks drawn empty
        flags[rng.integers(height), rng.integers(width)] = True
    return SamplingMask(flags)


def assert_both_match_brute_force(image, mask):
    got = nearest_neighbor_fill(image, mask).samples
    assert got.tobytes() == brute_force_nn(image, mask).tobytes()
    got = linear_triangulation_fill(image, mask).samples
    assert got.tobytes() == brute_force_lin(image, mask).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(
        ["grid", "corners", "anti-corners", "single", "all-but-one", "row", "column", "random"]
    ),
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    stride=st.integers(2, 5),
    density=st.floats(0.005, 0.99),
    seed=st.integers(0, 2**16),
)
def test_tie_heavy_masks_match_brute_force(kind, height, width, stride, density, seed):
    image = ImageGrid(np.random.default_rng(seed).uniform(0, 255, (height, width)))
    assert_both_match_brute_force(image, tie_heavy_mask(kind, height, width, stride, density, seed))


@pytest.mark.parametrize("density", [0.01, 0.1, 0.3, 0.8])
def test_64x64_matches_brute_force(density):
    image = ImageGrid(np.random.default_rng(9).uniform(0, 255, (64, 64)))
    assert_both_match_brute_force(image, generate_mask(64, 64, density, 9))


# the 12 lattice offsets at squared distance 25, in (row, col) order
RING_25 = [(r, c) for r in range(-5, 6) for c in range(-5, 6) if r * r + c * c == 25]


def ring_mask(h, w, center, offsets):
    flags = np.zeros((h, w), dtype=bool)
    for dr, dc in offsets:
        flags[center[0] + dr, center[1] + dc] = True
    return SamplingMask(flags)


@pytest.mark.parametrize(
    "height, width, center", [(11, 14, (5, 7)), (12, 13, (5, 5)), (13, 11, (7, 5)), (24, 19, (9, 11))]
)
def test_more_ties_than_k_nearest_match_brute_force(height, width, center):
    """Every pixel outside a disk is known, so the center has the 12 samples of
    RING_25 at its nearest distance, more than K_NEAREST.  The mask is dense,
    so the lattice scan resolves every pixel; the kd-tree tail and its ball
    query are tested by test_scan_and_kd_tail_match_brute_force."""
    assert len(RING_25) > baselines.K_NEAREST
    rows, cols = np.mgrid[0:height, 0:width]
    flags = (rows - center[0]) ** 2 + (cols - center[1]) ** 2 >= 25
    image = ImageGrid(np.random.default_rng(13).uniform(0, 255, (height, width)))
    assert_both_match_brute_force(image, SamplingMask(flags))


def squared_distance(height, width, center):
    rows, cols = np.mgrid[0:height, 0:width]
    return (rows - center[0]) ** 2 + (cols - center[1]) ** 2


def ring(height, width, center, d2s):
    """Samples at the given squared distances from ``center``, nothing else."""
    return np.isin(squared_distance(height, width, center), d2s)


def cells(height, width, *rcs):
    flags = np.zeros((height, width), dtype=bool)
    flags[tuple(np.transpose(rcs))] = True
    return flags


def edges(height, width):
    flags = np.zeros((height, width), dtype=bool)
    flags[::2, 0] = flags[1::2, -1] = True  # rows ``width`` apart in flat order
    flags[0, ::3] = flags[-1, 1::3] = True
    return flags


def random_flags(height, width, density, seed):
    return np.random.default_rng(seed).random((height, width)) < density


def scans(flags):
    """Whether ``_nearest_known`` scans lattice offsets before the kd-tree."""
    return flags.sum() * len(baselines._OFFSETS) >= baselines.SCAN_MIN_HITS * flags.size


# name: (flags, whether the kd-tree tail gets the center pixel, whether the scan runs)
SCAN_AND_TAIL = {
    # 16 ties at d^2 = 85, beyond the scan radius: the center ends in the
    # ball query, after the scan (21x21) or without it (61x61)
    "ring-85-scanned": (ring(21, 21, (10, 10), [85]), True, True),
    "ring-85-unscanned": (ring(61, 61, (30, 30), [85]), True, False),
    # dense: the scan resolves the pixels outside, the kd-tree those inside
    # the disk; the center's 6 nearest as the tree returns them miss its
    # winner, which only the ball query finds
    "disk-65": (squared_distance(25, 27, (12, 13)) >= 65, True, True),
    "disk-85": (squared_distance(21, 21, (10, 10)) >= 85, True, True),
    # 4 ties at d^2 = 64, the scan's last distance; 16 at d^2 = 65, just past it
    "ring-64": (ring(17, 19, (8, 9), [64]), False, True),
    "ring-65": (ring(19, 19, (9, 9), [65]), True, True),
    "rings-64-65": (ring(19, 21, (9, 10), [64, 65]), False, True),
    # samples on the four edges: queries at corners and borders, and offsets
    # that would wrap from one row into the next without the padding
    "edges": (edges(30, 20), None, True),
    "corners": (cells(12, 17, (0, 0), (11, 16)), None, True),
    "one-row": (random_flags(1, 60, 0.1, 1), None, True),
    "one-column": (random_flags(60, 1, 0.1, 2), None, True),
    # the density switch: 1.5 / 196 is about 0.0077
    "below-switch": (random_flags(64, 64, 0.006, 3), None, False),
    "above-switch": (random_flags(64, 64, 0.012, 4), None, True),
}


@pytest.mark.parametrize("name", SCAN_AND_TAIL)
def test_scan_and_kd_tail_match_brute_force(name, monkeypatch):
    flags, center_in_tail, scanned = SCAN_AND_TAIL[name]
    assert scans(flags) == scanned
    tail = []
    kd_nearest = baselines._kd_nearest

    def recorded_kd_nearest(known_rc, query_rc):
        tail.append(query_rc.copy())
        return kd_nearest(known_rc, query_rc)

    monkeypatch.setattr(baselines, "_kd_nearest", recorded_kd_nearest)
    image = ImageGrid(np.random.default_rng(19).uniform(0, 255, flags.shape))
    assert_both_match_brute_force(image, SamplingMask(flags))
    queried = {tuple(rc) for query_rc in tail for rc in query_rc.tolist()}
    if not scanned:
        assert len(queried) == (~flags).sum()
    if center_in_tail is not None:
        center = (flags.shape[0] // 2, flags.shape[1] // 2)
        assert (center in queried) == center_in_tail


@pytest.mark.parametrize(
    "n_known", [1, 2, baselines.K_NEAREST - 1, baselines.K_NEAREST, baselines.K_NEAREST + 1]
)
def test_as_many_samples_as_k_nearest_match_brute_force(n_known):
    """The query asks for min(K_NEAREST, known) neighbours; symmetric samples tie."""
    image = ImageGrid(np.random.default_rng(n_known).uniform(0, 255, (11, 11)))
    assert_both_match_brute_force(image, ring_mask(11, 11, (5, 5), RING_25[:n_known]))


@pytest.mark.parametrize("density", [0.3, 0.8])
def test_lin_at_256x256_equals_scipy_interpolant(density, monkeypatch):
    """Inside the hull the bytes equal LinearNDInterpolator's; the pixels it
    leaves NaN, and only those, go to the nearest-neighbour search."""
    image = ImageGrid(np.random.default_rng(17).uniform(0, 255, (256, 256)))
    flags = generate_mask(256, 256, density, 17).flags.copy()
    flags[0, 0] = flags[0, -1] = flags[-1, 0] = flags[-1, -1] = False  # outside the hull
    mask = SamplingMask(flags)
    known, unknown = np.argwhere(flags), np.argwhere(~flags)
    interp = LinearNDInterpolator(known.astype(np.float64), image.samples[flags])
    vals = interp(unknown.astype(np.float64))
    inside = ~np.isnan(vals)

    queries = []
    nearest_known = baselines._nearest_known

    def recorded_nearest_known(known_rc, query_rc):
        queries.append(query_rc.copy())
        return nearest_known(known_rc, query_rc)

    monkeypatch.setattr(baselines, "_nearest_known", recorded_nearest_known)
    out = linear_triangulation_fill(image, mask).samples[~flags]

    assert out[inside].tobytes() == vals[inside].tobytes()
    assert len(queries) == 1
    np.testing.assert_array_equal(queries[0], unknown[~inside])


class TestNearestNeighbor:
    def test_single_sample_floods(self):
        img = ImageGrid(np.zeros((6, 6)))
        flags = np.zeros((6, 6), dtype=bool)
        flags[2, 3] = True
        img.samples[2, 3] = 99.0
        out = nearest_neighbor_fill(img, SamplingMask(flags))
        assert np.all(out.samples == 99.0)

    def test_full_mask_identity(self):
        rng = np.random.default_rng(1)
        img = ImageGrid(rng.uniform(0, 255, (6, 6)))
        out = nearest_neighbor_fill(img, SamplingMask(np.ones((6, 6), dtype=bool)))
        np.testing.assert_array_equal(out.samples, img.samples)

    def test_two_corners_bisector(self):
        img = ImageGrid(np.zeros((9, 9)))
        flags = np.zeros((9, 9), dtype=bool)
        flags[0, 0] = flags[8, 8] = True
        img.samples[0, 0], img.samples[8, 8] = 10.0, 20.0
        out = nearest_neighbor_fill(img, SamplingMask(flags))
        np.testing.assert_array_equal(out.samples, brute_force_nn(img, SamplingMask(flags)))

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            img = ImageGrid(rng.uniform(0, 255, (10, 10)))
            mask = generate_mask(10, 10, 0.2, int(rng.integers(100)))
            if not mask.flags.any():
                continue
            out = nearest_neighbor_fill(img, mask)
            np.testing.assert_array_equal(out.samples, brute_force_nn(img, mask))

    def test_empty_mask_raises(self):
        img = ImageGrid(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            nearest_neighbor_fill(img, SamplingMask(np.zeros((4, 4), dtype=bool)))


class TestLinearTriangulation:
    def test_plane_recovery(self):
        h, w = 16, 16
        r, c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        img = ImageGrid(1.5 * r + 0.25 * c + 3.0)
        mask = generate_mask(w, h, 0.3, 4)
        # anchor the corners so the hull covers the whole grid
        flags = mask.flags.copy()
        flags[0, 0] = flags[0, -1] = flags[-1, 0] = flags[-1, -1] = True
        out = linear_triangulation_fill(img, SamplingMask(flags))
        np.testing.assert_allclose(out.samples, img.samples, atol=1e-9)

    def test_full_mask_identity(self):
        rng = np.random.default_rng(3)
        img = ImageGrid(rng.uniform(0, 255, (8, 8)))
        out = linear_triangulation_fill(img, SamplingMask(np.ones((8, 8), dtype=bool)))
        np.testing.assert_array_equal(out.samples, img.samples)

    def test_full_mask_neither_triangulates_nor_warns(self, monkeypatch, caplog):
        monkeypatch.setattr(baselines, "import_scipy", lambda: pytest.fail("triangulated"))
        img = ImageGrid(np.random.default_rng(4).uniform(0, 255, (1, 9)))  # one row: collinear
        out = linear_triangulation_fill(img, SamplingMask(np.ones((1, 9), dtype=bool)))
        assert out.samples.tobytes() == img.samples.tobytes()
        assert out.samples is not img.samples
        assert caplog.records == []

    def test_output_within_known_range(self):
        rng = np.random.default_rng(5)
        img = ImageGrid(rng.uniform(0, 255, (32, 32)))
        mask = generate_mask(32, 32, 0.3, 6)
        out = linear_triangulation_fill(img, mask)
        known = img.samples[mask.flags]
        assert out.samples.min() >= known.min() - 1e-9
        assert out.samples.max() <= known.max() + 1e-9

    def test_known_samples_preserved(self):
        rng = np.random.default_rng(7)
        img = ImageGrid(rng.uniform(0, 255, (20, 20)))
        mask = generate_mask(20, 20, 0.4, 8)
        out = linear_triangulation_fill(img, mask)
        np.testing.assert_array_equal(out.samples[mask.flags], img.samples[mask.flags])

    def test_collinear_falls_back_to_nn(self):
        img = ImageGrid(np.zeros((8, 8)))
        flags = np.zeros((8, 8), dtype=bool)
        flags[3, 1] = flags[3, 4] = flags[3, 6] = True
        img.samples[3, 1] = img.samples[3, 4] = img.samples[3, 6] = 50.0
        out = linear_triangulation_fill(img, SamplingMask(flags))
        expected = nearest_neighbor_fill(img, SamplingMask(flags))
        np.testing.assert_array_equal(out.samples, expected.samples)

    def test_too_few_samples_falls_back(self):
        img = ImageGrid(np.zeros((8, 8)))
        flags = np.zeros((8, 8), dtype=bool)
        flags[2, 2] = flags[6, 5] = True
        img.samples[2, 2] = img.samples[6, 5] = 25.0
        out = linear_triangulation_fill(img, SamplingMask(flags))
        assert np.all(out.samples == 25.0)

    @pytest.mark.parametrize(
        "known",
        [[(2, 2)], [(2, 2), (6, 5)], [(3, 1), (3, 4), (3, 6)]],
        ids=["one", "two", "collinear"],
    )
    def test_degenerate_samples_take_one_fallback(self, caplog, known):
        img = ImageGrid(np.random.default_rng(9).uniform(0, 255, (8, 8)))
        flags = np.zeros((8, 8), dtype=bool)
        flags[tuple(np.transpose(known))] = True
        out = linear_triangulation_fill(img, SamplingMask(flags))
        expected = nearest_neighbor_fill(img, SamplingMask(flags))
        assert out.samples.tobytes() == expected.samples.tobytes()
        assert [r.getMessage() for r in caplog.records] == [
            "fewer than 3 or collinear known samples; using nearest-neighbor fill"
        ]

    def test_empty_mask_raises_without_warning(self, caplog):
        empty = SamplingMask(np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="mask holds no known samples"):
            linear_triangulation_fill(ImageGrid(np.zeros((4, 4))), empty)
        assert caplog.records == []

    def test_nearest_neighbour_only_outside_the_hull(self, monkeypatch):
        rng = np.random.default_rng(11)
        img = ImageGrid(rng.uniform(0, 255, (16, 16)))
        flags = np.zeros((16, 16), dtype=bool)
        flags[0, 8] = flags[8, 0] = flags[15, 8] = flags[8, 15] = True  # a diamond hull
        flags[5:11, 5:11] = rng.random((6, 6)) < 0.5
        mask = SamplingMask(flags)
        known, unknown = np.argwhere(flags), np.argwhere(~flags)
        interp = LinearNDInterpolator(known.astype(np.float64), img.samples[flags])
        vals = interp(unknown.astype(np.float64))
        outside = np.isnan(vals)
        assert np.isnan(interp([[0, 0], [0, 15], [15, 0], [15, 15]])).all()

        queries, nn_calls = [], []
        nearest_known = baselines._nearest_known

        def counted_nearest_known(known_rc, query_rc):
            queries.append(query_rc.copy())
            return nearest_known(known_rc, query_rc)

        monkeypatch.setattr(baselines, "_nearest_known", counted_nearest_known)
        monkeypatch.setattr(
            baselines, "nearest_neighbor_fill", lambda *args: nn_calls.append(args)
        )
        out = linear_triangulation_fill(img, mask).samples

        assert nn_calls == []
        assert len(queries) == 1
        np.testing.assert_array_equal(queries[0], unknown[outside])
        rows, cols = unknown.T
        assert out[rows[~outside], cols[~outside]].tobytes() == vals[~outside].tobytes()
        expected = brute_force_nn(img, mask)[rows[outside], cols[outside]]
        assert out[rows[outside], cols[outside]].tobytes() == expected.tobytes()
