import re

import numpy as np
import pytest

from fsrecon.grid import AreaLabel, BlockContext
from fsrecon.weighting import FsrParams, build_weight_map, effective_density


def make_ctx(labels, values=None, block_size=None, border=None):
    labels = np.asarray(labels, dtype=np.uint8)
    M = labels.shape[0]
    if block_size is None:
        border = M // 4
        block_size = M - 2 * border
    if values is None:
        values = np.zeros_like(labels, dtype=float)
        values[(labels == AreaLabel.A) | (labels == AreaLabel.R)] = 1.0
    return BlockContext(
        block_size=block_size, border=border, labels=labels, values=values
    )


def ref_weight(m, n, label, M, N, params):
    # independent scalar evaluation of the decay formula
    import math

    if label in (AreaLabel.B, AreaLabel.OUTSIDE):
        return 0.0
    d = math.hypot(m - (M - 1) / 2, n - (N - 1) / 2)
    w = math.exp(d * math.log(params.rho_hat))
    return w * params.delta if label == AreaLabel.R else w


def weight_at(m, n, label, M, params):
    """``build_weight_map``'s weight at (m, n) of an M x M window that holds only ``label``."""
    labels = np.full((M, M), label, dtype=np.uint8)
    ctx = BlockContext(block_size=M, border=0, labels=labels, values=np.zeros((M, M)))
    return float(build_weight_map(ctx, params).w[m, n])


class TestSpatialWeight:
    def test_unknown_is_zero(self):
        p = FsrParams()
        for mn in [(0, 0), (5, 20), (16, 16)]:
            assert weight_at(*mn, AreaLabel.B, 32, p) == 0.0
            assert weight_at(*mn, AreaLabel.OUTSIDE, 32, p) == 0.0

    def test_center_value(self):
        p = FsrParams(rho_hat=0.7)
        # 0.7 ** sqrt(0.5), frozen from an independent evaluation
        assert weight_at(16, 16, AreaLabel.A, 32, p) == pytest.approx(
            0.7770836540510088, rel=1e-12
        )

    def test_reconstructed_is_delta_scaled(self):
        p = FsrParams(rho_hat=0.7, delta=0.5)
        wa = weight_at(16, 16, AreaLabel.A, 32, p)
        wr = weight_at(16, 16, AreaLabel.R, 32, p)
        assert wr == pytest.approx(0.5 * wa, rel=1e-12)
        assert wr == pytest.approx(0.3885418270255044, rel=1e-12)

    def test_matches_independent_formula_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            M = 2 * int(rng.integers(2, 20))
            m, n = int(rng.integers(0, M)), int(rng.integers(0, M))
            label = AreaLabel(int(rng.integers(0, 4)))
            p = FsrParams(rho_hat=float(rng.uniform(0.05, 1.0)), delta=float(rng.uniform(0.05, 1.0)))
            got = weight_at(m, n, label, M, p)
            assert got == pytest.approx(ref_weight(m, n, label, M, M, p), rel=1e-12, abs=1e-300)

    def test_radial_symmetry(self):
        p = FsrParams()
        M = 32
        for m, n in [(3, 7), (0, 0), (10, 25)]:
            w = weight_at(m, n, AreaLabel.A, M, p)
            assert weight_at(n, m, AreaLabel.A, M, p) == pytest.approx(w, rel=1e-12)
            assert weight_at(M - 1 - m, M - 1 - n, AreaLabel.A, M, p) == pytest.approx(
                w, rel=1e-12
            )


class TestWeightMap:
    def test_all_unknown(self):
        ctx = make_ctx(np.full((8, 8), AreaLabel.B))
        wm = build_weight_map(ctx, FsrParams())
        assert np.all(wm.w == 0.0)
        assert wm.weight_sum == 0.0

    def test_rho_one_indicator(self):
        ctx = make_ctx(np.full((8, 8), AreaLabel.A))
        wm = build_weight_map(ctx, FsrParams(rho_hat=1.0))
        assert np.all(wm.w == 1.0)
        assert wm.weight_sum == 64.0

    def test_brute_force_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            labels = rng.integers(0, 4, size=(10, 10)).astype(np.uint8)
            ctx = make_ctx(labels)
            p = FsrParams(rho_hat=0.8, delta=0.4)
            wm = build_weight_map(ctx, p)
            brute = sum(
                weight_at(m, n, AreaLabel(labels[m, n]), 10, p)
                for m in range(10)
                for n in range(10)
            )
            assert wm.weight_sum == pytest.approx(brute, rel=1e-12)

    def test_scalar_weights_equal_map_entries_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            M = 2 * int(rng.integers(2, 17))
            labels = rng.integers(0, 4, size=(M, M)).astype(np.uint8)
            p = FsrParams(rho_hat=float(rng.uniform(0.05, 1.0)), delta=float(rng.uniform(0.05, 1.0)))
            wm = build_weight_map(make_ctx(labels), p)
            scalar = [
                [weight_at(m, n, AreaLabel(labels[m, n]), M, p) for n in range(M)]
                for m in range(M)
            ]
            np.testing.assert_array_equal(np.array(scalar), wm.w)


class TestEffectiveDensity:
    def test_all_known_is_one(self):
        for rho in (0.3, 0.7, 1.0):
            ctx = make_ctx(np.full((8, 8), AreaLabel.A))
            p = FsrParams(rho_hat=rho)
            assert effective_density(ctx, build_weight_map(ctx, p), p) == 1.0

    def test_all_reconstructed_is_delta(self):
        ctx = make_ctx(np.full((8, 8), AreaLabel.R))
        p = FsrParams(delta=0.5)
        assert effective_density(ctx, build_weight_map(ctx, p), p) == pytest.approx(0.5, rel=1e-12)

    def test_no_data_is_zero(self):
        ctx = make_ctx(np.full((8, 8), AreaLabel.B))
        p = FsrParams()
        assert effective_density(ctx, build_weight_map(ctx, p), p) == 0.0

    def test_bounds_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            labels = rng.integers(0, 4, size=(8, 8)).astype(np.uint8)
            ctx = make_ctx(labels)
            p = FsrParams(rho_hat=float(rng.uniform(0.1, 1.0)), delta=float(rng.uniform(0.1, 1.0)))
            omega = effective_density(ctx, build_weight_map(ctx, p), p)
            assert 0.0 <= omega <= 1.0

    def test_adding_a_sample_increases_omega(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=(8, 8)).astype(np.uint8)
        labels[3, 3] = AreaLabel.B
        p = FsrParams()
        ctx = make_ctx(labels.copy())
        before = effective_density(ctx, build_weight_map(ctx, p), p)
        labels[3, 3] = AreaLabel.A
        ctx2 = make_ctx(labels)
        after = effective_density(ctx2, build_weight_map(ctx2, p), p)
        assert after > before

    def test_rho_one_counts_samples(self):
        rng = np.random.default_rng(10)
        labels = np.where(rng.random((8, 8)) < 0.3, AreaLabel.A, AreaLabel.B).astype(np.uint8)
        ctx = make_ctx(labels)
        p = FsrParams(rho_hat=1.0)
        omega = effective_density(ctx, build_weight_map(ctx, p), p)
        assert omega == pytest.approx(np.count_nonzero(labels == AreaLabel.A) / 64.0, rel=1e-12)


class TestFsrParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho_hat": 0.0},
            {"rho_hat": 1.5},
            {"delta": 0.0},
            {"gamma": 2.0},
            {"tau": 0.0},
            {"tau": float("nan")},
            {"iterations": 0},
            {"block_size": 3, "border": 0},  # odd window size
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FsrParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"iterations": 2.5}, "iterations"),
            ({"iterations": True}, "iterations"),
            ({"block_size": 4.0, "border": 2.0}, "block_size"),
            ({"border": 2.0}, "border"),
            ({"border": np.True_}, "border"),
        ],
        ids=["fraction", "bool", "float-pair", "float", "numpy-bool"],
    )
    def test_rejects_non_integer_counts(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FsrParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tau": True}, "tau must be a real number, got True"),
            ({"gamma": None}, "gamma must be a real number, got None"),
            ({"rho_hat": "0.7"}, "rho_hat must be a real number, got '0.7'"),
            ({"delta": np.True_}, "delta must be a real number, got "),
        ],
    )
    def test_rejects_mistyped_values(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FsrParams(**kwargs)

    def test_accepts_numpy_integers(self):
        p = FsrParams(block_size=np.int64(4), border=np.int32(2), iterations=np.int64(2))
        assert (p.block_size, p.border, p.iterations) == (4, 2, 2)
