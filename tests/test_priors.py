import math

import numpy as np
import pytest

from fsrecon.core import _position_table
from fsrecon.priors import (
    ALPHA_MAX, adaptive_prior, alpha_of_omega, build_prior_map, otf_prior,
)
from fsrecon.weighting import FsrParams, PriorKind


def ref_prior(k, l, M, N, exponent):
    # independent scalar evaluation with explicit folding
    kt = min(k % M, M - k % M)
    lt = min(l % N, N - l % N)
    base = 1.0 - math.sqrt(2.0) * math.sqrt((kt / M) ** 2 + (lt / N) ** 2)
    base = max(0.0, base)
    if exponent == 0.0:
        return 1.0
    return base**exponent


class TestOtfPrior:
    def test_dc_is_one(self):
        assert otf_prior(0, 0, 32, 32) == 1.0

    def test_nyquist_corner_is_zero(self):
        assert otf_prior(16, 16, 32, 32) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value(self):
        # (1 - sqrt(2)*0.25)^2, frozen from an independent evaluation
        assert otf_prior(8, 0, 32, 32) == pytest.approx(0.41789321881345254, rel=1e-12)

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            M = 2 * int(rng.integers(2, 33))
            k, l = int(rng.integers(0, M)), int(rng.integers(0, M))
            assert otf_prior(k, l, M, M) == pytest.approx(
                ref_prior(k, l, M, M, 2.0), rel=1e-12, abs=1e-15
            )

    def test_axis_monotonicity(self):
        M = 32
        vals = [otf_prior(k, 0, M, M) for k in range(M // 2 + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAlphaOfOmega:
    def test_full_density_gives_zero(self):
        assert alpha_of_omega(1.0, FsrParams()) == 0.0

    def test_unity_crossing(self):
        p = FsrParams(tau=2.0)
        assert alpha_of_omega(math.exp(-2.0), p) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_value(self):
        assert alpha_of_omega(0.5, FsrParams(tau=2.0)) == pytest.approx(
            0.34657359027997264, rel=1e-12
        )

    def test_zero_density_clamps(self):
        p = FsrParams()
        assert ALPHA_MAX == 32.0
        assert alpha_of_omega(0.0, p) == 32.0
        assert alpha_of_omega(1e-300, p) == 32.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_of_omega(-0.1, FsrParams())
        with pytest.raises(ValueError):
            alpha_of_omega(1.1, FsrParams())


class TestAdaptivePrior:
    def test_alpha_one_equals_otf(self):
        M = 32
        for k in range(M):
            for l in range(M):
                assert adaptive_prior(k, l, M, M, 1.0) == pytest.approx(
                    otf_prior(k, l, M, M), rel=1e-12, abs=1e-15
                )

    def test_alpha_zero_is_flat(self):
        M = 16
        for k in range(M):
            for l in range(M):
                assert adaptive_prior(k, l, M, M, 0.0) == 1.0

    def test_frozen_value(self):
        assert adaptive_prior(8, 0, 32, 32, 2.0) == pytest.approx(0.1746347423302681, rel=1e-12)

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            M = 2 * int(rng.integers(2, 33))
            k, l = int(rng.integers(0, M)), int(rng.integers(0, M))
            alpha = float(rng.uniform(0, 8))
            assert adaptive_prior(k, l, M, M, alpha) == pytest.approx(
                ref_prior(k, l, M, M, 2 * alpha), rel=1e-12, abs=1e-15
            )

    def test_larger_alpha_suppresses_more(self):
        M = 32
        for k, l in [(1, 0), (5, 3), (10, 10), (15, 2)]:
            lo = adaptive_prior(k, l, M, M, 0.5)
            hi = adaptive_prior(k, l, M, M, 2.5)
            assert lo > hi


def full_map(kind, M, omega, params):
    """The prior of one window with effective density omega at every bin, (M, M)."""
    weights = build_prior_map(kind, M, M, np.array([omega]), np.arange(M * M), params)
    assert weights.shape == (1, M * M)
    return weights.reshape(M, M)


class TestPriorMap:
    @pytest.mark.parametrize("M", [2, 8, 32])
    def test_scalars_equal_map_entries_exactly(self, M):
        p = FsrParams()
        otf = full_map(PriorKind.OTF, M, 0.5, p)
        for omega in (0.05, 0.3, 0.7, 1.0):
            ap = full_map(PriorKind.ADAPTIVE, M, omega, p)
            alpha = alpha_of_omega(omega, p)
            for k in range(M):
                for l in range(M):
                    assert otf_prior(k, l, M, M) == otf[k, l]
                    assert adaptive_prior(k, l, M, M, alpha) == ap[k, l]

    def test_front_rows_equal_scalar_priors_exactly(self):
        # per-window scalar alphas and exponents; np.log or one vector
        # exponent for the front changes some of these bits.  At tau = 2,
        # exp(-2) and exp(-0.5) give the exponents 2 and 0.5, for which a
        # scalar power takes numpy's square and sqrt paths
        M, p = 32, FsrParams(tau=2.0)
        rng = np.random.default_rng(16)
        special = [0.0, 1.0, 1e-300, 0.5, math.exp(-2.0), math.exp(-0.5)]
        omega = np.concatenate([rng.random(300), 10.0 ** rng.uniform(-40, 0, 100), special])
        bins = _position_table(M, M).bins[0]
        weights = build_prior_map(PriorKind.ADAPTIVE, M, M, omega, bins, p)
        assert weights.shape == (len(omega), len(bins))
        k, l = np.divmod(bins, M)
        for row, o in zip(weights, omega):
            alpha = alpha_of_omega(o, p)
            want = [adaptive_prior(kk, ll, M, M, alpha) for kk, ll in zip(k.tolist(), l.tolist())]
            assert row.tobytes() == np.array(want).tobytes()

    def test_none_is_all_ones(self):
        assert np.all(full_map(PriorKind.NONE, 32, 0.5, FsrParams()) == 1.0)

    def test_adaptive_at_unity_matches_otf_map(self):
        p = FsrParams(tau=2.0)
        ap = full_map(PriorKind.ADAPTIVE, 32, math.exp(-2.0), p)
        otf = full_map(PriorKind.OTF, 32, 0.5, p)
        np.testing.assert_allclose(ap, otf, rtol=1e-12, atol=0)

    def test_lower_omega_suppresses_everywhere(self):
        p = FsrParams()
        lo = full_map(PriorKind.ADAPTIVE, 32, 0.2, p)
        hi = full_map(PriorKind.ADAPTIVE, 32, 0.8, p)
        base_lt_one = lo < 1.0
        assert np.all(lo[base_lt_one] <= hi[base_lt_one])
        assert np.any(lo[base_lt_one] < hi[base_lt_one])

    @pytest.mark.parametrize("kind", [PriorKind.OTF, PriorKind.ADAPTIVE, PriorKind.NONE])
    def test_fold_symmetry(self, kind):
        wf = full_map(kind, 32, 0.4, FsrParams())
        flipped = wf[(-np.arange(32)) % 32][:, (-np.arange(32)) % 32]
        np.testing.assert_array_equal(wf, flipped)

    def test_dc_is_one_and_range(self):
        for kind in (PriorKind.OTF, PriorKind.ADAPTIVE):
            wf = full_map(kind, 32, 0.3, FsrParams())
            assert wf[0, 0] == 1.0
            assert np.all((wf >= 0.0) & (wf <= 1.0))

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_prior_map(PriorKind.OTF, 31, 31, np.array([0.5]), np.arange(31 * 31), FsrParams())
