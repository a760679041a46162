import math

import numpy as np
import pytest

from fsrecon.core import _position_table
from fsrecon.priors import ALPHA_MAX, PriorKind, alpha_of_omega, build_prior_map, prior_alphas
from fsrecon.weighting import FsrParams


def ref_prior(k, l, M, N, exponent):
    # independent scalar evaluation with explicit folding
    kt = min(k % M, M - k % M)
    lt = min(l % N, N - l % N)
    base = 1.0 - math.sqrt(2.0) * math.sqrt((kt / M) ** 2 + (lt / N) ** 2)
    base = max(0.0, base)
    if exponent == 0.0:
        return 1.0
    return base**exponent


def prior_at(k, l, M, alpha):
    """``build_prior_map``'s weight at bin (k, l) of an M x M plane for one alpha."""
    return build_prior_map(M, M, [alpha], np.array([k * M + l])).item()


class TestOtfPrior:
    def test_dc_is_one(self):
        assert prior_at(0, 0, 32, 1.0) == 1.0

    def test_nyquist_corner_is_zero(self):
        assert prior_at(16, 16, 32, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value(self):
        # (1 - sqrt(2)*0.25)^2, frozen from an independent evaluation
        assert prior_at(8, 0, 32, 1.0) == pytest.approx(0.41789321881345254, rel=1e-12)

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            M = 2 * int(rng.integers(2, 33))
            k, l = int(rng.integers(0, M)), int(rng.integers(0, M))
            assert prior_at(k, l, M, 1.0) == pytest.approx(
                ref_prior(k, l, M, M, 2.0), rel=1e-12, abs=1e-15
            )

    def test_axis_monotonicity(self):
        M = 32
        vals = [prior_at(k, 0, M, 1.0) for k in range(M // 2 + 1)]
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
        otf = full_map(PriorKind.OTF, M, 0.5, FsrParams())
        for k in range(M):
            for l in range(M):
                assert prior_at(k, l, M, 1.0) == pytest.approx(otf[k, l], rel=1e-12, abs=1e-15)

    def test_alpha_zero_is_flat(self):
        M = 16
        for k in range(M):
            for l in range(M):
                assert prior_at(k, l, M, 0.0) == 1.0

    def test_frozen_value(self):
        assert prior_at(8, 0, 32, 2.0) == pytest.approx(0.1746347423302681, rel=1e-12)

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            M = 2 * int(rng.integers(2, 33))
            k, l = int(rng.integers(0, M)), int(rng.integers(0, M))
            alpha = float(rng.uniform(0, 8))
            assert prior_at(k, l, M, alpha) == pytest.approx(
                ref_prior(k, l, M, M, 2 * alpha), rel=1e-12, abs=1e-15
            )

    def test_larger_alpha_suppresses_more(self):
        M = 32
        for k, l in [(1, 0), (5, 3), (10, 10), (15, 2)]:
            lo = prior_at(k, l, M, 0.5)
            hi = prior_at(k, l, M, 2.5)
            assert lo > hi


def full_map(kind, M, omega, params):
    """The prior of one window with effective density omega at every bin, (M, M)."""
    alphas = prior_alphas(kind, np.array([omega]), params)
    weights = build_prior_map(M, M, alphas, np.arange(M * M))
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
                    assert prior_at(k, l, M, 1.0) == otf[k, l]
                    assert prior_at(k, l, M, alpha) == ap[k, l]

    def test_front_rows_equal_scalar_priors_exactly(self):
        # each row equals its window's alpha_of_omega evaluated alone;
        # np.log for the front's alphas changes some of these bits.  At
        # tau = 2, exp(-2) and exp(-0.5) give the exponents 2 and 0.5, for
        # which a scalar power takes numpy's square and sqrt paths
        M, p = 32, FsrParams(tau=2.0)
        rng = np.random.default_rng(16)
        special = [0.0, 1.0, 1e-300, 0.5, math.exp(-2.0), math.exp(-0.5)]
        omega = np.concatenate([rng.random(300), 10.0 ** rng.uniform(-40, 0, 100), special])
        bins = _position_table(M, M).bins[0]
        weights = build_prior_map(M, M, prior_alphas(PriorKind.ADAPTIVE, omega, p), bins)
        assert weights.shape == (len(omega), len(bins))
        for row, o in zip(weights, omega):
            want = build_prior_map(M, M, [alpha_of_omega(o, p)], bins)
            assert row.tobytes() == want.tobytes()

    def test_mixed_kinds_and_taus_equal_each_alpha_alone(self):
        # one call may hold the windows of runs with different priors and
        # taus: each row depends on its own alpha only, bit for bit
        M = 32
        rng = np.random.default_rng(17)
        omega = np.concatenate([rng.random(20), [0.0, 1.0, math.exp(-2.0), math.exp(-0.5)]])
        alphas = [
            alpha
            for kind in PriorKind
            for tau in (0.5, 2.0, 4.0)
            for alpha in prior_alphas(kind, omega, FsrParams(tau=tau))
        ]
        alphas = [alphas[i] for i in rng.permutation(len(alphas))]
        bins = _position_table(M, M).bins[0]
        weights = build_prior_map(M, M, alphas, bins)
        assert weights.shape == (len(alphas), len(bins))
        for row, alpha in zip(weights, alphas):
            assert row.tobytes() == build_prior_map(M, M, [alpha], bins).tobytes()

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
            build_prior_map(31, 31, [1.0], np.arange(31 * 31))
