import re

import numpy as np
import pytest

from fsrecon.core import (
    _dft_exponentials,
    _position_table,
    _selection_objective,
    init_model_state,
    projection_coefficients,
    reconstruct_block,
    reconstruct_block_reference,
    reconstruct_image,
    select_basis,
    synthesize_model,
    update_model,
)
from fsrecon.grid import AreaLabel, BlockContext, ImageGrid, SamplingMask, generate_mask
from fsrecon.priors import PriorKind, alpha_of_omega, build_prior_map
from fsrecon.weighting import (
    FsrParams,
    WeightMap,
    build_weight_map,
    decay_map,
    effective_density,
)


def random_ctx(rng, M=8, density=0.5):
    labels = np.where(rng.random((M, M)) < density, AreaLabel.A, AreaLabel.B).astype(np.uint8)
    values = np.where(labels == AreaLabel.A, rng.uniform(0, 255, (M, M)), 0.0)
    return BlockContext(labels=labels, values=values)


def full_ctx(values):
    values = np.asarray(values, dtype=float)
    M = values.shape[0]
    labels = np.full((M, M), AreaLabel.A, dtype=np.uint8)
    return BlockContext(labels=labels, values=values)


def bin_of(j, M):
    """(u, v) of the selected position of window 0."""
    return divmod(int(_position_table(M).bins[0][j[0]]), M)


def position_of(u, v, M):
    return np.flatnonzero(_position_table(M).bins[0] == u * M + v)


def brute_force_dft(x):
    M, N = x.shape
    out = np.zeros((M, N), dtype=complex)
    for k in range(M):
        for l in range(N):
            acc = 0.0 + 0.0j
            for m in range(M):
                for n in range(N):
                    acc += x[m, n] * np.exp(-2j * np.pi * (m * k / M + n * l / N))
            out[k, l] = acc
    return out


class TestInitModelState:
    def test_zero_values(self):
        ctx = full_ctx(np.zeros((8, 8)))
        state = init_model_state(ctx.values, build_weight_map(ctx, FsrParams()))
        assert np.all(state.weighted_residual_spectrum == 0)
        assert state.updates == []

    def test_constant_dc_bin(self):
        ctx = full_ctx(np.full((8, 8), 42.0))
        p = FsrParams(rho_hat=1.0)
        state = init_model_state(ctx.values, build_weight_map(ctx, p))
        spec = state.weighted_residual_spectrum[0]
        assert spec[0, 0] == pytest.approx(42.0 * 64, rel=1e-12)
        off_dc = np.abs(spec).copy()
        off_dc[0, 0] = 0.0
        assert np.max(off_dc) < 1e-9

    def test_matches_brute_force_dft(self):
        rng = np.random.default_rng(31)
        ctx = random_ctx(rng, M=8)
        wm = build_weight_map(ctx, FsrParams())
        state = init_model_state(ctx.values, wm)
        expected = brute_force_dft(ctx.values * wm.w)[: 8 // 2 + 1]
        np.testing.assert_allclose(state.weighted_residual_spectrum[0], expected, atol=1e-9)


def random_state(rng, F, M, weight_sum=None):
    w = rng.random((F, M, M))
    if weight_sum is None:
        weight_sum = w.sum(axis=(1, 2))
    return init_model_state(rng.uniform(0, 255, (F, M, M)), WeightMap(w, weight_sum))


def window_id(M):
    return f"{M}-{M}"  # an M x M window


class TestWeightSlabs:
    @pytest.mark.parametrize("M", [2, 4, 6, 8, 12, 32], ids=window_id)
    def test_every_slab_lies_in_its_window_tile(self, M):
        F, half = 3, M // 2 + 1
        state = random_state(np.random.default_rng(M * M), F, M)
        offsets = _position_table(M).offsets[:, None, :] + state.tile_offsets[:, None]
        tile = (3 * M // 2) * 2 * M
        first = offsets
        last = offsets + (half - 1) * 2 * M + M - 1  # the slab's last element
        window = np.arange(F)[:, None]
        assert np.all(first >= window * tile)
        assert np.all(last < (window + 1) * tile)
        assert offsets.max() < len(state.weight_slabs)

    @pytest.mark.parametrize("M", [2, 4, 6, 8, 12], ids=window_id)
    def test_slab_is_the_shifted_weight_spectrum(self, M):
        F, half = 2, M // 2 + 1
        rng = np.random.default_rng(2 * M)
        w = rng.random((F, M, M))
        state = init_model_state(rng.uniform(0, 255, (F, M, M)), WeightMap(w, w.sum(axis=(1, 2))))
        W = np.fft.fft2(w)
        table = _position_table(M)
        for f in range(F):
            for k in range(2):
                for o, b in zip(table.offsets[k], table.bins[k]):
                    u, v = divmod(int(b), M)
                    shifted = np.roll(W[f], (u, v), axis=(0, 1))[:half]
                    slab = state.weight_slabs[state.tile_offsets[f] + o]
                    assert slab.tobytes() == shifted.tobytes()

    def test_view_ends_at_the_last_tile_element(self):
        rng = np.random.default_rng(3)
        w = rng.random((3, 8, 8))
        state = init_model_state(rng.uniform(0, 255, (3, 8, 8)), WeightMap(w, w.sum(axis=(1, 2))))
        # the last tile row repeats spectrum row M/2 - 1
        assert state.weight_slabs[-1][-1, -1] == np.fft.fft2(w)[-1, 8 // 2 - 1, -1]

    def test_slabs_are_read_only(self):
        state = random_state(np.random.default_rng(4), 2, 8)
        with pytest.raises(ValueError):
            state.weight_slabs[0, 0, 0] = 0


class TestProjections:
    def test_constant_residual_dc(self):
        ctx = full_ctx(np.full((8, 8), 7.0))
        p = FsrParams(rho_hat=1.0)
        state = init_model_state(ctx.values, build_weight_map(ctx, p))
        proj = projection_coefficients(state)
        assert proj[0, 0] == pytest.approx(7.0, rel=1e-12)

    def test_zero_residual(self):
        ctx = full_ctx(np.zeros((8, 8)))
        state = init_model_state(ctx.values, build_weight_map(ctx, FsrParams()))
        assert np.all(projection_coefficients(state) == 0)

    def test_single_sample_constant_magnitude(self):
        labels = np.full((4, 4), AreaLabel.B, dtype=np.uint8)
        labels[1, 2] = AreaLabel.A
        values = np.zeros((4, 4))
        values[1, 2] = 9.0
        ctx = BlockContext(labels=labels, values=values)
        state = init_model_state(ctx.values, build_weight_map(ctx, FsrParams()))
        proj = projection_coefficients(state)
        np.testing.assert_allclose(np.abs(proj), 9.0, rtol=1e-12)

    def test_empty_window_raises(self):
        labels = np.full((4, 4), AreaLabel.B, dtype=np.uint8)
        ctx = BlockContext(labels=labels, values=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            init_model_state(ctx.values, build_weight_map(ctx, FsrParams()))


class TestSelectBasis:
    def test_flat_projection_with_otf_selects_dc(self):
        labels = np.full((4, 4), AreaLabel.B, dtype=np.uint8)
        labels[1, 2] = AreaLabel.A
        values = np.zeros((4, 4))
        values[1, 2] = 5.0
        ctx = BlockContext(labels=labels, values=values)
        state = init_model_state(ctx.values, build_weight_map(ctx, FsrParams()))
        prior = build_prior_map(4, [1.0], state.order)
        proj = projection_coefficients(state)
        assert bin_of(select_basis(proj, prior), 4) == (0, 0)

    def test_cosine_selects_its_frequency(self):
        M = 16
        m = np.arange(M)[:, None]
        values = 100.0 + 50.0 * np.cos(2 * np.pi * 3 * m / M) * np.ones((1, M))
        ctx = full_ctx(values)
        p = FsrParams(rho_hat=1.0, gamma=1.0)
        state = init_model_state(ctx.values, build_weight_map(ctx, p))
        prior = build_prior_map(M, [0.0], state.order)
        proj = projection_coefficients(state)
        j = select_basis(proj, prior)
        assert bin_of(j, M) == (0, 0)  # DC dominates first
        update_model(state, j, p)
        proj = projection_coefficients(state)
        j = select_basis(proj, prior)
        assert bin_of(j, M) in [(3, 0), (M - 3, 0)]


def extreme_components(rng, shape):
    """Random magnitudes 1e-300..1e300 of either sign, 10% of them +0 or -0."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    zero = rng.random(shape) < 0.1
    x[zero] = rng.choice([-0.0, 0.0], np.count_nonzero(zero))
    return x


class TestReciprocalObjective:
    """``projection_coefficients`` multiplies by 1/weight_sum instead of dividing.

    numpy's complex-by-real divide computes (re + im*0)*(1/ws) and
    (im - re*0)*(1/ws); only the sign of a zero may differ from the multiply.
    These tests pin that on extreme values.  If numpy's divide loop changes
    (another algorithm, another rounding), they fail, and the multiply must
    not be used any more.
    """

    def cases(self):
        rng = np.random.default_rng(2024)
        M = 8
        for _ in range(200):
            F = int(rng.integers(1, 17))
            state = random_state(rng, F, M, weight_sum=10.0 ** rng.uniform(-3, 4, F))
            parts = state.weighted_residual_spectrum.view(np.float64)
            parts[...] = extreme_components(rng, parts.shape)
            prior_weights = rng.random((F, len(state.order)))
            yield rng, state, prior_weights

    def divided(self, state):
        return np.take(state.residual_rows, state.order, axis=1) / state.weight_sum[:, None]

    @pytest.mark.filterwarnings("ignore:overflow encountered in square")
    def test_objective_equals_the_divided_one_byte_for_byte(self):
        sign_differences = 0
        for _, state, prior_weights in self.cases():
            q, q_div = projection_coefficients(state), self.divided(state)
            assert np.array_equal(q, q_div)
            sign_differences += np.count_nonzero(
                np.signbit(q.view(np.float64)) != np.signbit(q_div.view(np.float64))
            )
            obj = _selection_objective(q, prior_weights)
            assert obj.tobytes() == _selection_objective(q_div, prior_weights).tobytes()
            np.testing.assert_array_equal(
                select_basis(q, prior_weights), obj.argmax(axis=1)
            )
        assert sign_differences > 0  # the cases reach the signed zeros

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    @pytest.mark.parametrize("F", range(1, 18))
    def test_full_shape_reciprocal_equals_the_broadcast_one(self, F):
        rng = np.random.default_rng(F)
        state = random_state(rng, F, 8, weight_sum=10.0 ** rng.uniform(-300, 300, F))
        parts = state.weighted_residual_spectrum.view(np.float64)
        parts[...] = extreme_components(rng, parts.shape)
        inv = state.inv_weight_sum
        assert inv.shape == (F, 2 * len(state.order)) and inv.flags.c_contiguous
        broadcast = np.take(state.residual_rows, state.order, axis=1)
        broadcast.view(np.float64)[...] *= (1.0 / state.weight_sum)[:, None]
        assert projection_coefficients(state).tobytes() == broadcast.tobytes()

    def test_update_coefficients_are_the_true_divide(self):
        p = FsrParams()
        for rng, state, prior_weights in self.cases():
            F = len(state.weight_sum)
            q_div = self.divided(state)
            j = rng.integers(0, len(state.order), F)
            update_model(state, j, p)
            c = p.gamma * q_div[np.arange(F), j]
            self_conj = _position_table(8).self_conjugate[j]
            c = np.where(self_conj, c.real, c)
            got = state.updates[-1][1]
            assert got[:F].tobytes() == c.tobytes()
            assert got[F:].tobytes() == np.where(self_conj, 0.0, np.conj(c)).tobytes()


class TestUpdateModel:
    def test_orthogonal_case_one_step_exact(self):
        rng = np.random.default_rng(5)
        ctx = full_ctx(rng.uniform(0, 255, (8, 8)))
        p = FsrParams(rho_hat=1.0, gamma=1.0)
        state = init_model_state(ctx.values, build_weight_map(ctx, p))
        prior = build_prior_map(8, [0.0], state.order)
        proj = projection_coefficients(state)
        j = select_basis(proj, prior)
        update_model(state, j, p)
        proj2 = projection_coefficients(state)
        assert abs(proj2[0, j]) < 1e-9

    def test_gamma_halves_coefficient(self):
        rng = np.random.default_rng(6)
        ctx = full_ctx(rng.uniform(0, 255, (8, 8)))
        p = FsrParams(gamma=0.5)
        state = init_model_state(ctx.values, build_weight_map(ctx, p))
        proj = projection_coefficients(state)
        j = position_of(1, 2, 8)
        update_model(state, j, p)
        synthesize_model(state)
        assert state.coef[0, 1, 2] == 0.5 * proj[0, j[0]]
        assert state.coef[0, 7, 6] == np.conj(0.5 * proj[0, j[0]])

    def test_spectrum_update_equals_spatial_oracle(self):
        rng = np.random.default_rng(7)
        ctx = random_ctx(rng, M=8)
        p = FsrParams(gamma=0.5)
        wm = build_weight_map(ctx, p)
        state = init_model_state(ctx.values, wm)
        r = ctx.values.copy()
        M = 8
        mg, ng = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
        for _ in range(5):
            proj = projection_coefficients(state)
            prior = build_prior_map(M, [0.0], state.order)
            j = select_basis(proj, prior)
            u, v = bin_of(j, M)
            c = p.gamma * proj[0, j[0]]
            phi = np.exp(2j * np.pi * (mg * u / M + ng * v / M))
            if (2 * u) % M == 0 and (2 * v) % M == 0:
                r = r - c.real * phi.real
            else:
                r = r - 2.0 * (c * phi).real
            update_model(state, j, p)
            np.testing.assert_allclose(
                state.weighted_residual_spectrum[0], np.fft.fft2(r * wm.w)[: M // 2 + 1], atol=1e-6
            )

    def test_conjugate_symmetry_of_coefficients(self):
        rng = np.random.default_rng(12)
        ctx = random_ctx(rng, M=8)
        p = FsrParams()
        state = init_model_state(ctx.values, build_weight_map(ctx, p))
        prior = build_prior_map(8, [alpha_of_omega(0.5, p)], state.order)
        for _ in range(20):
            proj = projection_coefficients(state)
            j = select_basis(proj, prior)
            update_model(state, j, p)
        g = synthesize_model(state)
        flipped = state.coef[0][(-np.arange(8)) % 8][:, (-np.arange(8)) % 8]
        np.testing.assert_allclose(state.coef[0], np.conj(flipped), atol=1e-12)
        assert np.max(np.abs(np.imag(np.fft.ifft2(state.coef[0]) * 64))) < 1e-6
        assert g.shape == (1, 8, 8)


def test_mixed_self_conjugate_stack_equals_one_window_stacks():
    """A stack updates each window as a stack of one would, whichever bins they take."""
    M = 8
    table = _position_table(M)
    self_conj = np.flatnonzero(table.self_conjugate)
    ordinary = np.flatnonzero(~table.self_conjugate)
    rng = np.random.default_rng(26)
    F, p = 7, FsrParams()
    w, values = rng.random((F, M, M)), rng.uniform(0, 255, (F, M, M))
    stack = init_model_state(values, WeightMap(w, w.sum(axis=(1, 2))))
    singles = [
        init_model_state(values[f : f + 1], WeightMap(w[f : f + 1], w[f : f + 1].sum(axis=(1, 2))))
        for f in range(F)
    ]
    for it in range(12):
        take = rng.random(F) < 0.5
        take[it % F] = True  # a mix in every iteration
        take[(it + 1) % F] = False
        j = np.where(take, rng.choice(self_conj, F), rng.choice(ordinary, F))
        update_model(stack, j, p)
        cc = stack.updates[-1][1]
        for f, single in enumerate(singles):
            update_model(single, j[f : f + 1], p)
            assert cc[[f, F + f]].tobytes() == single.updates[-1][1].tobytes()
            assert (
                stack.weighted_residual_spectrum[f].tobytes()
                == single.weighted_residual_spectrum[0].tobytes()
            )
        assert np.all(cc[:F][take].imag == 0.0) and np.all(cc[F:][take] == 0.0)


class TestCachedTables:
    @pytest.mark.parametrize(
        "table",
        [
            lambda: _position_table(8).offsets,
            lambda: _position_table(8).bins,
            lambda: _position_table(8).self_conjugate,
            lambda: _dft_exponentials(8),
            lambda: decay_map(8, 0.7),
        ],
        ids=[
            "position_table.offsets",
            "position_table.bins",
            "position_table.self_conjugate",
            "dft_exponentials",
            "decay_map",
        ],
    )
    def test_cached_table_is_read_only(self, table):
        with pytest.raises(ValueError):
            table()[0] = 0

    @pytest.mark.parametrize("M", range(2, 65, 2))
    def test_selection_lies_in_the_half_spectrum(self, M):
        order = _position_table(M).bins[0]
        assert len(order) == M * M // 2 + 2
        assert order.max() // M <= M // 2


class TestReconstructBlock:
    def test_known_center_passes_through(self):
        rng = np.random.default_rng(41)
        M = 16
        labels = np.where(rng.random((M, M)) < 0.5, AreaLabel.A, AreaLabel.B).astype(np.uint8)
        labels[6:10, 6:10] = AreaLabel.A
        values = np.where(labels == AreaLabel.A, rng.uniform(0, 255, (M, M)), 0.0)
        ctx = BlockContext(labels=labels, values=values)
        patch, fb = reconstruct_block(ctx, FsrParams(block_size=4, border=6, iterations=5))
        assert not fb
        np.testing.assert_array_equal(patch, values[6:10, 6:10])

    def test_constant_image_converges_to_constant(self):
        rng = np.random.default_rng(42)
        M, c = 32, 131.0
        labels = np.where(rng.random((M, M)) < 0.3, AreaLabel.A, AreaLabel.B).astype(np.uint8)
        values = np.where(labels == AreaLabel.A, c, 0.0)
        ctx = BlockContext(labels=labels, values=values)
        patch, fb = reconstruct_block(ctx, FsrParams(), prior=PriorKind.ADAPTIVE)
        assert not fb
        np.testing.assert_allclose(patch, c, atol=0.5)

    def test_zero_data_fallback(self):
        labels = np.full((8, 8), AreaLabel.B, dtype=np.uint8)
        ctx = BlockContext(labels=labels, values=np.zeros((8, 8)))
        patch, fb = reconstruct_block(ctx, FsrParams(block_size=4, border=2))
        assert fb
        assert np.isnan(patch).all()  # no model; reconstruct_image writes the fallback value

    @pytest.mark.parametrize("kind", [PriorKind.ADAPTIVE, PriorKind.OTF, PriorKind.NONE])
    def test_fast_path_matches_reference(self, kind):
        rng = np.random.default_rng(43)
        p = FsrParams(block_size=8, border=4, iterations=10)
        for _ in range(5):
            ctx = random_ctx(rng, M=16, density=float(rng.uniform(0.1, 0.9)))
            t_fast, t_ref = [], []
            fast, _ = reconstruct_block(ctx, p, selection_trace=t_fast, prior=kind)
            ref, _ = reconstruct_block_reference(ctx, p, selection_trace=t_ref, prior=kind)
            assert t_fast == t_ref
            np.testing.assert_allclose(fast, ref, atol=1e-4)

    def test_residual_energy_non_increasing(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            ctx = random_ctx(rng, M=16, density=float(rng.uniform(0.2, 0.8)))
            energies = []
            reconstruct_block_reference(
                ctx,
                FsrParams(block_size=8, border=4, iterations=50),
                energy_trace=energies,
            )
            diffs = np.diff(energies)
            assert np.all(diffs <= 1e-9 * max(energies))


class TestReconstructImage:
    def test_full_density_identity(self):
        rng = np.random.default_rng(51)
        img = ImageGrid(rng.uniform(0, 255, (16, 16)))
        mask = SamplingMask(np.ones((16, 16), dtype=bool))
        res = reconstruct_image(img, mask, FsrParams(iterations=1))
        np.testing.assert_array_equal(res.image.samples, img.samples)
        assert res.fallback_blocks == []

    def test_zero_density_all_fallback(self):
        img = ImageGrid(np.full((16, 16), 50.0))
        mask = SamplingMask(np.zeros((16, 16), dtype=bool))
        res = reconstruct_image(img, mask, FsrParams(block_size=4, border=2, iterations=1))
        assert len(res.fallback_blocks) == 16
        assert np.all(res.image.samples == res.image.samples[0, 0])

    def test_known_samples_preserved_bit_exact(self):
        rng = np.random.default_rng(52)
        img = ImageGrid(rng.uniform(0, 255, (24, 24)))
        mask = generate_mask(24, 24, 0.4, 9)
        res = reconstruct_image(img, mask, FsrParams(block_size=4, border=6, iterations=20))
        np.testing.assert_array_equal(
            res.image.samples[mask.flags], img.samples[mask.flags]
        )

    def test_non_divisible_dimensions(self):
        rng = np.random.default_rng(53)
        img = ImageGrid(rng.uniform(0, 255, (18, 22)))
        mask = generate_mask(22, 18, 0.5, 2)
        res = reconstruct_image(img, mask, FsrParams(block_size=4, border=6, iterations=10))
        assert res.image.samples.shape == (18, 22)
        assert np.all(np.isfinite(res.image.samples))

    @pytest.mark.parametrize("bad", [-1.0, 255.5, 1000.0])
    def test_known_sample_out_of_range_raises(self, bad):
        samples = np.full((8, 8), 100.0)
        samples[3, 4] = bad
        flags = np.zeros((8, 8), dtype=bool)
        flags[3, 4] = flags[0, 0] = True
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            reconstruct_image(ImageGrid(samples), SamplingMask(flags), FsrParams(iterations=1))

    def test_single_pixel_mask(self):
        img = ImageGrid(np.full((12, 12), 200.0))
        flags = np.zeros((12, 12), dtype=bool)
        flags[5, 5] = True
        res = reconstruct_image(img, SamplingMask(flags), FsrParams(block_size=4, border=4, iterations=10))
        assert np.all(np.isfinite(res.image.samples))
        assert res.image.samples[5, 5] == 200.0


def all_b_ctx(M=8):
    """A window without a known sample: every path takes the fallback."""
    labels = np.full((M, M), AreaLabel.B, dtype=np.uint8)
    return BlockContext(labels=labels, values=np.zeros((M, M)))


@pytest.mark.parametrize("prior", ["adaptive", "otf"])
def test_entries_reject_a_mistyped_prior(prior):
    # a string would otherwise fall through to alpha = 0, the flat prior;
    # the all-unknown cases check it even where every window falls back
    message = re.escape(f"prior must be a PriorKind, got {prior!r}")
    img = ImageGrid(np.full((8, 8), 100.0))
    for flags in (np.ones((8, 8), dtype=bool), np.zeros((8, 8), dtype=bool)):
        with pytest.raises(ValueError, match=message):
            reconstruct_image(img, SamplingMask(flags), FsrParams(iterations=1), prior)
    for ctx in (random_ctx(np.random.default_rng(45), M=8), all_b_ctx()):
        with pytest.raises(ValueError, match=message):
            reconstruct_block_reference(ctx, FsrParams(iterations=1), prior=prior)


@pytest.mark.parametrize("entry", [reconstruct_block, reconstruct_block_reference])
@pytest.mark.parametrize("F", [1, 3])
def test_entries_take_exactly_one_window(entry, F):
    # a stack, even of one window, is reconstruct_image's to run
    one = random_ctx(np.random.default_rng(47), M=8)
    stack = BlockContext(np.stack([one.labels] * F), np.stack([one.values] * F))
    message = re.escape(f"{entry.__name__} takes one (M, M) window, got shape {(F, 8, 8)}")
    with pytest.raises(ValueError, match=message):
        entry(stack, FsrParams(iterations=1, block_size=4, border=2))


@pytest.mark.parametrize("entry", [reconstruct_block, reconstruct_block_reference])
@pytest.mark.parametrize("block_size, border", [(2, 2), (4, 14), (4, 0)])
def test_entries_reject_a_window_of_another_side(entry, block_size, border):
    # the geometry comes from the params alone: an 8x8 window cut for
    # B = 4, b = 2 must not be read as one of another block size or border
    params = FsrParams(iterations=1, block_size=block_size, border=border)
    message = re.escape(f"window side 8 is not params.window_size {params.window_size}")
    for ctx in (random_ctx(np.random.default_rng(48), M=8), all_b_ctx()):
        with pytest.raises(ValueError, match=message):
            entry(ctx, params)


@pytest.mark.parametrize("prior", ["adaptive", "otf"])
def test_reconstruct_block_rejects_a_mistyped_prior(prior):
    # prior_alphas reads any string as alpha = 0, the flat prior
    message = re.escape(f"prior must be a PriorKind, got {prior!r}")
    params = FsrParams(iterations=1, block_size=4, border=2)
    for ctx in (random_ctx(np.random.default_rng(46), M=8), all_b_ctx()):
        with pytest.raises(ValueError, match=message):
            reconstruct_block(ctx, params, prior=prior)
