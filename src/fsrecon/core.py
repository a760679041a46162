"""Iterative Fourier-domain model generation for stacks of extrapolation areas.

Each iteration projects the weighted residual onto all 2D DFT exponentials
at once, picks the frequency whose prior-modulated projection energy is
largest, and accumulates a damped coefficient for it together with its
conjugate partner so the model stays real.  The fast path keeps the
weighted residual purely in the frequency domain (one FFT of the weights
up front, a shifted-spectrum subtraction per iteration) and runs a stack
of independent windows through each step at once; a literal
spatial-domain implementation of the same update equations is retained as
the correctness oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from numpy.typing import NDArray

from .grid import (
    AreaLabel, BlockContext, ImageGrid, SamplingMask, build_block_context, check_inputs,
    pad_planes,
)
from .priors import PriorKind, build_prior_map, folded_radius_sq, prior_alphas
from .weighting import FsrParams, WeightMap, build_weight_map, check_kind, effective_density

@dataclass
class ModelState:
    """Mutable state of the greedy model generation for a stack of F windows.

    The weighted residual spectrum, (F, M/2+1, M), is kept for rows 0..M/2
    only: every bin of ``order`` lies there, and the rest follows by
    Hermitian symmetry.  Its last axis is the one record of the window
    side M that the state keeps.  Each window's weight spectrum is tiled into a (3M/2, 2M)
    tile, two copies side by side and the first M/2 rows of both again
    below, so the spectrum shifted by any bin (u, v), restricted to rows
    0..M/2, is a plain (M/2+1, M) slab of the tile.  ``weight_slabs[o]`` is
    the slab that starts at flat element o of the stacked tiles; window f's
    slab for a bin starts at ``tile_offsets[f]`` plus the bin's entry of
    ``_position_table(M).offsets``.  ``updates`` records, per iteration,
    the selected positions and the coefficients of the bins and their
    partners; ``synthesize_model`` accumulates them into ``coef``.

    The other fields are what every iteration reads: views of the
    residual as (F, (M/2+1)*M) rows and as one flat run with each row's
    start, the position table and its ``order``, and ``inv_weight_sum``,
    each window's 1/weight_sum repeated over the (F, 2P) float view of the
    projections, so that their scaling multiplies operands of one shape.
    """

    weighted_residual_spectrum: NDArray[np.complex128]
    weight_slabs: NDArray[np.complex128]
    tile_offsets: NDArray[np.intp]
    weight_sum: NDArray[np.float64]
    residual_rows: NDArray[np.complex128]
    residual_flat: NDArray[np.complex128]
    row_starts: NDArray[np.intp]
    table: _PositionTable
    order: NDArray[np.intp]
    inv_weight_sum: NDArray[np.float64]
    updates: list[tuple[NDArray[np.intp], NDArray[np.complex128]]] = field(
        default_factory=list
    )
    coef: NDArray[np.complex128] | None = None


@dataclass(frozen=True)
class ReconstructionResult:
    image: ImageGrid
    fallback_blocks: list[tuple[int, int]] = field(default_factory=list)


class _PositionTable(NamedTuple):
    """Update indices of each searched position.

    The positions are the canonical half-spectrum: one representative per
    conjugate pair (the lexicographically smaller index), ordered by folded
    radial frequency, then (k, l), so that a first-maximum argmax realizes
    the tie-breaking rule.  ``bins[0]`` is that order as flat bin indices.
    Axis 0 of ``offsets`` and ``bins`` is (bin, conjugate partner).
    """

    offsets: NDArray[np.intp]  # (2, P) slab starts in a window's (3M/2, 2M) weight tile
    bins: NDArray[np.intp]  # (2, P) flat bin indices into the full spectrum
    self_conjugate: NDArray[np.bool_]  # (P,)


@lru_cache(maxsize=8)
def _position_table(M: int) -> _PositionTable:
    """Slab offsets, bins and self-conjugacy of each position of an M x M window.

    The slab of bin (u, v) starts at tile row (M - u) % M and column
    (M - v) % M, so that its element (k, l) is W[(k - u) % M, (l - v) % M].
    Both starts are below M, so the slab's last row, at most M - 1 + M/2,
    and last column, at most 2M - 2, lie inside the (3M/2, 2M) tile; a
    taller tile would hold rows that no slab reads.
    """
    kk, ll = np.indices((M, M))
    ck, cl = (M - kk) % M, (M - ll) % M
    canonical = (kk < ck) | ((kk == ck) & (ll <= cl))
    radius = folded_radius_sq(kk, ll, M)
    order = np.lexsort((ll.ravel(), kk.ravel(), radius.ravel()))
    u, v = np.divmod(order[canonical.ravel()[order]], M)
    uu, vv = np.stack((u, (M - u) % M)), np.stack((v, (M - v) % M))
    table = _PositionTable(
        offsets=((M - uu) % M) * (2 * M) + (M - vv) % M,
        bins=uu * M + vv,
        self_conjugate=(uu[1] == u) & (vv[1] == v),
    )
    for a in table:
        a.flags.writeable = False
    return table


def _no_data(weight_sum: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Windows whose weight sum, the projection denominator of every
    frequency, has no finite positive reciprocal.

    The sum is zero when a window holds no data, and subnormal when its
    data lie only where ``rho_hat ** d`` underflows; 1/weight_sum then
    overflows and the projections turn NaN.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / weight_sum
    return ~((inv > 0.0) & (inv < np.inf))


def init_model_state(values: NDArray[np.float64], weight_map: WeightMap) -> ModelState:
    """Initial state of a stack of windows, (F, M, M); an (M, M) window is a stack of one.

    Rejects a window that holds no usable data (see ``_no_data``).
    """
    M = values.shape[-1]
    values, w = values.reshape(-1, M, M), weight_map.w.reshape(-1, M, M)
    weight_sum = np.reshape(weight_map.weight_sum, -1)
    if _no_data(weight_sum).any():
        raise ValueError("weight sum has no finite reciprocal; the window holds no usable data")
    tiles = np.empty((len(w), 3 * M // 2, 2, M), dtype=np.complex128)  # (F, 3M/2, 2M)
    tiles[:, :M] = np.fft.fft2(w)[:, :, None]
    tiles[:, M:] = tiles[:, : M // 2]
    half, step = M // 2 + 1, tiles.strides[-1]
    # every slab start a window's offsets can name, and no element beyond the tiles
    slabs = as_strided(
        tiles, shape=(tiles.size - (half - 1) * 2 * M - M + 1, half, M),
        strides=(step, 2 * M * step, step), writeable=False,
    )
    residual = np.fft.fft2(values * w)[:, :half].copy()
    table = _position_table(M)
    return ModelState(
        weighted_residual_spectrum=residual,
        weight_slabs=slabs,
        tile_offsets=np.arange(len(w)) * (3 * M * M),
        weight_sum=weight_sum,
        residual_rows=residual.reshape(len(w), -1),
        residual_flat=residual.reshape(-1),
        row_starts=np.arange(len(w)) * (half * M),
        table=table,
        order=table.bins[0],
        inv_weight_sum=np.repeat(1.0 / weight_sum, 2 * table.bins.shape[1]).reshape(len(w), -1),
    )


def projection_coefficients(state: ModelState) -> NDArray[np.complex128]:
    """Weighted projection of each window's residual at the bins of ``state.order``.

    The unit-modulus basis makes the projection denominator collapse to
    the plain weight sum, identical for every frequency.  Row-major flat
    indices of rows 0..M/2 are the same in the half and the full spectrum.

    The components are multiplied by 1/weight_sum rather than divided.
    numpy's complex-by-real divide computes (re + im*0)*(1/ws) and
    (im - re*0)*(1/ws), which differs from the multiply only in the sign
    of a zero; ``select_basis`` squares every component, so the selection
    is the same.  ``update_model`` takes its coefficients from the true
    divide, whose zeros the model keeps.
    """
    q = state.residual_rows.take(state.order, axis=1)
    parts = q.view(np.float64)
    np.multiply(parts, state.inv_weight_sum, out=parts)
    return q


def select_basis(
    q: NDArray[np.complex128], prior_weights: NDArray[np.float64]
) -> NDArray[np.intp]:
    """Per window, the position of the largest prior-modulated projection energy.

    ``q`` comes from ``projection_coefficients`` and ``prior_weights`` from
    ``build_prior_map`` at the bins of ``state.order``, which the
    result indexes.  The search runs over one representative per conjugate
    pair; partners carry mathematically equal objectives and the update
    treats the pair as a unit.  An all-zero objective yields DC.
    """
    return _selection_objective(q, prior_weights).argmax(axis=1)


def _selection_objective(
    q: NDArray[np.complex128], prior_weights: NDArray[np.float64]
) -> NDArray[np.float64]:
    obj = np.square(q.real)
    obj += np.square(q.imag)
    obj *= prior_weights
    return obj


def _is_self_conjugate(u: int, v: int, M: int) -> bool:
    return (2 * u) % M == 0 and (2 * v) % M == 0


def update_model(state: ModelState, j: NDArray[np.intp], params: FsrParams) -> ModelState:
    """Accumulate the damped coefficient at position j and its conjugate partner.

    The coefficient is gamma times the projection at j, by a true divide
    by the weight sum.  The weighted residual spectrum is updated in place
    by subtracting the correspondingly shifted weight spectra, which
    mirrors the spatial residual update exactly.  A self-conjugate bin
    takes one real coefficient; its partner term is then zero, which
    leaves the coefficients and every later selection unchanged.
    """
    F = len(j)
    p_uv = state.residual_flat.take(state.row_starts + state.order.take(j)) / state.weight_sum
    cc = np.empty(2 * F, dtype=np.complex128)  # the bins, then their partners
    c, partner = cc[:F], cc[F:]
    np.multiply(params.gamma, p_uv, out=c)
    np.conj(c, out=partner)
    # only 4 of the M*M/2+2 positions, but often selected: DC above all
    self_conj = state.table.self_conjugate.take(j)
    c.imag[self_conj] = 0.0
    partner[self_conj] = 0.0
    state.updates.append((j, cc))
    offsets = state.table.offsets.take(j, axis=1)
    offsets += state.tile_offsets
    shifted = state.weight_slabs[offsets]  # (2, F, M/2+1, M)
    flat = shifted.reshape(2 * F, -1)
    # coefficients first: with the operands swapped, numpy's fused complex
    # multiply gives other last bits
    np.multiply(cc[:, None], flat, out=flat)
    # two subtractions, bin then partner, round exactly as one window did
    state.weighted_residual_spectrum -= shifted[0]
    state.weighted_residual_spectrum -= shifted[1]
    return state


def synthesize_model(state: ModelState) -> NDArray[np.float64]:
    """Accumulate the recorded coefficients into ``state.coef`` and evaluate
    each window's model on its grid.

    One ``np.bincount`` for the real and one for the imaginary parts, in
    iteration order, bins before partners, sums every coefficient in the
    order of one accumulation per iteration, from +0.
    """
    F, M = len(state.weight_sum), state.weighted_residual_spectrum.shape[-1]
    j = np.array([j for j, _ in state.updates])  # (iterations, F)
    cc = np.array([cc for _, cc in state.updates])  # (iterations, 2F)
    bins = state.table.bins[:, j].transpose(1, 0, 2)  # (iterations, 2, F)
    at = (bins + np.arange(F) * (M * M)).ravel()
    coef = np.empty((F, M, M), dtype=np.complex128)
    coef.real = np.bincount(at, cc.real.ravel(), F * M * M).reshape(F, M, M)
    coef.imag = np.bincount(at, cc.imag.ravel(), F * M * M).reshape(F, M, M)
    state.coef = coef
    g = np.fft.ifft2(coef) * (M * M)
    return g.real


def _center_patch(
    ctx: BlockContext, params: FsrParams, g: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Center blocks of the models ``g``, clipped, with the known samples passed through.

    The block is ``params.block_size`` square and starts at window position
    ``(params.border, params.border)``.
    """
    b, B = params.border, params.block_size
    center = np.s_[..., b : b + B, b : b + B]
    patch = np.clip(g[center], 0.0, 255.0)
    known = ctx.labels[center] == AreaLabel.A.value
    patch[known] = ctx.values[center][known]
    return patch


def _set_up(
    ctx: BlockContext, params: FsrParams, prior: PriorKind, bins: NDArray[np.intp]
) -> tuple[WeightMap, NDArray[np.bool_], NDArray[np.float64]]:
    """The one check of ``prior`` and of the window side; then, for every
    window of ``ctx`` (a stack of F, or one window as F = 1), the weight
    map, the no-data mask (``_no_data``) and the prior weights
    (F, len(bins)) at ``bins``.

    The side must be ``params.window_size``: the geometry is read from
    ``params`` alone, so a window cut for other parameters is rejected.
    """
    check_kind("prior", prior, PriorKind, "a PriorKind")
    M = params.window_size
    if ctx.labels.shape[-1] != M:
        raise ValueError(f"window side {ctx.labels.shape[-1]} is not params.window_size {M}")
    wm = build_weight_map(ctx, params)
    alphas = prior_alphas(prior, effective_density(ctx, wm, params), params)
    return wm, _no_data(wm.weight_sum), build_prior_map(M, alphas, bins)


def _reconstruct_blocks(
    ctx: BlockContext,
    params: FsrParams,
    fallback_values: NDArray[np.float64],
    traces: Sequence[list] | None = None,
    prior: PriorKind = PriorKind.ADAPTIVE,
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Center patches (F, B, B) of a stack of independent windows, and whether
    each window took the fallback (F,).

    ``_set_up`` builds the weights, the no-data mask and the prior weights
    once for the stack.  Every window starts at its fallback value, which a
    window without usable data keeps for its unknown pixels.  The others
    run through the kernel as one stack, whose peak allocation is about
    148 kB per 32x32 window, and take its models.
    """
    M = params.window_size
    wm, no_data, prior_weights = _set_up(ctx, params, prior, _position_table(M).bins[0])
    g = np.repeat(fallback_values, M * M).reshape(ctx.values.shape)
    idx = np.flatnonzero(~no_data)
    if len(idx):
        state = init_model_state(ctx.values[idx], WeightMap(wm.w[idx], wm.weight_sum[idx]))
        prior_weights = prior_weights[idx]
        for _ in range(params.iterations):
            q = projection_coefficients(state)
            j = select_basis(q, prior_weights)
            update_model(state, j, params)
        if traces is not None:
            u, v = np.divmod(state.order[np.array([j for j, _ in state.updates])].T, M)
            for i, uu, vv in zip(idx, u.tolist(), v.tolist()):
                traces[i].extend(zip(uu, vv))
        g[idx] = synthesize_model(state)
    return _center_patch(ctx, params, g), no_data


def reconstruct_block(
    ctx: BlockContext,
    params: FsrParams,
    fallback_value: float = 128.0,
    selection_trace: list | None = None,
    prior: PriorKind = PriorKind.ADAPTIVE,
) -> tuple[NDArray[np.float64], bool]:
    """Reconstruct the center block of one window; FFT fast path.

    Returns the B x B patch and whether the window took the fallback: a
    window without usable data fills its unknown center pixels with
    ``fallback_value``, which must be finite.
    """
    if not np.isfinite(fallback_value):
        raise ValueError(f"fallback_value must be finite, got {fallback_value}")
    stack = BlockContext(ctx.labels[None], ctx.values[None])
    traces = None if selection_trace is None else [selection_trace]
    patches, fallback = _reconstruct_blocks(
        stack, params, np.array([fallback_value]), traces, prior
    )
    return patches[0], bool(fallback[0])


@lru_cache(maxsize=8)
def _dft_exponentials(M: int) -> NDArray[np.complex128]:
    m = np.arange(M)
    E = np.exp(2j * np.pi * np.outer(m, m) / M)
    E.flags.writeable = False
    return E


def reconstruct_block_reference(
    ctx: BlockContext,
    params: FsrParams,
    fallback_value: float = 128.0,
    selection_trace: list | None = None,
    energy_trace: list | None = None,
    prior: PriorKind = PriorKind.ADAPTIVE,
) -> tuple[NDArray[np.float64], bool]:
    """Literal spatial-domain implementation of the same model generation.

    Keeps the residual and model as pixel arrays, evaluates projections
    and the selection objective by direct sums over the window, and
    updates the residual per basis function.  Serves as the oracle for
    the fast path; O(iterations * M^4).  Weights, no-data mask and prior
    weights come from ``_set_up``, as on the fast path, at every bin.
    ``fallback_value`` must be finite, as for ``reconstruct_block``.
    """
    if not np.isfinite(fallback_value):
        raise ValueError(f"fallback_value must be finite, got {fallback_value}")
    M = params.window_size
    wm, no_data, prior_weights = _set_up(ctx, params, prior, np.arange(M * M))
    if no_data:
        return _center_patch(ctx, params, np.full(ctx.values.shape, fallback_value)), True

    w = wm.w
    E = _dft_exponentials(M)  # E[m, k] = exp(+2j pi m k / M)
    # per-frequency denominator of the projection, evaluated literally
    denom = (np.abs(E) ** 2).T @ w @ (np.abs(E) ** 2)

    r = ctx.values.copy()
    g = np.zeros((M, M))
    order = _position_table(M).bins[0]
    for _ in range(params.iterations):
        num = E.conj().T @ (r * w) @ E.conj()
        p = num / denom
        obj = (p.real**2 + p.imag**2) * prior_weights.reshape(M, M) * denom
        flat = obj.ravel()[order]
        idx = order[int(np.argmax(flat))]
        u, v = int(idx // M), int(idx % M)
        if selection_trace is not None:
            selection_trace.append((u, v))
        c = params.gamma * p[u, v]
        phi = np.outer(E[:, u], E[:, v])
        if _is_self_conjugate(u, v, M):
            upd = c.real * phi.real
        else:
            upd = 2.0 * (c * phi).real
        g += upd
        r -= upd
        if energy_trace is not None:
            energy_trace.append(float(np.sum(w * r**2)))
    return _center_patch(ctx, params, g), False


def reconstruct_image(
    image: ImageGrid, mask: SamplingMask, params: FsrParams,
    prior: PriorKind = PriorKind.ADAPTIVE,
) -> ReconstructionResult:
    """Block-wise reconstruction of a whole image, bit-identical to raster order.

    Pixels filled by raster-earlier blocks support later windows with
    attenuated weight.  Blocks run in wavefronts t = col + k*row with
    k = ceil(border / block_size) + 1: a window reaches ceil(border /
    block_size) blocks to each side, so it overlaps no other block of its
    front and no raster-later block of an earlier front.  Each front is
    gathered, reconstructed and pasted back as one stack.  Known samples
    pass through bit-identically.  A block whose window holds no usable
    data (zero weight sum, or one too small for a finite reciprocal) takes
    the fallback: its unknown pixels get the mean of the known pixels in
    raster-earlier blocks.  ``fallback_blocks`` lists, in raster order,
    exactly the blocks that filled at least one pixel with that value.
    ``prior`` is the rule for each window's prior exponent alpha (see
    ``priors``).
    """
    known_values = check_inputs(image, mask)
    H, W = image.height, image.width
    B, b = params.block_size, params.border

    labels, out = pad_planes(image, mask, B, b)
    # views: they see every paste-back
    windows = [sliding_window_view(p, (params.window_size,) * 2) for p in (labels, out)]
    global_mean = float(known_values.mean()) if known_values.size else 128.0

    origins = np.mgrid[0:H:B, 0:W:B].reshape(2, -1).T  # block origins in raster order
    fallback_values = np.empty(len(origins))
    seen_sum, seen_cnt = 0.0, 0
    for i, (r0, c0) in enumerate(origins):  # raster order, as the sums must be
        fallback_values[i] = seen_sum / seen_cnt if seen_cnt else global_mean
        blk_known = mask.flags[r0 : r0 + B, c0 : c0 + B]
        seen_sum += float(image.samples[r0 : r0 + B, c0 : c0 + B][blk_known].sum())
        seen_cnt += int(np.count_nonzero(blk_known))

    front = origins @ (-(-b // B) + 1, 1)  # B * (col + k*row)
    by_front = np.argsort(front, kind="stable")
    fell_back = np.zeros(len(origins), dtype=bool)
    # flat plane offsets of a center block from its block's image origin
    cell = np.arange(b, b + B)[:, None] * out.shape[1] + np.arange(b, b + B)
    for members in np.split(by_front, np.flatnonzero(np.diff(front[by_front])) + 1):
        ctx = build_block_context(*windows, origins[members])
        patches, no_data = _reconstruct_blocks(ctx, params, fallback_values[members], prior=prior)
        at = (origins[members] @ (out.shape[1], 1))[:, None, None] + cell
        fill = labels.flat[at] == AreaLabel.B.value
        out.flat[at[fill]] = patches[fill]
        # fallback fills carry no signal model; they must not support
        # later windows as reconstructed samples
        labels.flat[at[fill & ~no_data[:, None, None]]] = AreaLabel.R.value
        fell_back[members] = no_data & fill.any(axis=(1, 2))

    return ReconstructionResult(
        image=ImageGrid(out[b : b + H, b : b + W]),
        fallback_blocks=[(int(r0), int(c0)) for r0, c0 in origins[fell_back]],
    )
