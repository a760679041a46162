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

    The weighted residual spectrum is kept for rows 0..M/2 only: every bin
    of ``order`` lies there, and the rest follows by Hermitian
    symmetry.  Each window's weight spectrum is tiled into a (3M/2, 2N)
    tile, two copies side by side and the first M/2 rows of both again
    below, so the spectrum shifted by any bin (u, v), restricted to rows
    0..M/2, is a plain (M/2+1, N) slab of the tile.  ``weight_slabs[o]`` is
    the slab that starts at flat element o of the stacked tiles; window f's
    slab for a bin starts at ``tile_offsets[f]`` plus the bin's entry of
    ``_position_table(M, N).offsets``.  ``updates`` records, per iteration,
    the selected positions and the coefficients of the bins and their
    partners; ``synthesize_model`` accumulates them into ``coef``.
    """

    weighted_residual_spectrum: NDArray[np.complex128]
    weight_slabs: NDArray[np.complex128]
    tile_offsets: NDArray[np.intp]
    weight_sum: NDArray[np.float64]
    M: int
    N: int
    updates: list[tuple[NDArray[np.intp], NDArray[np.complex128]]] = field(
        default_factory=list
    )
    coef: NDArray[np.complex128] | None = None
    # per-stack caches of the per-iteration layers: views of the residual
    # as (F, (M/2+1)*N) rows and as one flat run with each row's start
    residual_rows: NDArray[np.complex128] = field(init=False, repr=False)
    residual_flat: NDArray[np.complex128] = field(init=False, repr=False)
    row_starts: NDArray[np.intp] = field(init=False, repr=False)
    order: NDArray[np.intp] = field(init=False, repr=False)
    inv_weight_sum: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        F = len(self.weight_sum)
        self.residual_rows = self.weighted_residual_spectrum.reshape(F, -1)
        self.residual_flat = self.residual_rows.reshape(-1)
        self.row_starts = np.arange(F) * self.residual_rows.shape[1]
        self.order = _position_table(self.M, self.N).bins[0]
        self.inv_weight_sum = (1.0 / self.weight_sum)[:, None]


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

    offsets: NDArray[np.intp]  # (2, P) slab starts in a window's (3M/2, 2N) weight tile
    bins: NDArray[np.intp]  # (2, P) flat bin indices into the full spectrum
    self_conjugate: NDArray[np.bool_]  # (P,)


@lru_cache(maxsize=8)
def _position_table(M: int, N: int) -> _PositionTable:
    """Slab offsets, bins and self-conjugacy of each position.

    The slab of bin (u, v) starts at tile row (M - u) % M and column
    (N - v) % N, so that its element (k, l) is W[(k - u) % M, (l - v) % N].
    Both starts are below M and N, so the slab's last row, at most
    M - 1 + M/2, and last column, at most 2N - 2, lie inside the (3M/2, 2N)
    tile; a taller tile would hold rows that no slab reads.
    """
    kk, ll = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
    ck, cl = (M - kk) % M, (N - ll) % N
    canonical = (kk < ck) | ((kk == ck) & (ll <= cl))
    radius = folded_radius_sq(kk, ll, M, N)
    order = np.lexsort((ll.ravel(), kk.ravel(), radius.ravel()))
    u, v = np.divmod(order[canonical.ravel()[order]], N)
    uu, vv = np.stack((u, (M - u) % M)), np.stack((v, (N - v) % N))
    table = _PositionTable(
        offsets=((M - uu) % M) * (2 * N) + (N - vv) % N,
        bins=uu * N + vv,
        self_conjugate=(uu[1] == u) & (vv[1] == v),
    )
    for a in table:
        a.flags.writeable = False
    return table


def init_model_state(values: NDArray[np.float64], weight_map: WeightMap) -> ModelState:
    """Initial state of a stack of windows, (F, M, N); an (M, N) window is a stack of one.

    Rejects a window that holds no data: its weight sum, the projection
    denominator of every frequency, is zero.
    """
    M, N = values.shape[-2:]
    values, w = values.reshape(-1, M, N), weight_map.w.reshape(-1, M, N)
    weight_sum = np.reshape(weight_map.weight_sum, -1)
    if weight_sum.min() <= 0.0:
        raise ValueError("weight sum is zero; the window holds no data")
    tiles = np.empty((len(w), 3 * M // 2, 2, N), dtype=np.complex128)  # (F, 3M/2, 2N)
    tiles[:, :M] = np.fft.fft2(w)[:, :, None]
    tiles[:, M:] = tiles[:, : M // 2]
    half, step = M // 2 + 1, tiles.strides[-1]
    # every slab start a window's offsets can name, and no element beyond the tiles
    slabs = as_strided(
        tiles, shape=(tiles.size - (half - 1) * 2 * N - N + 1, half, N),
        strides=(step, 2 * N * step, step), writeable=False,
    )
    return ModelState(
        weighted_residual_spectrum=np.fft.fft2(values * w)[:, :half].copy(),
        weight_slabs=slabs,
        tile_offsets=np.arange(len(w)) * (3 * M * N),
        weight_sum=weight_sum,
        M=M,
        N=N,
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
    q = np.take(state.residual_rows, state.order, axis=1)
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
    sq = np.square(q.view(np.float64))  # real**2, imag**2 interleaved
    obj = sq[:, 0::2] + sq[:, 1::2]
    obj *= prior_weights
    return obj


def _is_self_conjugate(u: int, v: int, M: int, N: int) -> bool:
    return (2 * u) % M == 0 and (2 * v) % N == 0


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
    table = _position_table(state.M, state.N)
    p_uv = state.residual_flat[state.row_starts + state.order[j]] / state.weight_sum
    cc = np.empty(2 * F, dtype=np.complex128)  # the bins, then their partners
    c = cc[:F]
    np.multiply(params.gamma, p_uv, out=c)
    self_conj = table.self_conjugate[j]
    if self_conj.any():  # rare: only 4 of the M*N/2+2 positions
        c[:] = np.where(self_conj, c.real, c)
        cc[F:] = np.where(self_conj, 0.0, np.conj(c))
    else:
        np.conj(c, out=cc[F:])
    state.updates.append((j, cc))
    offsets = table.offsets[:, j]
    offsets += state.tile_offsets
    shifted = state.weight_slabs[offsets]  # (2, F, M/2+1, N)
    flat = shifted.reshape(2 * F, -1)
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
    F, M, N = len(state.weight_sum), state.M, state.N
    j = np.array([j for j, _ in state.updates])  # (iterations, F)
    cc = np.array([cc for _, cc in state.updates])  # (iterations, 2F)
    bins = _position_table(M, N).bins[:, j].transpose(1, 0, 2)  # (iterations, 2, F)
    at = (bins + np.arange(F) * (M * N)).ravel()
    coef = np.empty((F, M, N), dtype=np.complex128)
    coef.real = np.bincount(at, cc.real.ravel(), F * M * N).reshape(F, M, N)
    coef.imag = np.bincount(at, cc.imag.ravel(), F * M * N).reshape(F, M, N)
    state.coef = coef
    g = np.fft.ifft2(coef) * (M * N)
    return g.real


def _center_patch(ctx: BlockContext, g: NDArray[np.float64]) -> NDArray[np.float64]:
    """Center blocks of the models ``g``, clipped, with the known samples passed through."""
    b, B = ctx.border, ctx.block_size
    center = np.s_[..., b : b + B, b : b + B]
    patch = np.clip(g[center], 0.0, 255.0)
    known = ctx.labels[center] == AreaLabel.A.value
    patch[known] = ctx.values[center][known]
    return patch


def _reconstruct_blocks(
    ctx: BlockContext,
    params: FsrParams,
    fallback_values: NDArray[np.float64],
    traces: Sequence[list] | None = None,
    prior: PriorKind = PriorKind.ADAPTIVE,
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Center patches (F, B, B) and fallback flags (F,) of a stack of independent windows.

    Weights, omegas and priors are built once for the stack.  A window
    without data gets its fallback value; the others run through the kernel
    as one stack, whose peak allocation is about 148 kB per 32x32 window.
    """
    wm = build_weight_map(ctx, params)
    omega = effective_density(ctx, wm, params)
    fallback = omega == 0.0
    g = np.empty(ctx.values.shape)
    g[fallback] = fallback_values[fallback, None, None]
    idx = np.flatnonzero(~fallback)
    if len(idx):
        state = init_model_state(ctx.values[idx], WeightMap(wm.w[idx], wm.weight_sum[idx]))
        alphas = prior_alphas(prior, omega[idx], params)
        prior_weights = build_prior_map(ctx.M, ctx.N, alphas, state.order)
        for _ in range(params.iterations):
            q = projection_coefficients(state)
            j = select_basis(q, prior_weights)
            if traces is not None:
                u, v = np.divmod(state.order[j], state.N)
                for i, uv in zip(idx, zip(u.tolist(), v.tolist())):
                    traces[i].append(uv)
            update_model(state, j, params)
        g[idx] = synthesize_model(state)
    return _center_patch(ctx, g), fallback


def reconstruct_block(
    ctx: BlockContext,
    params: FsrParams,
    fallback_value: float = 128.0,
    selection_trace: list | None = None,
    prior: PriorKind = PriorKind.ADAPTIVE,
) -> tuple[NDArray[np.float64], bool]:
    """Reconstruct the center block of one window; FFT fast path.

    Returns the B x B patch and a flag marking the zero-data fallback
    (window without any known or reconstructed sample), in which case the
    unknown center pixels are filled with ``fallback_value``.
    """
    check_kind("prior", prior, PriorKind, "a PriorKind")
    stack = BlockContext(ctx.block_size, ctx.border, ctx.labels[None], ctx.values[None])
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
    the fast path; O(iterations * (M*N)^2).
    """
    check_kind("prior", prior, PriorKind, "a PriorKind")
    wm = build_weight_map(ctx, params)
    omega = effective_density(ctx, wm, params)
    if omega == 0.0:
        return _center_patch(ctx, np.full(ctx.values.shape, fallback_value)), True

    M, N = ctx.M, ctx.N
    prior_weights = build_prior_map(
        M, N, prior_alphas(prior, np.array([omega]), params), np.arange(M * N)
    )
    w = wm.w
    E_M = _dft_exponentials(M)  # E[m, k] = exp(+2j pi m k / M)
    E_N = _dft_exponentials(N)
    # per-frequency denominator of the projection, evaluated literally
    denom = (np.abs(E_M) ** 2).T @ w @ (np.abs(E_N) ** 2)

    r = ctx.values.copy()
    g = np.zeros((M, N))
    order = _position_table(M, N).bins[0]
    for _ in range(params.iterations):
        num = E_M.conj().T @ (r * w) @ E_N.conj()
        p = num / denom
        obj = (p.real**2 + p.imag**2) * prior_weights.reshape(M, N) * denom
        flat = obj.ravel()[order]
        idx = order[int(np.argmax(flat))]
        u, v = int(idx // N), int(idx % N)
        if selection_trace is not None:
            selection_trace.append((u, v))
        c = params.gamma * p[u, v]
        phi = np.outer(E_M[:, u], E_N[:, v])
        if _is_self_conjugate(u, v, M, N):
            upd = c.real * phi.real
        else:
            upd = 2.0 * (c * phi).real
        g += upd
        r -= upd
        if energy_trace is not None:
            energy_trace.append(float(np.sum(w * r**2)))
    return _center_patch(ctx, g), False


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
    pass through bit-identically.  Blocks whose window contains no data
    are filled with the mean of the known pixels in raster-earlier blocks
    and reported in ``fallback_blocks``, in raster order.  ``prior`` is the
    rule for each window's prior exponent alpha (see ``priors``).
    """
    check_kind("prior", prior, PriorKind, "a PriorKind")
    known_values = check_inputs(image, mask)
    H, W = image.height, image.width
    B, b = params.block_size, params.border

    labels, out = pad_planes(image, mask, B, b)
    # views: they see every paste-back
    windows = [sliding_window_view(p, (B + 2 * b,) * 2) for p in (labels, out)]
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
        ctx = build_block_context(*windows, origins[members], B, b)
        patches, fell_back[members] = _reconstruct_blocks(
            ctx, params, fallback_values[members], prior=prior
        )
        at = (origins[members] @ (out.shape[1], 1))[:, None, None] + cell
        fill = labels.flat[at] == AreaLabel.B.value
        out.flat[at[fill]] = patches[fill]
        # fallback fills carry no signal model; they must not support
        # later windows as reconstructed samples
        labels.flat[at[fill & ~fell_back[members, None, None]]] = AreaLabel.R.value

    return ReconstructionResult(
        image=ImageGrid(out[b : b + H, b : b + W]),
        fallback_blocks=[(int(r0), int(c0)) for r0, c0 in origins[fell_back]],
    )
