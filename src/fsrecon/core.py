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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .grid import AreaLabel, BlockContext, ImageGrid, SamplingMask, build_block_context
from .priors import PriorMap, build_prior_map
from .weighting import FsrParams, WeightMap, build_weight_map, effective_density

# Windows per kernel call.  Each window adds about 150 kB of stacked
# arrays, so the cap bounds peak memory whatever the image size.
_MAX_STACK = 16


@dataclass
class ModelState:
    """Mutable state of the greedy model generation for a stack of F windows.

    ``shifted_weight_spectra[f, m, N - v]`` is row m of window f's weight
    spectrum rolled by v columns: a view into the spectrum tiled twice
    along its columns.  ``_rolled_rows`` supplies the rows of a roll by u.
    """

    coef: NDArray[np.complex128]
    weighted_residual_spectrum: NDArray[np.complex128]
    shifted_weight_spectra: NDArray[np.complex128]
    weight_sum: NDArray[np.float64]
    nu: int = 0

    @property
    def M(self) -> int:
        return self.coef.shape[1]

    @property
    def N(self) -> int:
        return self.coef.shape[2]


@dataclass(frozen=True)
class ReconstructionResult:
    image: ImageGrid
    fallback_blocks: list[tuple[int, int]] = field(default_factory=list)


@lru_cache(maxsize=8)
def _selection_order(M: int, N: int) -> NDArray[np.intp]:
    """Flat bin indices of the canonical half-spectrum, in tie-break order.

    One representative per conjugate pair (the lexicographically smaller
    index); ordered by folded radial frequency, then (k, l), so that a
    first-maximum argmax realizes the tie-breaking rule.
    """
    k = np.arange(M)
    l = np.arange(N)
    kk, ll = np.meshgrid(k, l, indexing="ij")
    ck, cl = (M - kk) % M, (N - ll) % N
    canonical = (kk < ck) | ((kk == ck) & (ll <= cl))
    kt = M / 2.0 - np.abs(kk - M / 2.0)
    lt = N / 2.0 - np.abs(ll - N / 2.0)
    radius = kt**2 / M**2 + lt**2 / N**2
    order = np.lexsort((ll.ravel(), kk.ravel(), radius.ravel()))
    order = order[canonical.ravel()[order]]
    order.flags.writeable = False
    return order


@lru_cache(maxsize=8)
def _rolled_rows(M: int) -> NDArray[np.intp]:
    """Row u lists the source rows of a spectrum rolled by u rows."""
    rows = (np.arange(M) - np.arange(M)[:, None]) % M
    rows.flags.writeable = False
    return rows


def init_model_state(
    ctxs: Sequence[BlockContext], weight_maps: Sequence[WeightMap]
) -> ModelState:
    """Initial state of a stack of equally sized windows."""
    values = np.stack([ctx.values for ctx in ctxs])
    w = np.stack([wm.w for wm in weight_maps])
    W = np.fft.fft2(w)
    return ModelState(
        coef=np.zeros(w.shape, dtype=np.complex128),
        weighted_residual_spectrum=np.fft.fft2(values * w),
        shifted_weight_spectra=sliding_window_view(
            np.concatenate((W, W), axis=2), W.shape[2], axis=2
        ),
        weight_sum=np.array([wm.weight_sum for wm in weight_maps]),
    )


def projection_coefficients(state: ModelState) -> NDArray[np.complex128]:
    """Weighted projection of each window's residual onto every DFT exponential.

    The unit-modulus basis makes the projection denominator collapse to
    the plain weight sum, identical for every frequency.
    """
    if state.weight_sum.min() <= 0.0:
        raise ValueError("weight sum is zero; the window holds no data")
    return state.weighted_residual_spectrum / state.weight_sum[:, None, None]


def stack_priors(priors: Sequence[PriorMap]) -> NDArray[np.float64]:
    """Prior weights of each window at the bins of ``_selection_order``."""
    M, N = priors[0].wf.shape
    order = _selection_order(M, N)
    return np.stack([prior.wf.ravel()[order] for prior in priors])


def select_basis(
    p: NDArray[np.complex128], prior_weights: NDArray[np.float64], state: ModelState
) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Per window, the frequency with the largest prior-modulated projection energy.

    ``prior_weights`` comes from ``stack_priors``.  The search runs over
    one representative per conjugate pair; partners carry mathematically
    equal objectives and the update treats the pair as a unit.  An
    all-zero objective yields DC.
    """
    order = _selection_order(state.M, state.N)
    q = np.take(p.reshape(len(p), -1), order, axis=1)
    sq = np.square(q.view(np.float64).reshape(*q.shape, 2))  # real**2, imag**2
    obj = (sq[..., 0] + sq[..., 1]) * prior_weights
    return np.divmod(order[obj.argmax(axis=1)], state.N)


def _is_self_conjugate(u: int, v: int, M: int, N: int) -> bool:
    return (2 * u) % M == 0 and (2 * v) % N == 0


def update_model(
    state: ModelState, u: NDArray[np.intp], v: NDArray[np.intp],
    p_uv: NDArray[np.complex128], params: FsrParams,
) -> ModelState:
    """Accumulate the damped coefficient at (u, v) and its conjugate partner.

    The weighted residual spectrum is updated in place by subtracting the
    correspondingly shifted weight spectra, which mirrors the spatial
    residual update exactly.  A self-conjugate bin takes one real
    coefficient; its partner term is then zero, which leaves the
    coefficients and every later selection unchanged.
    """
    M, N = state.M, state.N
    F = len(u)
    uu = np.concatenate((u, (M - u) % M))  # the bins, then their partners
    vv = np.concatenate((v, (N - v) % N))
    ff = np.arange(2 * F) % F
    self_conj = (uu[F:] == u) & (vv[F:] == v)
    c = params.gamma * p_uv
    c = np.where(self_conj, c.real, c)
    cc = np.concatenate((c, np.where(self_conj, 0.0, np.conj(c))))
    np.add.at(state.coef, (ff, uu, vv), cc)
    rows = _rolled_rows(M)[uu]
    shifted = state.shifted_weight_spectra[ff[:, None], rows, (N - vv)[:, None]]
    np.multiply(cc[:, None, None], shifted, out=shifted)
    # two subtractions, bin then partner, round exactly as one window did
    state.weighted_residual_spectrum -= shifted[:F]
    state.weighted_residual_spectrum -= shifted[F:]
    state.nu += 1
    return state


def synthesize_model(state: ModelState) -> NDArray[np.float64]:
    """Evaluate each window's accumulated model on its grid."""
    g = np.fft.ifft2(state.coef) * (state.M * state.N)
    return g.real


def _center_patch(
    ctx: BlockContext, g: NDArray[np.float64]
) -> NDArray[np.float64]:
    b, B = ctx.border, ctx.block_size
    labels = ctx.labels[b : b + B, b : b + B]
    patch = np.clip(g[b : b + B, b : b + B], 0.0, 255.0)
    known = labels == AreaLabel.A
    patch[known] = ctx.values[b : b + B, b : b + B][known]
    return patch


def _model_patches(
    ctxs: Sequence[BlockContext],
    weight_maps: Sequence[WeightMap],
    priors: Sequence[PriorMap],
    params: FsrParams,
    traces: Sequence[list] | None,
) -> list[NDArray[np.float64]]:
    """Center patches of a stack of windows that hold data: the kernel."""
    state = init_model_state(ctxs, weight_maps)
    prior_weights = stack_priors(priors)
    f = np.arange(len(ctxs))
    for _ in range(params.iterations):
        p = projection_coefficients(state)
        u, v = select_basis(p, prior_weights, state)
        if traces is not None:
            for trace, uv in zip(traces, zip(u.tolist(), v.tolist())):
                trace.append(uv)
        p_uv = p[f, u, v]
        del p  # frees the full projection before the update's temporaries
        update_model(state, u, v, p_uv, params)
    g = synthesize_model(state)
    return [_center_patch(ctx, gi) for ctx, gi in zip(ctxs, g)]


def _reconstruct_blocks(
    ctxs: Sequence[BlockContext],
    params: FsrParams,
    fallback_values: Sequence[float],
    traces: Sequence[list] | None = None,
) -> list[tuple[NDArray[np.float64], bool]]:
    """Center patches and fallback flags of independent windows, fast path.

    Set-up runs per window; the windows that hold data run through the
    kernel in stacks of at most ``_MAX_STACK``.
    """
    results: list = [None] * len(ctxs)
    stack = []
    for i, (ctx, fallback_value) in enumerate(zip(ctxs, fallback_values)):
        wm = build_weight_map(ctx, params)
        omega = effective_density(ctx, wm, params)
        if omega == 0.0:
            fill = np.broadcast_to(float(fallback_value), (ctx.M, ctx.N))
            results[i] = (_center_patch(ctx, fill), True)
        else:
            prior = build_prior_map(params.prior_kind, ctx.M, ctx.N, omega, params)
            stack.append((i, ctx, wm, prior))
    for s in range(0, len(stack), _MAX_STACK):
        idx, cs, wms, pms = zip(*stack[s : s + _MAX_STACK])
        ts = None if traces is None else [traces[i] for i in idx]
        for i, patch in zip(idx, _model_patches(cs, wms, pms, params, ts)):
            results[i] = (patch, False)
    return results


def reconstruct_block(
    ctx: BlockContext,
    params: FsrParams,
    fallback_value: float = 128.0,
    selection_trace: list | None = None,
) -> tuple[NDArray[np.float64], bool]:
    """Reconstruct the center block of one window; FFT fast path.

    Returns the B x B patch and a flag marking the zero-data fallback
    (window without any known or reconstructed sample), in which case the
    unknown center pixels are filled with ``fallback_value``.
    """
    traces = None if selection_trace is None else [selection_trace]
    return _reconstruct_blocks([ctx], params, [fallback_value], traces)[0]


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
) -> tuple[NDArray[np.float64], bool]:
    """Literal spatial-domain implementation of the same model generation.

    Keeps the residual and model as pixel arrays, evaluates projections
    and the selection objective by direct sums over the window, and
    updates the residual per basis function.  Serves as the oracle for
    the fast path; O(iterations * (M*N)^2).
    """
    wm = build_weight_map(ctx, params)
    omega = effective_density(ctx, wm, params)
    if omega == 0.0:
        return reconstruct_block(ctx, params, fallback_value, None)

    M, N = ctx.M, ctx.N
    prior = build_prior_map(params.prior_kind, M, N, omega, params)
    w = wm.w
    E_M = _dft_exponentials(M)  # E[m, k] = exp(+2j pi m k / M)
    E_N = _dft_exponentials(N)
    # per-frequency denominator of the projection, evaluated literally
    denom = (np.abs(E_M) ** 2).T @ w @ (np.abs(E_N) ** 2)

    r = ctx.values.copy()
    g = np.zeros((M, N))
    order = _selection_order(M, N)
    for _ in range(params.iterations):
        num = E_M.conj().T @ (r * w) @ E_N.conj()
        p = num / denom
        obj = (p.real**2 + p.imag**2) * prior.wf * denom
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
    image: ImageGrid,
    mask: SamplingMask,
    params: FsrParams,
    reference: bool = False,
) -> ReconstructionResult:
    """Block-wise reconstruction of a whole image, bit-identical to raster order.

    Pixels filled by raster-earlier blocks support later windows with
    attenuated weight.  Blocks run in wavefronts t = col + k*row with
    k = ceil(border / block_size) + 1: a window reaches ceil(border /
    block_size) blocks to each side, so it overlaps no other block of its
    front and no raster-later block of an earlier front.  Known samples
    pass through bit-identically.  Blocks whose window contains no data
    are filled with the mean of the known pixels in raster-earlier blocks
    and reported in ``fallback_blocks``, in raster order.
    ``reference=True`` runs the spatial-domain oracle on every block.
    """
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError("image and mask dimensions differ")
    H, W = image.height, image.width
    B = params.block_size
    n_rows, n_cols = -(-H // B), -(-W // B)

    out = np.where(mask.flags, image.samples, 0.0)
    recon_map = np.zeros((H, W), dtype=bool)
    known = mask.flags
    global_mean = float(image.samples[known].mean()) if known.any() else 128.0

    fallback_values = np.empty(n_rows * n_cols)
    seen_sum, seen_cnt = 0.0, 0
    for i in range(n_rows * n_cols):  # raster order, as the sums must be
        r0, c0 = (i // n_cols) * B, (i % n_cols) * B
        fallback_values[i] = seen_sum / seen_cnt if seen_cnt else global_mean
        blk_known = known[r0 : r0 + B, c0 : c0 + B]
        seen_sum += float(image.samples[r0 : r0 + B, c0 : c0 + B][blk_known].sum())
        seen_cnt += int(np.count_nonzero(blk_known))

    rows, cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    front = cols + (-(-params.border // B) + 1) * rows
    by_front = np.argsort(front, kind="stable")
    fallback_blocks: list[tuple[int, int]] = []
    for members in np.split(by_front, np.flatnonzero(np.diff(front[by_front])) + 1):
        origins = [(int(r) * B, int(c) * B) for r, c in zip(rows[members], cols[members])]
        ctxs = [
            build_block_context(image, mask, recon_map, out, o, B, params.border)
            for o in origins
        ]
        fbs = fallback_values[members]
        if reference:
            results = [reconstruct_block_reference(c, params, fb) for c, fb in zip(ctxs, fbs)]
        else:
            results = _reconstruct_blocks(ctxs, params, fbs)
        for (r0, c0), (patch, used_fb) in zip(origins, results):
            r1, c1 = min(r0 + B, H), min(c0 + B, W)
            fill = ~known[r0:r1, c0:c1]
            out[r0:r1, c0:c1][fill] = patch[: r1 - r0, : c1 - c0][fill]
            if used_fb:
                fallback_blocks.append((r0, c0))
            else:
                # fallback fills carry no signal model; they must not
                # support later windows as reconstructed samples
                recon_map[r0:r1, c0:c1][fill] = True

    fallback_blocks.sort()
    return ReconstructionResult(image=ImageGrid(out), fallback_blocks=fallback_blocks)
