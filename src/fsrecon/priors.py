"""Frequency priors steering the greedy basis selection.

The prior at bin (k, l) is base ** (2*alpha), with base = 1 - sqrt(2) *
sqrt(kt^2/M^2 + lt^2/N^2) clamped at 0 on the folded frequencies kt, lt.
The fixed prior is the alpha = 1 case: it mimics the optical transfer
function of a diffraction limited system and suppresses high spatial
frequencies quadratically.  The adaptive prior derives alpha from the
effective data density of the window: dense data flattens the prior,
sparse data sharpens it towards low-pass.  alpha = 0 is the flat prior.
Like the spatial weights, the priors are set up once per wavefront:
``build_prior_map`` gives every window of the front its weights at the
searched bins in one call.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .weighting import FsrParams, PriorKind

# the adaptive exponent's clamp; omega = 0 maps to it
ALPHA_MAX = 32.0


def folded_radius_sq(k, l, M: int, N: int):
    """Squared folded radial frequency kt^2/M^2 + lt^2/N^2 of bin (k, l).

    Takes scalars or broadcastable index arrays.
    """
    kt = M / 2.0 - abs(k - M / 2.0)
    lt = N / 2.0 - abs(l - N / 2.0)
    return kt**2 / M**2 + lt**2 / N**2


def _prior(k, l, M: int, N: int, alphas: list[float]) -> NDArray[np.float64]:
    """The prior base ** (2*alpha) at the bins (k, l), one row per alpha."""
    base = np.maximum(0.0, 1.0 - math.sqrt(2.0) * np.sqrt(folded_radius_sq(k, l, M, N)))
    # pow(x, 0) == 1 for every x, so alpha = 0 gives the flat prior, 0**0 included
    rows = [base ** (2.0 * alpha) for alpha in alphas]
    return np.reshape(rows, (len(rows), base.size))


def otf_prior(k: int, l: int, M: int, N: int) -> float:
    """Fixed low-pass prior at a single frequency index pair."""
    return adaptive_prior(k, l, M, N, 1.0)


def alpha_of_omega(omega: float, params: FsrParams) -> float:
    """Map effective density to the adaptive-prior exponent, -ln(omega)/tau.

    Clamped to [0, ALPHA_MAX]; omega -> 1 flattens the prior (alpha -> 0),
    omega -> 0 drives it towards a pure low-pass (alpha at the clamp).
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if omega == 0.0:
        return ALPHA_MAX
    alpha = -math.log(omega) / params.tau
    return min(max(alpha, 0.0), ALPHA_MAX)


def adaptive_prior(k: int, l: int, M: int, N: int, alpha: float) -> float:
    """Density-adaptive prior: base ** (2*alpha), with 0**0 == 1.

    Evaluated through the same array expression as ``build_prior_map``, so
    it equals that function's weight bit for bit.
    """
    return _prior(np.array([k]), np.array([l]), M, N, [alpha]).item()


def build_prior_map(
    kind: PriorKind, M: int, N: int, omega: NDArray[np.float64], bins: NDArray[np.intp],
    params: FsrParams,
) -> NDArray[np.float64]:
    """Selection weights (F, P) of F windows with effective densities ``omega``
    (F,) at the flat indices ``bins`` (P,) of the M x N frequency plane.
    """
    if M % 2 != 0 or N % 2 != 0:
        raise ValueError("frequency plane dimensions must be even")
    k, l = np.divmod(bins, N)
    if kind == PriorKind.ADAPTIVE:
        # math.log and a scalar exponent per window: np.log or a vector exponent flips last bits
        alphas = [alpha_of_omega(o, params) for o in omega.tolist()]
    else:
        alphas = [1.0 if kind == PriorKind.OTF else 0.0] * len(omega)
    return _prior(k, l, M, N, alphas)
