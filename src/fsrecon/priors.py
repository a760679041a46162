"""Frequency priors steering the greedy basis selection.

The prior at bin (k, l) is base ** (2*alpha), with base = 1 - sqrt(2) *
sqrt(kt^2/M^2 + lt^2/N^2) clamped at 0 on the folded frequencies kt, lt.
The fixed prior is the alpha = 1 case: it mimics the optical transfer
function of a diffraction limited system and suppresses high spatial
frequencies quadratically.  The adaptive prior derives alpha from the
effective data density of the window: dense data flattens the prior,
sparse data sharpens it towards low-pass.  alpha = 0 is the flat prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .weighting import FsrParams, PriorKind

# the adaptive exponent's clamp; omega = 0 maps to it
ALPHA_MAX = 32.0


@dataclass(frozen=True)
class PriorMap:
    """Per-frequency selection weights on the M x N frequency plane."""

    wf: NDArray[np.float64]
    alpha: float


def folded_radius_sq(k, l, M: int, N: int):
    """Squared folded radial frequency kt^2/M^2 + lt^2/N^2 of bin (k, l).

    Takes scalars or broadcastable index arrays.
    """
    kt = M / 2.0 - abs(k - M / 2.0)
    lt = N / 2.0 - abs(l - N / 2.0)
    return kt**2 / M**2 + lt**2 / N**2


def _prior(k, l, M: int, N: int, alpha: float):
    # pow(x, 0) == 1 for every x, so alpha = 0 gives the flat prior, 0**0 included
    base = np.maximum(0.0, 1.0 - math.sqrt(2.0) * np.sqrt(folded_radius_sq(k, l, M, N)))
    return base ** (2.0 * alpha)


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
    it equals the map entry bit for bit.
    """
    return _prior(np.array([k]), np.array([l]), M, N, alpha).item()


def build_prior_map(
    kind: PriorKind, M: int, N: int, omega: float, params: FsrParams
) -> PriorMap:
    if M % 2 != 0 or N % 2 != 0:
        raise ValueError("frequency plane dimensions must be even")
    if kind == PriorKind.ADAPTIVE:
        alpha = alpha_of_omega(omega, params)
    else:
        alpha = 1.0 if kind == PriorKind.OTF else 0.0
    return PriorMap(wf=_prior(np.arange(M)[:, None], np.arange(N), M, N, alpha), alpha=alpha)
