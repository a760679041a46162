"""Frequency priors steering the greedy basis selection.

The prior at bin (k, l) is base ** (2*alpha), with base = 1 - sqrt(2) *
sqrt(kt^2/M^2 + lt^2/N^2) clamped at 0 on the folded frequencies kt, lt.
Each kind of prior is a rule for a window's exponent alpha.  The adaptive
prior derives alpha from the effective data density of the window: dense
data flattens the prior, sparse data sharpens it towards low-pass.  The
fixed OTF prior is alpha = 1: it mimics the optical transfer function of
a diffraction limited system and suppresses high spatial frequencies
quadratically.  alpha = 0 is the flat prior.  Like the spatial weights,
the priors are set up once per wavefront: ``build_prior_map`` gives every
window of the front its weights at the searched bins in one call.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .weighting import FsrParams

# the adaptive exponent's clamp; omega = 0 maps to it
ALPHA_MAX = 32.0


class PriorKind(Enum):
    """The rule for a window's alpha: from its density, fixed at 1, or 0."""

    OTF = "otf"
    ADAPTIVE = "adaptive"
    NONE = "none"


def folded_radius_sq(k, l, M: int, N: int):
    """Squared folded radial frequency kt^2/M^2 + lt^2/N^2 of bin (k, l).

    Takes scalars or broadcastable index arrays.
    """
    kt = M / 2.0 - abs(k - M / 2.0)
    lt = N / 2.0 - abs(l - N / 2.0)
    return kt**2 / M**2 + lt**2 / N**2


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


def prior_alphas(kind: PriorKind, omega: NDArray[np.float64], params: FsrParams) -> list[float]:
    """The exponent alpha of each window with effective density ``omega`` (F,)."""
    if kind == PriorKind.ADAPTIVE:
        # math.log per window: np.log flips last bits
        return [alpha_of_omega(o, params) for o in omega.tolist()]
    return [1.0 if kind == PriorKind.OTF else 0.0] * len(omega)


def build_prior_map(
    M: int, N: int, alphas: list[float], bins: NDArray[np.intp]
) -> NDArray[np.float64]:
    """Selection weights (F, P), base ** (2*alpha) for each of the F ``alphas``,
    at the flat indices ``bins`` (P,) of the M x N frequency plane.
    """
    if M % 2 != 0 or N % 2 != 0:
        raise ValueError("frequency plane dimensions must be even")
    k, l = np.divmod(bins, N)
    base = np.maximum(0.0, 1.0 - math.sqrt(2.0) * np.sqrt(folded_radius_sq(k, l, M, N)))
    # a scalar exponent per row: a vector exponent flips last bits.  pow(x, 0)
    # == 1 for every x, so alpha = 0 gives the flat prior, 0**0 included
    rows = [base ** (2.0 * alpha) for alpha in alphas]
    return np.reshape(rows, (len(rows), base.size))
