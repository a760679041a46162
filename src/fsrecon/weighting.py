"""Spatial weighting of the extrapolation area and the effective-data measure.

Known samples receive an isotropic exponentially decaying weight
``rho_hat ** d`` with d the Euclidean distance to the window center;
previously reconstructed samples are attenuated by ``delta``; unknown and
out-of-image positions carry zero weight.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .grid import AreaLabel, BlockContext


def check_kind(name: str, value, kind: type, what: str) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a ``kind``; bools never are."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class FsrParams:
    """Tunables of the reconstruction.

    Defaults follow the established parameterization for block-wise
    frequency selective processing: rho_hat=0.7, delta=0.5, gamma=0.5,
    block_size=4, border=14 (window 32x32), 100 iterations, tau=2.
    """

    rho_hat: float = 0.7
    delta: float = 0.5
    gamma: float = 0.5
    tau: float = 2.0
    block_size: int = 4
    border: int = 14
    iterations: int = 100

    def __post_init__(self):
        for name in ("block_size", "border", "iterations"):
            check_kind(name, getattr(self, name), numbers.Integral, "an integer")
        for name in ("rho_hat", "delta", "gamma", "tau"):
            check_kind(name, getattr(self, name), numbers.Real, "a real number")
        for name in ("rho_hat", "delta", "gamma"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if not self.tau > 0.0:  # NaN included
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.block_size < 1 or self.border < 0:
            raise ValueError("block_size must be >= 1 and border >= 0")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.window_size % 2 != 0:
            raise ValueError(
                f"window size block_size + 2*border = {self.window_size} must be even"
            )

    @property
    def window_size(self) -> int:
        return self.block_size + 2 * self.border


@dataclass(frozen=True)
class WeightMap:
    """Per-pixel spatial weights of extrapolation areas and their sum per window."""

    w: NDArray[np.float64]
    weight_sum: NDArray[np.float64]


@lru_cache(maxsize=16)
def decay_map(M: int, N: int, rho_hat: float) -> NDArray[np.float64]:
    """Undamped decay rho_hat ** d over the full window, d the distance to its center."""
    m = np.arange(M, dtype=np.float64) - (M - 1) / 2.0
    n = np.arange(N, dtype=np.float64) - (N - 1) / 2.0
    decay = rho_hat ** np.sqrt(m[:, None] ** 2 + n[None, :] ** 2)
    decay.flags.writeable = False
    return decay


def build_weight_map(ctx: BlockContext, params: FsrParams) -> WeightMap:
    """rho^d on A, delta*rho^d on R, else 0, for each window of ``ctx``."""
    decay = decay_map(ctx.M, ctx.N, params.rho_hat)
    w = np.where(ctx.labels == AreaLabel.A.value, decay, 0.0)
    w += np.where(ctx.labels == AreaLabel.R.value, params.delta * decay, 0.0)
    return WeightMap(w=w, weight_sum=np.sum(w, axis=(-2, -1)))


def effective_density(
    ctx: BlockContext, weight_map: WeightMap, params: FsrParams
) -> NDArray[np.float64]:
    """Fraction of effectively available data in each window, in [0, 1].

    Ratio of the summed weights on A and R to the undamped decay mass over
    the whole window (including B and OUTSIDE positions).
    """
    return weight_map.weight_sum / np.sum(decay_map(ctx.M, ctx.N, params.rho_hat))
