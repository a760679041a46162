"""Block-wise frequency selective reconstruction of non-regularly sampled images."""

from .core import reconstruct_block_reference, reconstruct_image
from .grid import ImageGrid, SamplingMask, generate_mask
from .pipeline import psnr
from .priors import adaptive_prior, alpha_of_omega, otf_prior
from .weighting import (
    FsrParams,
    PriorKind,
    build_weight_map,
    effective_density,
    spatial_weight,
)

__all__ = [
    "FsrParams",
    "ImageGrid",
    "PriorKind",
    "SamplingMask",
    "adaptive_prior",
    "alpha_of_omega",
    "build_weight_map",
    "effective_density",
    "generate_mask",
    "otf_prior",
    "psnr",
    "reconstruct_block_reference",
    "reconstruct_image",
    "spatial_weight",
]
