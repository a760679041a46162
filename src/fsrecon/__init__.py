"""Block-wise frequency selective reconstruction of non-regularly sampled images."""

from .core import reconstruct_block_reference, reconstruct_image
from .grid import ImageGrid, SamplingMask, generate_mask
from .pipeline import psnr
from .priors import PriorKind, alpha_of_omega
from .weighting import FsrParams, build_weight_map, effective_density

__all__ = [
    "FsrParams",
    "ImageGrid",
    "PriorKind",
    "SamplingMask",
    "alpha_of_omega",
    "build_weight_map",
    "effective_density",
    "generate_mask",
    "psnr",
    "reconstruct_block_reference",
    "reconstruct_image",
]
