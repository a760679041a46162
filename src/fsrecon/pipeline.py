"""Experiment orchestration: density sweeps, PSNR metrics, CSV reporting."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import import_scipy, linear_triangulation_fill, nearest_neighbor_fill
from .core import ReconstructionResult, reconstruct_image
from .grid import ImageGrid, SamplingMask, generate_mask
from .imgio import read_image
from .weighting import FsrParams, PriorKind

log = logging.getLogger(__name__)

METHODS = ("fsr-ap", "fsr-otf", "fsr-none", "lin", "nn")

_PRIOR_BY_METHOD = {
    "fsr-ap": PriorKind.ADAPTIVE,
    "fsr-otf": PriorKind.OTF,
    "fsr-none": PriorKind.NONE,
}

def psnr(reference: ImageGrid, test: ImageGrid) -> float:
    """Peak signal-to-noise ratio in dB for 8-bit imagery (peak 255)."""
    if reference.samples.shape != test.samples.shape:
        raise ValueError("image dimensions differ")
    mse = float(np.mean((reference.samples - test.samples) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def run_method(
    method: str, image: ImageGrid, mask: SamplingMask, params: FsrParams
) -> ReconstructionResult:
    if method in _PRIOR_BY_METHOD:
        p = dataclasses.replace(params, prior_kind=_PRIOR_BY_METHOD[method])
        return reconstruct_image(image, mask, p)
    if method == "lin":
        return ReconstructionResult(image=linear_triangulation_fill(image, mask))
    if method == "nn":
        return ReconstructionResult(image=nearest_neighbor_fill(image, mask))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class ExperimentConfig:
    images: list[str]
    densities: list[float]
    seeds: list[int]
    methods: list[str]
    params: FsrParams = FsrParams()
    output_dir: str = "."
    taus: list[float] | None = None  # a tau sweep of fsr-ap; methods then go unused

    def __post_init__(self):
        for axis in ("images", "methods", "densities", "seeds", "taus"):
            if getattr(self, axis) is not None and len(getattr(self, axis)) == 0:
                raise ValueError(f"{axis} must not be empty")
        for d in self.densities:
            if not 0.0 < d <= 1.0:
                raise ValueError(f"density {d} outside (0, 1]")
        for seed in self.seeds:
            if seed < 0:
                raise ValueError(f"seeds must be non-negative, got {seed}")
        for t in self.taus or ():
            dataclasses.replace(self.params, tau=t)  # FsrParams checks each tau
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


@dataclass(frozen=True)
class RunRow:
    image: str
    density: float
    seed: int
    method: str
    tau: float | None  # None for methods without a prior
    psnr_db: float
    seconds: float
    fallback_blocks: int


def run_experiment(config: ExperimentConfig) -> list[RunRow]:
    """Sweep (tau, image, density, seed, method); deterministic apart from timing.

    Without ``taus`` the sweep runs ``methods`` at ``params.tau`` and writes
    ``report.csv``; with ``taus`` it runs ``fsr-ap`` at each tau and writes
    ``tau_sweep.csv``.  Unreadable images are logged and skipped.  The
    ``seconds`` of a run exclude one-time imports.
    """
    sweep = config.taus is not None
    if not sweep and {"lin", "nn"} & set(config.methods):
        import_scipy()  # before the first timed baseline run
    images = []
    for image_path in config.images:
        try:
            images.append((image_path, read_image(image_path)))
        except (OSError, ValueError) as exc:
            log.error("skipping %s: %s", image_path, exc)
    rows = []
    for tau in config.taus if sweep else [config.params.tau]:
        params = dataclasses.replace(config.params, tau=tau)
        for (image_path, image), density, seed, method in itertools.product(
            images, config.densities, config.seeds, ["fsr-ap"] if sweep else config.methods
        ):
            mask = generate_mask(image.width, image.height, density, seed)
            t0 = time.perf_counter()
            result = run_method(method, image, mask, params)
            seconds = time.perf_counter() - t0
            rows.append(
                RunRow(
                    image=image_path,
                    density=density,
                    seed=seed,
                    method=method,
                    tau=tau if method in _PRIOR_BY_METHOD else None,
                    psnr_db=psnr(image, result.image),
                    seconds=seconds,
                    fallback_blocks=len(result.fallback_blocks),
                )
            )
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ("tau_sweep.csv" if sweep else "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(RunRow))
        writer.writerows(dataclasses.astuple(r) for r in rows)
    return rows
