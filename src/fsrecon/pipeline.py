"""Experiment orchestration: density sweeps, PSNR metrics, CSV reporting."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import import_scipy, linear_triangulation_fill, nearest_neighbor_fill
from .core import ReconstructionResult, reconstruct_image
from .grid import ImageGrid, SamplingMask, generate_mask
from .imgio import read_image
from .priors import PriorKind
from .weighting import FsrParams, check_kind

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
        return reconstruct_image(image, mask, params, _PRIOR_BY_METHOD[method])
    if method == "lin":
        return ReconstructionResult(image=linear_triangulation_fill(image, mask))
    if method == "nn":
        return ReconstructionResult(image=nearest_neighbor_fill(image, mask))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep over every (tau, image, density, seed, method); each value is checked here.

    A given ``taus`` replaces ``params.tau``; ``None`` sweeps ``[params.tau]``.
    """

    images: list[str]
    densities: list[float]
    seeds: list[int] = field(default_factory=lambda: [0])
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    params: FsrParams = FsrParams()
    output_dir: str = "."
    taus: list[float] | None = None

    def __post_init__(self):
        for axis in ("images", "methods", "densities", "seeds", "taus"):
            values = getattr(self, axis)
            if values is not None or axis != "taus":
                check_kind(axis, values, list, "a list")
                if not values:
                    raise ValueError(f"{axis} must not be empty")
        for image in self.images:
            check_kind("each of images", image, str, "a string")
        for d in self.densities:
            check_kind("each of densities", d, numbers.Real, "a real number")
            if not 0.0 < d <= 1.0:
                raise ValueError(f"density {d} outside (0, 1]")
        for seed in self.seeds:
            check_kind("each of seeds", seed, numbers.Integral, "an integer")
            if seed < 0:
                raise ValueError(f"seeds must be non-negative, got {seed}")
        check_kind("params", self.params, FsrParams, "an FsrParams")
        for t in self.taus or ():
            dataclasses.replace(self.params, tau=t)  # FsrParams checks each tau
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        check_kind("output_dir", self.output_dir, str, "a string")


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
    """Run every (tau, image, density, seed, method), tau outermost; write ``report.csv``.

    Deterministic apart from timing.  Methods without a prior run at every
    tau and record it as None.  Unreadable images are logged and skipped.
    The ``seconds`` of a run exclude one-time imports.
    """
    if {"lin", "nn"} & set(config.methods):
        import_scipy()  # before the first timed baseline run
    images = []
    for image_path in config.images:
        try:
            images.append((image_path, read_image(image_path)))
        except (OSError, ValueError) as exc:
            log.error("skipping %s: %s", image_path, exc)
    rows = []
    for tau, (image_path, image), density, seed, method in itertools.product(
        config.taus or [config.params.tau], images, config.densities, config.seeds, config.methods
    ):
        params = dataclasses.replace(config.params, tau=tau)
        mask = generate_mask(image.width, image.height, density, seed)
        t0 = time.perf_counter()
        result = run_method(method, image, mask, params)
        seconds = time.perf_counter() - t0
        rows.append(
            RunRow(
                image=image_path,
                density=float(density),
                seed=seed,
                method=method,
                tau=float(tau) if method in _PRIOR_BY_METHOD else None,
                psnr_db=psnr(image, result.image),
                seconds=seconds,
                fallback_blocks=len(result.fallback_blocks),
            )
        )
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(RunRow))
        writer.writerows(dataclasses.astuple(r) for r in rows)
    return rows
