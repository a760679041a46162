"""Workload definitions, the procedural test image and the output checks.

This module needs only numpy, so the benchmark's own tests and the parent
process can use it without importing fsrecon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    calls: tuple[tuple[str, float], ...]  # (method, density), one bench call each


# The reasons for each workload are kept in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fsr-wide", 512, 64, (("fsr-ap", 0.1), ("fsr-otf", 0.5))),
        Workload("fsr-tall", 64, 512, (("fsr-ap", 0.1), ("fsr-otf", 0.5))),
        Workload("baselines", 256, 256, (("nn", 0.3), ("lin", 0.3))),
    )
}

# Side of the top-left crop reconstructed once during set-up to fill the
# program's lru_cache tables and numpy's FFT plan cache.
WARMUP_SIDE = 16

# A stored PSNR may differ from a new one by floating-point reordering
# (about 1e-12 dB), not by one changed basis selection.  Taking the
# second-best selection once, in the last iteration of the last block,
# moves the PSNR of fsr-wide's fsr-ap call at seed 1 by 2.7e-6 dB.
PSNR_TOLERANCE_DB = 1e-9


def make_image(width: int, height: int, seed: int) -> np.ndarray:
    """Deterministic 8-bit test image: gradient, straight edges, texture, noise.

    Only orientations, positions and phases depend on the seed; amplitudes
    and the texture period are fixed, so the difficulty varies little
    between seeds.  Lengths are in pixels, so a wide and a tall image
    follow the same recipe.
    """
    rng = np.random.default_rng([seed, 1])  # a stream apart from the mask's
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    span = float(max(width, height))

    a = rng.uniform(0.0, 2.0 * math.pi)
    img = 120.0 + 60.0 * ((x - width / 2) * math.cos(a) + (y - height / 2) * math.sin(a)) / span

    for step in (20.0, -20.0) * 4:
        px, py = rng.uniform(0, width), rng.uniform(0, height)
        t = rng.uniform(0.0, 2.0 * math.pi)
        img += step * ((x - px) * math.cos(t) + (y - py) * math.sin(t) > 0.0)

    b = rng.uniform(0.0, math.pi)
    for angle in (b, b + math.pi / 2):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        img += 10.0 * np.sin(2.0 * math.pi * (x * math.cos(angle) + y * math.sin(angle)) / 10.0 + phase)

    img += rng.normal(0.0, 2.5, size=img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def write_pgm(path: Path, img: np.ndarray) -> None:
    """Binary 8-bit PGM, written without the program's own writer."""
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + np.ascontiguousarray(img, dtype=np.uint8).tobytes())


def block_count(width: int, height: int, block_size: int) -> int:
    return math.ceil(width / block_size) * math.ceil(height / block_size)


def psnr_db(original: np.ndarray, out: np.ndarray) -> float:
    mse = float(np.mean((original.astype(np.float64) - out) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0**2 / mse)


def check_output(original: np.ndarray, mask: np.ndarray, out: np.ndarray) -> list[str]:
    """Failures of one reconstruction: shape, finiteness, range, known samples."""
    if out.shape != original.shape:
        return [f"output shape {out.shape} != input shape {original.shape}"]
    failures = []
    if not np.all(np.isfinite(out)):
        failures.append("output holds non-finite values")
    elif out.min() < 0.0 or out.max() > 255.0:
        failures.append(f"output outside [0, 255]: [{out.min()}, {out.max()}]")
    changed = np.count_nonzero(out[mask] != original[mask].astype(np.float64))
    if changed:
        failures.append(f"{changed} known sample(s) differ from the input")
    return failures


def check_expected(
    expected: dict, seed: int, method: str, density: float, psnr: float, fallbacks: int
) -> list[str]:
    """Compare with the stored result for this seed, if one is stored."""
    entry = expected.get(str(seed), {}).get(f"{method}@{density}")
    if entry is None:
        return []
    failures = []
    if not abs(psnr - entry["psnr_db"]) <= PSNR_TOLERANCE_DB:
        failures.append(f"psnr {psnr!r} dB != stored {entry['psnr_db']!r} dB")
    if fallbacks != entry["fallback_blocks"]:
        failures.append(f"{fallbacks} fallback blocks != stored {entry['fallback_blocks']}")
    return failures


def nearest_rank(values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# A p99 is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000
