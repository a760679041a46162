"""Kernel and whole-image timings of one or two ``src/`` trees, interleaved in one process.

    python scripts/kernel_bench.py                         # src/ of this tree
    python scripts/kernel_bench.py parent/src src          # parent, then change

Each tree's ``fsrecon`` is imported under its own module name, so both run
in one process on the same inputs.  The kernel part times one iteration
(``projection_coefficients``, ``select_basis``, ``update_model``) on
stacks of F = 1, 3, 10 and 30 windows of the default 32x32 size at
density 0.1, as the mean over one block's iterations.  The image part
times whole ``reconstruct_image`` calls on the benchmark's 512x64 and
64x512 images (``perfbench/workloads.make_image``), ``fsr-ap`` at 0.1 and
``fsr-otf`` at 0.5, as ms per 4x4 block.  The ``lin`` part times whole
``linear_triangulation_fill`` calls on the benchmark's 256x256 image at
density 0.3, as ms per call; scipy is imported before the first.

The trees take turns, in alternating order from one repeat to the next,
and are timed in CPU time (``time.process_time``), which leaves out the
time a shared host keeps the process waiting.  Each line gives a tree's
median [first quartile, third quartile]; with two trees it adds the ratio
of the second tree's median to the first's and how many repeats the
second tree won.  An image or ``lin`` line also says whether both trees'
outputs (and fallback blocks) are byte-equal; the script exits 1 if any of
them differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
from bench_by_method import quartiles  # noqa: E402
from workloads import make_image  # noqa: E402

STACK_SIZES = (1, 3, 10, 30)
IMAGE_SIDES = (512, 64)  # long, short: the benchmark's 512x64 and 64x512
IMAGE_CALLS = (("adaptive", 0.1), ("otf", 0.5))
LIN_SIDE, LIN_DENSITY = 256, 0.3  # the benchmark's baselines workload
SEED = 0


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The ``fsrecon`` package under ``src``, imported as ``name``."""
    package = src / "fsrecon"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{
        part: importlib.import_module(f"{name}.{part}")
        for part in ("baselines", "core", "grid", "priors", "weighting")
    })


def kernel_case(tree, labels: np.ndarray, values: np.ndarray):
    """A fresh model state of the stack and its prior weights."""
    core, params = tree.core, tree.weighting.FsrParams()
    # a tree whose windows still carry their geometry takes it first
    fields = {f.name for f in dataclasses.fields(tree.grid.BlockContext)}
    geometry = [params.block_size, params.border] if "border" in fields else []
    ctx = tree.grid.BlockContext(*geometry, labels, values)
    state = core.init_model_state(ctx.values, tree.weighting.build_weight_map(ctx, params))
    _, _, prior_weights = core._set_up(ctx, params, tree.priors.PriorKind.ADAPTIVE, state.order)
    return params, state, prior_weights


def time_kernel(tree, labels: np.ndarray, values: np.ndarray) -> float:
    """CPU microseconds per iteration over one block's iterations."""
    core = tree.core
    params, state, prior_weights = kernel_case(tree, labels, values)
    t0 = time.process_time()
    for _ in range(params.iterations):
        q = core.projection_coefficients(state)
        j = core.select_basis(q, prior_weights)
        core.update_model(state, j, params)
    return (time.process_time() - t0) / params.iterations * 1e6


def time_image(tree, image: np.ndarray, prior: str, density: float):
    """CPU ms per block of one reconstruction, and its output bytes."""
    grid, params = tree.grid, tree.weighting.FsrParams()
    mask = grid.generate_mask(image.shape[1], image.shape[0], density, SEED)
    t0 = time.process_time()
    result = tree.core.reconstruct_image(
        grid.ImageGrid(image), mask, params, tree.priors.PriorKind(prior)
    )
    elapsed = time.process_time() - t0
    blocks = -(-image.shape[0] // params.block_size) * -(-image.shape[1] // params.block_size)
    output = result.image.samples.tobytes() + repr(result.fallback_blocks).encode()
    return elapsed / blocks * 1e3, output


def time_lin(tree, image: np.ndarray, mask_flags: np.ndarray):
    """CPU ms of one ``lin`` call, and its output bytes."""
    grid = tree.grid
    t0 = time.process_time()
    result = tree.baselines.linear_triangulation_fill(
        grid.ImageGrid(image), grid.SamplingMask(mask_flags)
    )
    return (time.process_time() - t0) * 1e3, result.samples.tobytes()


def interleave(trees: list, repeats: int, run) -> tuple[list[list[float]], set[bytes]]:
    """Each tree's times over ``repeats`` turns, first tree first on even turns."""
    times: list[list[float]] = [[] for _ in trees]
    outputs: set[bytes] = set()
    for rep in range(repeats):
        order = range(len(trees)) if rep % 2 == 0 else reversed(range(len(trees)))
        for side in order:
            t, out = run(trees[side])
            times[side].append(t)
            outputs.add(out)
    return times, outputs


def equality(outputs: set[bytes]) -> str:
    return "  outputs equal" if len(outputs) == 1 else "  OUTPUTS DIFFER"


def report(label: str, unit: str, times: list[list[float]], extra: str = "") -> None:
    cells = []
    for t in times:
        q1, q2, q3 = quartiles(t)
        cells.append(f"{q2:9.3f} [{q1:.3f}, {q3:.3f}]")
    if len(times) == 2:
        ratio = statistics.median(times[1]) / statistics.median(times[0])
        won = sum(b < a for a, b in zip(*times))
        cells.append(f"{ratio:.3f}x, won {won}/{len(times[1])}")
    print(f"{label:<28} {unit:<4} " + "  ".join(cells) + extra)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs="*", type=Path, default=[ROOT / "src"],
                    help="one or two src/ directories, each holding fsrecon/")
    ap.add_argument("--repeats", type=int, default=15, help="kernel turns per tree")
    ap.add_argument("--image-repeats", type=int, default=11, help="image and lin turns per tree")
    args = ap.parse_args(argv)
    if not 1 <= len(args.trees) <= 2:
        ap.error("give one or two trees")
    trees = [load_tree(src, f"fsrecon_tree{i}") for i, src in enumerate(args.trees)]
    print("trees: " + "  ".join(str(src) for src in args.trees))

    params = trees[0].weighting.FsrParams()
    M, rng = params.window_size, np.random.default_rng(SEED)
    for F in STACK_SIZES:
        known = rng.random((F, M, M)) < 0.1
        labels = np.where(known, 0, 1).astype(np.uint8)  # AreaLabel A and B
        values = np.where(known, rng.integers(0, 256, (F, M, M)), 0).astype(np.float64)
        times, _ = interleave(
            trees, args.repeats, lambda tree: (time_kernel(tree, labels, values), b"")
        )
        report(f"kernel iteration F={F}", "us", times)

    long, short = IMAGE_SIDES
    differ = False
    for width, height in ((long, short), (short, long)):
        image = make_image(width, height, SEED).astype(np.float64)
        for prior, density in IMAGE_CALLS:
            times, outputs = interleave(
                trees, args.image_repeats,
                lambda tree: time_image(tree, image, prior, density),
            )
            differ |= len(outputs) > 1
            report(f"image {width}x{height} {prior}@{density}", "ms", times, equality(outputs))

    image = make_image(LIN_SIDE, LIN_SIDE, SEED).astype(np.float64)
    flags = trees[0].grid.generate_mask(LIN_SIDE, LIN_SIDE, LIN_DENSITY, SEED).flags
    for tree in trees:
        tree.baselines.import_scipy()  # outside the timed calls
    times, outputs = interleave(trees, args.image_repeats, lambda tree: time_lin(tree, image, flags))
    differ |= len(outputs) > 1
    report(f"lin {LIN_SIDE}x{LIN_SIDE}@{LIN_DENSITY}", "ms", times, equality(outputs))
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
