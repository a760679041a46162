"""Golden digests for the ``nn`` and ``lin`` baselines: output bytes are pinned.

``golden_baseline_digests.json`` holds the sha256 of each case's output
bytes for both methods, recorded together with the numpy and scipy
versions and the machine architecture that produced them.  The cases
cover the benchmark's 256x256 shape, a sparse 256x256 mask, lattices of
ties at strides 2 and 17, one sample, pixels outside the convex hull and
both nearest-neighbour fallbacks of ``lin``.  The floating-point results
may legitimately differ on another numpy, scipy (Qhull) or architecture,
so the test skips there; re-record with

    PYTHONPATH=src python tests/test_golden_baselines.py

only on a tree whose outputs are known to be unchanged.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from fsrecon.baselines import linear_triangulation_fill, nearest_neighbor_fill
from fsrecon.grid import ImageGrid, SamplingMask, generate_mask

RECORD = Path(__file__).with_name("golden_baseline_digests.json")
METHODS = {"nn": nearest_neighbor_fill, "lin": linear_triangulation_fill}


def _image(h, w, seed):
    return ImageGrid(np.random.default_rng(seed).uniform(0, 255, (h, w)))


def _flags(h, w, cells):
    flags = np.zeros((h, w), dtype=bool)
    flags[tuple(np.transpose(cells))] = True
    return SamplingMask(flags)


def _stride_2_grid():
    flags = np.zeros((41, 37), dtype=bool)
    flags[1::2, ::2] = True
    return _image(41, 37, 3), SamplingMask(flags)


def _stride_17_grid():
    flags = np.zeros((256, 256), dtype=bool)
    flags[3::17, 11::17] = True
    return _image(256, 256, 9), SamplingMask(flags)


def _outside_hull():
    rng = np.random.default_rng(4)
    flags = np.zeros((48, 48), dtype=bool)
    flags[0, 24] = flags[24, 0] = flags[47, 24] = flags[24, 47] = True  # a diamond hull
    flags[14:34, 14:34] = rng.random((20, 20)) < 0.3
    return _image(48, 48, 4), SamplingMask(flags)


CASES = {
    "random-256-0.3": lambda: (_image(256, 256, 1), generate_mask(256, 256, 0.3, 1)),
    "random-256-0.8": lambda: (_image(256, 256, 2), generate_mask(256, 256, 0.8, 2)),
    "random-256-0.01": lambda: (_image(256, 256, 7), generate_mask(256, 256, 0.01, 7)),
    "stride-2-grid": _stride_2_grid,
    "stride-17-grid": _stride_17_grid,
    "outside-hull": _outside_hull,
    "collinear": lambda: (_image(30, 40, 5), _flags(30, 40, [(3, 3), (9, 11), (15, 19), (27, 35)])),
    "two-samples": lambda: (_image(33, 29, 6), _flags(33, 29, [(4, 20), (28, 3)])),
    "one-sample": lambda: (_image(64, 48, 8), _flags(64, 48, [(5, 40)])),
}


def digest(name: str, method: str) -> str:
    image, mask = CASES[name]()
    return hashlib.sha256(METHODS[method](image, mask).samples.tobytes()).hexdigest()


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def keys() -> list[str]:
    return [f"{name}/{method}" for name in sorted(CASES) for method in sorted(METHODS)]


@pytest.mark.parametrize("key", keys())
def test_output_matches_golden_digest(key):
    record = json.loads(RECORD.read_text())
    if record["environment"] != environment():
        pytest.skip(f"digests were recorded on {record['environment']}, this is {environment()}")
    assert digest(*key.split("/")) == record["digests"][key]


def test_every_case_has_a_digest():
    assert sorted(json.loads(RECORD.read_text())["digests"]) == keys()


if __name__ == "__main__":
    RECORD.write_text(json.dumps(
        {"environment": environment(),
         "digests": {key: digest(*key.split("/")) for key in keys()}},
        indent=2,
    ) + "\n")
