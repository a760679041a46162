"""Golden digests: ``reconstruct_image`` output bytes and fallback lists are pinned.

``golden_digests.json`` holds the sha256 of each case's output bytes plus
its fallback list, recorded together with the numpy version and the
machine architecture that produced them.  A kernel change that moves a
single bit fails here.  Floating-point results may legitimately differ on
another numpy or architecture, so the test skips there; re-record with

    PYTHONPATH=src python tests/test_golden.py

only on a tree whose outputs are known to be unchanged.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from fsrecon.core import reconstruct_image
from fsrecon.grid import ImageGrid, SamplingMask
from fsrecon.priors import PriorKind
from fsrecon.weighting import FsrParams

RECORD = Path(__file__).with_name("golden_digests.json")


def _random(h, w, density, seed):
    rng = np.random.default_rng(seed)
    return ImageGrid(rng.uniform(0, 255, (h, w))), SamplingMask(rng.random((h, w)) < density)


def _flat(h, w, value, density, seed):
    rng = np.random.default_rng(seed)
    return ImageGrid(np.full((h, w), value)), SamplingMask(rng.random((h, w)) < density)


def _no_data_on_top(h, w, density, seed):
    image, mask = _random(h, w, density, seed)
    flags = mask.flags.copy()
    flags[: h // 2] = False  # the top windows hold no data and fall back
    return image, SamplingMask(flags)


AP, OTF, NONE = PriorKind.ADAPTIVE, PriorKind.OTF, PriorKind.NONE
CASES = {
    "adaptive-default": (lambda: _random(24, 28, 0.3, 1), FsrParams(), AP),
    "otf": (lambda: _random(20, 20, 0.5, 2), FsrParams(border=6, iterations=50), OTF),
    "none-small-blocks": (lambda: _random(18, 22, 0.1, 3),
                          FsrParams(block_size=2, border=3, iterations=30), NONE),
    "all-zero": (lambda: _flat(16, 16, 0.0, 0.3, 4), FsrParams(), AP),
    "constant": (lambda: _flat(16, 20, 137.0, 0.2, 5), FsrParams(iterations=40), AP),
    "fallback": (lambda: _no_data_on_top(24, 20, 0.3, 6),
                 FsrParams(border=2, iterations=20), OTF),
    "sparse-wide-front": (lambda: _random(12, 60, 0.05, 7),
                          FsrParams(block_size=2, border=2, iterations=25), AP),
}


def digest(name: str) -> str:
    make, params, prior = CASES[name]
    image, mask = make()
    result = reconstruct_image(image, mask, params, prior)
    h = hashlib.sha256(result.image.samples.tobytes())
    h.update(json.dumps(result.fallback_blocks).encode())
    return h.hexdigest()


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    record = json.loads(RECORD.read_text())
    if record["environment"] != environment():
        pytest.skip(f"digests were recorded on {record['environment']}, this is {environment()}")
    assert digest(name) == record["digests"][name]


def test_every_case_has_a_digest():
    assert sorted(json.loads(RECORD.read_text())["digests"]) == sorted(CASES)


if __name__ == "__main__":
    RECORD.write_text(json.dumps(
        {"environment": environment(), "digests": {name: digest(name) for name in sorted(CASES)}},
        indent=2,
    ) + "\n")
