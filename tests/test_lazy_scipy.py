"""scipy is loaded only when a baseline (``nn`` or ``lin``) runs.

The test session itself has imported scipy long before these tests run,
so each check starts a fresh interpreter on the package sources.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import json, sys
import numpy as np
import fsrecon, fsrecon.cli
from fsrecon import pipeline
from fsrecon.grid import ImageGrid
from fsrecon.imgio import write_pgm

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

rng = np.random.default_rng(5)
write_pgm("in.pgm", ImageGrid(np.round(rng.uniform(0, 255, (8, 12)))))

def reconstruct(method):
    return fsrecon.cli.main(["reconstruct", "--input", "in.pgm", "--density", "0.4",
                             "--method", method, "--iters", "5", "--output", method + ".pgm"])

def bench(methods):
    with open("cfg.json", "w") as fh:
        json.dump({"images": ["in.pgm"], "densities": [0.4], "seeds": [1],
                   "methods": methods, "iterations": 5}, fh)
    return fsrecon.cli.main(["bench", "--config", "cfg.json", "--out", "out"])
"""


def run_fresh(tmp_path, body: str) -> dict:
    """Run PRELUDE + ``body`` in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_fsr_runs_load_no_scipy_and_baselines_still_run(tmp_path):
    got = run_fresh(tmp_path, """
        rcs = [reconstruct("fsr-ap"), reconstruct("fsr-otf"), bench(["fsr-ap", "fsr-otf"])]
        after_fsr = scipy_loaded()
        rcs += [reconstruct("nn"), reconstruct("lin")]
        print(json.dumps({"rcs": rcs, "after_fsr": after_fsr,
                          "after_baselines": "scipy.spatial" in sys.modules}))
    """)
    assert got["rcs"] == [0, 0, 0, 0, 0]
    assert got["after_fsr"] == []
    assert got["after_baselines"]
    for method in ("fsr-ap", "fsr-otf", "nn", "lin"):
        assert (tmp_path / f"{method}.pgm").is_file()


def test_bench_imports_scipy_before_the_first_timed_baseline_run(tmp_path):
    got = run_fresh(tmp_path, """
        loaded_at_start = []
        real = pipeline.run_method

        def run_method(method, *args):
            loaded_at_start.append((method, "scipy.spatial" in sys.modules))
            return real(method, *args)

        pipeline.run_method = run_method
        before = scipy_loaded()
        rc = bench(["fsr-ap", "nn", "lin"])
        print(json.dumps({"rc": rc, "before": before, "loaded_at_start": loaded_at_start}))
    """)
    assert got["rc"] == 0
    assert got["before"] == []
    assert got["loaded_at_start"] == [["fsr-ap", True], ["nn", True], ["lin", True]]
