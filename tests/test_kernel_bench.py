"""``scripts/kernel_bench.py`` times two trees side by side on the same inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("kernel_bench", ROOT / "scripts" / "kernel_bench.py")
kernel_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_bench)

# the thread variables as numpy's import sees them, after the script runs --help
THREAD_PROBE = """
import json, os, runpy, sys
script, run_name, names = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = {}

class Spy:
    def find_spec(self, fullname, path=None, target=None):
        if fullname == "numpy" and not seen:
            seen.update((name, os.environ.get(name)) for name in names)

sys.meta_path.insert(0, Spy())
sys.argv = [script, "--help"]
try:
    runpy.run_path(script, run_name=run_name)
except SystemExit:
    pass
print(json.dumps(seen))
"""


@pytest.mark.parametrize("run_name, cap", [("__main__", "1"), ("kernel_bench", "7")])
def test_threads_are_capped_before_numpy_only_when_run_as_a_script(run_name, cap):
    names = kernel_bench.THREAD_VARS
    env = dict(os.environ, **dict.fromkeys(names, "7"))
    out = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, str(ROOT / "scripts" / "kernel_bench.py"),
         run_name, *names],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == dict.fromkeys(names, cap)


def test_thread_variables_are_the_benchmarks():
    run_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(run_spec)
    run_spec.loader.exec_module(run)
    assert kernel_bench.THREAD_VARS == run.THREAD_VARS


def test_two_trees_report_every_case(capsys, monkeypatch):
    monkeypatch.setattr(kernel_bench, "IMAGE_SIDES", (12, 8))
    monkeypatch.setattr(kernel_bench, "LIN_SIDE", 24)
    src = str(ROOT / "src")
    argv = [src, src, "--repeats", "2", "--image-repeats", "1"]
    assert kernel_bench.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    kernel = [line for line in lines if line.startswith("kernel iteration")]
    images = [line for line in lines if line.startswith("image")]
    assert [line.split()[2] for line in kernel] == [f"F={F}" for F in kernel_bench.STACK_SIZES]
    assert all("x, won " in line for line in kernel + images)
    assert [line.split()[1] for line in images] == ["12x8", "12x8", "8x12", "8x12"]
    assert all(line.endswith("outputs equal") for line in images)
    lin = [line for line in lines if line.startswith("lin")]
    assert len(lin) == 1 and lin[0].split()[1] == "24x24@0.3"
    assert "x, won " in lin[0] and lin[0].endswith("outputs equal")


def test_differing_outputs_exit_1(capsys, monkeypatch):
    # each tree is imported under its own module name, so its output names its tree
    monkeypatch.setattr(kernel_bench, "IMAGE_SIDES", (12, 8))
    monkeypatch.setattr(kernel_bench, "LIN_SIDE", 24)
    differing = lambda tree, *args: (1.0, tree.core.__name__.encode())  # noqa: E731
    monkeypatch.setattr(kernel_bench, "time_image", differing)
    monkeypatch.setattr(kernel_bench, "time_lin", differing)
    src = str(ROOT / "src")
    assert kernel_bench.main([src, src, "--repeats", "1", "--image-repeats", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    images = [line for line in lines if line.startswith("image")]
    assert len(images) == 4 and all(line.endswith("OUTPUTS DIFFER") for line in images)
    lin = [line for line in lines if line.startswith("lin")]
    assert len(lin) == 1 and lin[0].endswith("OUTPUTS DIFFER")


def test_lin_outputs_that_differ_alone_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(kernel_bench, "IMAGE_SIDES", (12, 8))
    monkeypatch.setattr(kernel_bench, "LIN_SIDE", 24)
    monkeypatch.setattr(
        kernel_bench, "time_lin", lambda tree, *args: (1.0, tree.core.__name__.encode())
    )
    src = str(ROOT / "src")
    assert kernel_bench.main([src, src, "--repeats", "1", "--image-repeats", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith("outputs equal") for line in lines if line.startswith("image"))
    assert [line for line in lines if line.startswith("lin")][0].endswith("OUTPUTS DIFFER")

