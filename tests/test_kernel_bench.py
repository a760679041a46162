"""``scripts/kernel_bench.py`` times two trees side by side on the same inputs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("kernel_bench", ROOT / "scripts" / "kernel_bench.py")
kernel_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_bench)


def test_two_trees_report_every_case(capsys, monkeypatch):
    monkeypatch.setattr(kernel_bench, "IMAGE_SIDES", (12, 8))
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
