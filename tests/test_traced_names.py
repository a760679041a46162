"""The benchmark's traced layers must exist in the program under their names.

``perfbench/worker.py`` wraps named functions of fsrecon and lists a name
it cannot find as absent, which drops that layer's metrics from a traced
run.  These tests apply the benchmark's own patching to the program; they
change nothing under ``perfbench/``.
"""

import sys
import types
from pathlib import Path

import numpy as np

from fsrecon import baselines, cli, core, pipeline
from fsrecon.grid import ImageGrid, SamplingMask
from fsrecon.weighting import FsrParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402
import worker  # noqa: E402


def test_every_traced_layer_is_present():
    program = types.SimpleNamespace(cli=cli, pipeline=pipeline, core=core, baselines=baselines)
    t = tracer.Tracer()
    try:
        worker.Session.patch_layers(program, t)
    finally:
        t.restore()
    assert t.absent == []


def test_reconstruct_image_does_not_call_reconstruct_block(monkeypatch):
    # The benchmark reports core.block_ms_p99 only from P99_MIN_SAMPLES
    # traced reconstruct_block calls up; one call per wavefront would be
    # fewer and drop the metric.
    calls = []
    real = core.reconstruct_block

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "reconstruct_block", counted)
    rng = np.random.default_rng(5)
    image = ImageGrid(rng.uniform(0, 255, (24, 20)))
    flags = rng.random((24, 20)) < 0.3
    flags[:12] = False  # the top rows' windows hold no data and fall back
    mask = SamplingMask(flags)
    result = core.reconstruct_image(image, mask, FsrParams(border=2, iterations=5))
    assert result.fallback_blocks
    assert calls == []


def test_per_iteration_layers_run_once_per_iteration_and_live_front(monkeypatch):
    # core.update_model.calls and the per-layer self times read 0 if the
    # three layers are fused; each must run once per iteration of every
    # front that holds a window with data.
    calls = {name: 0 for name in ("projection_coefficients", "select_basis", "update_model")}
    for name in calls:
        real = getattr(core, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(core, name, counted)
    rng = np.random.default_rng(6)
    flags = rng.random((24, 20)) < 0.3
    flags[:12] = False
    params = FsrParams(border=2, iterations=7)
    result = core.reconstruct_image(
        ImageGrid(rng.uniform(0, 255, (24, 20))), SamplingMask(flags), params
    )
    B = params.block_size
    k = -(-params.border // B) + 1
    live = {(c0 + k * r0) // B for r0 in range(0, 24, B) for c0 in range(0, 20, B)
            if (r0, c0) not in result.fallback_blocks}
    all_fronts = {(c0 + k * r0) // B for r0 in range(0, 24, B) for c0 in range(0, 20, B)}
    assert len(live) < len(all_fronts)  # some fronts fall back entirely
    assert calls == {name: params.iterations * len(live) for name in calls}
