"""Tests of the benchmark's own parts: image recipe, statistics, tracing, checks."""

import types

import numpy as np
import pytest

import workloads as wl
from tracer import Span, Tracer, self_times


def test_image_recipe_is_deterministic():
    a = wl.make_image(64, 32, 7)
    assert a.dtype == np.uint8 and a.shape == (32, 64)
    assert np.array_equal(a, wl.make_image(64, 32, 7))
    assert not np.array_equal(a, wl.make_image(64, 32, 8))


@pytest.mark.parametrize("n", [999, 1000, 4096])
def test_p99_is_reported_only_with_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    beyond = sum(v > wl.nearest_rank(values, 99) for v in values)
    assert (beyond >= 10) == (n >= wl.P99_MIN_SAMPLES)


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert wl.nearest_rank(values, 50) == 50
    assert wl.nearest_rank(values, 99) == 99
    assert wl.nearest_rank([3.0], 99) == 3.0


def _span(name, start, end, parent, folded=None):
    s = Span(name, parent, 1)
    s.start, s.end = start, end
    s.folded = folded or {}
    return s


def test_self_times_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0, {"leaf": [3, 1.5]}),
        _span("b", 5.0, 9.0, 0),
        _span("a", 6.0, 7.0, 2),
    ]
    st = self_times(spans)
    assert st["root"][:2] == [1, pytest.approx(3.0)]
    assert st["a"][:2] == [2, pytest.approx(1.5 + 1.0)]
    assert st["leaf"][:2] == [3, pytest.approx(1.5)]
    assert st["b"][:2] == [1, pytest.approx(3.0)]
    assert st["a"][2] == [3.0, 1.0]
    assert sum(v[1] for v in st.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_folds_and_restores():
    mod = types.SimpleNamespace(__name__="mod")
    mod.leaf = lambda x: x + 1
    mod.inner = lambda x: mod.leaf(mod.leaf(x))
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.leaf, mod.inner, mod.outer)
    tracer = Tracer()
    tracer.patch(mod, "leaf", "leaf", fold=True)
    tracer.patch(mod, "inner", "inner", count=lambda c, args, res: c.__setitem__("n", c["n"] + args[0]))
    tracer.patch(mod, "missing", "missing")
    assert tracer.root("outer", mod.outer, 5) == 14
    tracer.restore()
    assert (mod.leaf, mod.inner, mod.outer) == originals
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].folded["leaf"][0] == 2
    assert tracer.counters["n"] == 5
    assert tracer.absent == ["mod.missing"] and "missing" not in tracer.present
    st = self_times(tracer.spans)
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(v[1] for v in st.values()) == pytest.approx(total)


@pytest.fixture
def reconstruction():
    rng = np.random.default_rng(3)
    original = rng.integers(0, 256, size=(16, 24), dtype=np.uint8)
    mask = rng.random((16, 24)) < 0.3
    out = np.where(mask, original, 100.5).astype(np.float64)
    return original, mask, out


def test_output_check_accepts_a_valid_reconstruction(reconstruction):
    assert wl.check_output(*reconstruction) == []


@pytest.mark.parametrize("corrupt", ["known", "nan", "range", "shape"])
def test_output_check_rejects_a_corrupted_image(reconstruction, corrupt):
    original, mask, out = reconstruction
    r, c = np.argwhere(mask)[0]
    if corrupt == "known":
        out[r, c] += 1.0
    elif corrupt == "nan":
        out[~mask] = np.nan
    elif corrupt == "range":
        out[~mask] = 255.5
    else:
        out = out[:, :-1]
    assert wl.check_output(original, mask, out) != []


def test_expected_results_match_exactly_within_tolerance():
    expected = {"4": {"nn@0.3": {"psnr_db": 30.0, "fallback_blocks": 2}}}
    assert wl.check_expected(expected, 4, "nn", 0.3, 30.0 + 1e-11, 2) == []
    assert wl.check_expected(expected, 4, "nn", 0.3, 30.0 + 1e-7, 2) != []
    assert wl.check_expected(expected, 4, "nn", 0.3, 30.0, 3) != []
    assert wl.check_expected(expected, 5, "nn", 0.3, 12.0, 9) == []
