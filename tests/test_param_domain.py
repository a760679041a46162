"""Every accepted ``FsrParams`` gives finite output or an error that names a field.

The parameters are drawn from the edges of their domain (the smallest
positive and subnormal reals, 1.0, huge and infinite tau, the smallest
block, border and iteration count) and crossed with masks that hold no
sample, one sample, density 0.01, density 0.5 and every sample.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsrecon.cli import main as cli_main
from fsrecon.core import reconstruct_block, reconstruct_block_reference, reconstruct_image
from fsrecon.grid import AreaLabel, BlockContext, ImageGrid, SamplingMask
from fsrecon.imgio import read_image, write_pgm
from fsrecon.priors import PriorKind
from fsrecon.weighting import FsrParams

FIELDS = [f.name for f in dataclasses.fields(FsrParams)]
TINY = (5e-324, 1e-320, 1e-300, 1e-200, 1e-150, 1e-100)


def unit_interval():
    """Values in (0, 1], the domain of rho_hat, delta and gamma."""
    return st.sampled_from(TINY + (0.5, 1.0)) | st.floats(
        min_value=0.0, max_value=1.0, exclude_min=True
    )


def make_mask(kind, shape, rng):
    if kind == "none":
        return np.zeros(shape, dtype=bool)
    if kind == "one":
        flags = np.zeros(shape, dtype=bool)
        flags[tuple(rng.integers(0, shape))] = True
        return flags
    if kind == "all":
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < kind


@settings(max_examples=150, deadline=None)
@given(
    rho_hat=unit_interval(),
    delta=unit_interval(),
    gamma=unit_interval(),
    tau=st.sampled_from(TINY + (1e300, math.inf)) | st.floats(min_value=0.0, exclude_min=True),
    block_size=st.sampled_from([2, 4]),
    border=st.integers(0, 5),
    iterations=st.sampled_from([1, 2, 7]),
    mask_kind=st.sampled_from(["none", "one", 0.01, 0.5, "all"]),
    shape=st.tuples(st.integers(1, 14), st.integers(1, 14)),
    prior=st.sampled_from(PriorKind),
    seed=st.integers(0, 2**16),
)
# a window whose weights lie only where rho_hat ** d underflows to a
# subnormal sum: once "samples must be finite" from NaN projections
@example(rho_hat=1e-150, delta=0.5, gamma=0.5, tau=2.0, block_size=4, border=14,
         iterations=100, mask_kind=0.1, shape=(24, 24), prior=PriorKind.ADAPTIVE, seed=2)
# edge blocks of a fully known image whose weight sums underflow to zero:
# they take the fallback but fill nothing, so they are not listed
@example(rho_hat=1e-300, delta=0.5, gamma=0.5, tau=2.0, block_size=4, border=0,
         iterations=1, mask_kind="all", shape=(9, 9), prior=PriorKind.ADAPTIVE, seed=3)
def test_accepted_params_give_finite_output_or_name_a_field(
    rho_hat, delta, gamma, tau, block_size, border, iterations, mask_kind, shape, prior, seed
):
    params = FsrParams(rho_hat, delta, gamma, tau, block_size, border, iterations)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 255.0, shape)
    samples[rng.random(shape) < 0.1] = 0.0
    samples[rng.random(shape) < 0.1] = 255.0
    flags = make_mask(mask_kind, shape, rng)
    try:
        result = reconstruct_image(ImageGrid(samples), SamplingMask(flags), params, prior)
    except ValueError as exc:
        assert any(name in str(exc) for name in FIELDS), exc
        return
    out = result.image.samples
    assert np.all(np.isfinite(out))
    assert out.min() >= 0.0 and out.max() <= 255.0
    assert out[flags].tobytes() == samples[flags].tobytes()
    B = block_size
    assert all((~flags[r0 : r0 + B, c0 : c0 + B]).any() for r0, c0 in result.fallback_blocks)


@pytest.mark.parametrize("rho_hat", [1e-150, 1e-200])
def test_underflowing_weights_fall_back(rho_hat):
    rng = np.random.default_rng(2)
    samples = rng.uniform(0.0, 255.0, (32, 32))
    flags = rng.random((32, 32)) < 0.05
    result = reconstruct_image(ImageGrid(samples), SamplingMask(flags), FsrParams(rho_hat=rho_hat))
    assert np.all(np.isfinite(result.image.samples))
    assert result.fallback_blocks  # windows with data only far from their center


def test_cli_reconstructs_with_underflowing_weights(tmp_path, capsys):
    rng = np.random.default_rng(2)
    write_pgm(tmp_path / "in.pgm", ImageGrid(rng.integers(0, 256, (32, 32)).astype(float)))
    argv = ["reconstruct", "--input", str(tmp_path / "in.pgm"), "--density", "0.05",
            "--seed", "2", "--method", "fsr-ap", "--rho-hat", "1e-150",
            "--output", str(tmp_path / "out.pgm")]
    assert cli_main(argv) == 0
    assert "used the zero-data fallback" in capsys.readouterr().out
    assert read_image(tmp_path / "out.pgm").samples.shape == (32, 32)


def test_subnormal_weight_sum_falls_back_on_both_paths():
    labels = np.full((8, 8), AreaLabel.B.value, dtype=np.uint8)
    labels[5, 5] = AreaLabel.A.value  # 2.12 px from the center: 1e-150 ** 2.12 is subnormal
    values = np.zeros((8, 8))
    values[5, 5] = 100.0
    ctx = BlockContext(labels=labels, values=values)
    params = FsrParams(rho_hat=1e-150, block_size=4, border=2)
    fast, fell_back = reconstruct_block(ctx, params)
    oracle, oracle_fell_back = reconstruct_block_reference(ctx, params)
    assert fell_back and oracle_fell_back
    expected = np.full((4, 4), np.nan)  # no model: reconstruct_image fills these
    expected[3, 3] = 100.0  # the known sample passes through
    assert fast.tobytes() == oracle.tobytes() == expected.tobytes()



@pytest.mark.parametrize("rho_hat, listed", [
    (1e-150, []),
    (1e-200, []),
    (1e-300, []),
])
def test_only_empty_windows_of_blocks_without_a_pixel_to_fill_are_listed(rho_hat, listed):
    # fully known 9x9 at block size 4, border 0: the edge blocks' known
    # pixels lie 1.58 px and more from their window's center, the corner
    # pixel 2.12 px, so their weight sums turn subnormal, then zero, as
    # rho_hat falls; those windows take the fallback but fill nothing, and
    # a block is listed exactly when it filled a pixel with the fallback
    params = FsrParams(rho_hat=rho_hat, block_size=4, border=0)
    samples = np.random.default_rng(3).uniform(0.0, 255.0, (9, 9))
    flags = np.ones((9, 9), dtype=bool)
    result = reconstruct_image(ImageGrid(samples), SamplingMask(flags), params)
    assert result.image.samples.tobytes() == samples.tobytes()
    assert result.fallback_blocks == listed


def test_subnormal_weight_sum_without_a_pixel_to_fill_is_not_flagged():
    # the corner window of the 9x9 image above: both block paths report
    # that it took the fallback, yet reconstruct_image does not list it
    labels = np.full((4, 4), AreaLabel.OUTSIDE.value, dtype=np.uint8)
    labels[0, 0] = AreaLabel.A.value  # 2.12 px from the center: 1e-150 ** 2.12 is subnormal
    values = np.zeros((4, 4))
    values[0, 0] = 9.0
    ctx = BlockContext(labels=labels, values=values)
    params = FsrParams(rho_hat=1e-150, block_size=4, border=0)
    for patch, fell_back in (reconstruct_block(ctx, params), reconstruct_block_reference(ctx, params)):
        assert fell_back
        assert patch[0, 0] == 9.0
    samples = np.random.default_rng(3).uniform(0.0, 255.0, (9, 9))
    flags = np.ones((9, 9), dtype=bool)
    result = reconstruct_image(ImageGrid(samples), SamplingMask(flags), params)
    assert (8, 8) not in result.fallback_blocks


def test_cli_reports_no_fallback_for_an_image_without_an_unknown_pixel(tmp_path, capsys):
    samples = np.random.default_rng(3).uniform(0.0, 255.0, (9, 9))
    write_pgm(tmp_path / "in.pgm", ImageGrid(np.rint(samples)))
    argv = ["reconstruct", "--input", str(tmp_path / "in.pgm"), "--density", "1.0",
            "--method", "fsr-ap", "--rho-hat", "1e-300", "--block-size", "4", "--border", "0",
            "--output", str(tmp_path / "out.pgm")]
    assert cli_main(argv) == 0
    assert "fallback" not in capsys.readouterr().out
