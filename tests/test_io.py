import re

import numpy as np
import pytest

from fsrecon.grid import ImageGrid, SamplingMask, generate_mask
from fsrecon.imgio import read_image, read_pbm, write_pbm, write_pgm


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = ImageGrid(rng.integers(0, 256, size=(13, 17)).astype(float))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_image(path)
    np.testing.assert_array_equal(back.samples, img.samples)


def test_pgm_header_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = read_image(path)
    assert (img.height, img.width) == (2, 3)
    np.testing.assert_array_equal(img.samples.ravel(), np.arange(6))


def test_pgm_16bit(tmp_path):
    path = tmp_path / "deep.pgm"
    vals = np.array([[300, 0], [65535, 1]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + vals.tobytes())
    with pytest.raises(ValueError, match="maxval 65535"):
        read_image(path)


def test_pgm_low_maxval_scales_to_full_range(tmp_path):
    path = tmp_path / "low.pgm"
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 7, 15, 3]))
    np.testing.assert_array_equal(read_image(path).samples, [[0.0, 119.0], [255.0, 51.0]])


def test_pgm_maxval_255_reads_the_bytes(tmp_path):
    path = tmp_path / "full.pgm"
    payload = bytes(range(256))
    path.write_bytes(b"P5\n16 16\n255\n" + payload)
    assert read_image(path).samples.tobytes() == np.arange(256.0).reshape(16, 16).tobytes()


def test_pgm_sample_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 7, 15, 200]))
    with pytest.raises(ValueError, match=r"over\.pgm: sample 200 exceeds maxval 15"):
        read_image(path)


def test_pbm_round_trip(tmp_path):
    mask = generate_mask(19, 7, 0.4, 3)
    path = tmp_path / "mask.pbm"
    write_pbm(path, mask)
    back = read_pbm(path)
    np.testing.assert_array_equal(back.flags, mask.flags)


def test_pgm_clamps_and_rounds(tmp_path):
    img = ImageGrid(np.array([[-3.0, 12.6], [270.0, 99.4]]))
    path = tmp_path / "r.pgm"
    write_pgm(path, img)
    back = read_image(path)
    np.testing.assert_array_equal(back.samples, [[0.0, 13.0], [255.0, 99.0]])


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(ValueError, match=r"short\.pgm: .*expected 16 bytes, got 10"):
        read_image(path)


def test_pbm_truncated_payload(tmp_path):
    path = tmp_path / "short.pbm"
    path.write_bytes(b"P4\n12 3\n" + bytes(4))  # 2 bytes per row
    with pytest.raises(ValueError, match=r"short\.pbm: .*expected 6 bytes, got 4"):
        read_pbm(path)


@pytest.mark.parametrize(
    "name, data",
    [
        ("glued.pgm", b"P51 1 255\n" + bytes(1)),  # no separator before the width
        ("glued.pbm", b"P41 1\n" + bytes(1)),
        ("unended.pgm", b"P5 2 1 255" + bytes([5, 6])),  # no whitespace ends the header
        ("unended.pbm", b"P4 8 1" + bytes([5])),
    ],
    ids=["glued-pgm", "glued-pbm", "unended-pgm", "unended-pbm"],
)
def test_header_needs_its_separators(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    read = read_image if name.endswith(".pgm") else read_pbm
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated or malformed PNM header")):
        read(path)


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("wrong.pbm", b"P5\n1 1\n255\n" + bytes(1), "not a P4 file"),
        ("wrong.pgm", b"P4\n1 1\n" + bytes(1), "not a P5 file"),
        ("cut.pgm", b"P5\n4 4", "truncated or malformed PNM header"),
    ],
    ids=["pgm-as-pbm", "pbm-as-pgm", "cut-header"],
)
def test_header_errors_name_the_file(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    read = read_image if name.endswith(".pgm") else read_pbm
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read(path)


@pytest.mark.parametrize(
    "name, data, size",
    [
        ("empty.pgm", b"P5 0 4 255\n", "width 0 and height 4"),
        ("empty.pgm", b"P5 4 0 255\n", "width 4 and height 0"),
        ("empty.pbm", b"P4 0 4\n", "width 0 and height 4"),
        ("empty.pbm", b"P4 4 0\n", "width 4 and height 0"),
    ],
    ids=["pgm-no-width", "pgm-no-height", "pbm-no-width", "pbm-no-height"],
)
def test_zero_size_header_names_the_file(tmp_path, name, data, size):
    # accepted, the error came from ImageGrid or SamplingMask without the path
    path = tmp_path / name
    path.write_bytes(data)
    read = read_image if name.endswith(".pgm") else read_pbm
    with pytest.raises(ValueError, match=re.escape(f"{path}: image of {size} is empty")):
        read(path)


@pytest.mark.parametrize("name", ["out.png", "out.pbm", "out"])
def test_write_pgm_rejects_another_suffix(tmp_path, name):
    # accepted, PGM bytes were written under any name
    path = tmp_path / name
    with pytest.raises(ValueError, match=re.escape(f"cannot write {path}: only PGM images")):
        write_pgm(path, ImageGrid(np.zeros((2, 2))))
    assert not path.exists()


def test_write_pgm_accepts_an_upper_case_suffix(tmp_path):
    # the suffix rule is the reader's: .PGM reads, so it writes
    path = tmp_path / "out.PGM"
    write_pgm(path, ImageGrid(np.full((2, 3), 7.0)))
    assert read_image(path).samples.tobytes() == np.full((2, 3), 7.0).tobytes()


@pytest.mark.parametrize("name", ["mask.pgm", "mask.png", "mask"])
def test_pbm_rejects_another_suffix(tmp_path, name):
    # accepted, a mask was read and written under any name
    path = tmp_path / name
    message = f"{path}: only PBM masks (.pbm) are read or written"
    with pytest.raises(ValueError, match=re.escape(f"cannot write {message}")):
        write_pbm(path, SamplingMask(np.ones((2, 2), dtype=bool)))
    assert not path.exists()
    path.write_bytes(b"P4\n2 2\n" + bytes(2))
    with pytest.raises(ValueError, match=re.escape(f"cannot read {message}")):
        read_pbm(path)


def test_pbm_accepts_an_upper_case_suffix(tmp_path):
    path = tmp_path / "mask.PBM"
    mask = generate_mask(9, 4, 0.5, 1)
    write_pbm(path, mask)
    assert read_pbm(path).flags.tobytes() == mask.flags.tobytes()
