import numpy as np
import pytest

from fsrecon.grid import ImageGrid, generate_mask
from fsrecon.imgio import read_pbm, read_pgm, write_pbm, write_pgm


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = ImageGrid(rng.integers(0, 256, size=(13, 17)).astype(float))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_array_equal(back.samples, img.samples)


def test_pgm_header_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = read_pgm(path)
    assert (img.height, img.width) == (2, 3)
    np.testing.assert_array_equal(img.samples.ravel(), np.arange(6))


def test_pgm_16bit(tmp_path):
    path = tmp_path / "deep.pgm"
    vals = np.array([[300, 0], [65535, 1]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + vals.tobytes())
    with pytest.raises(ValueError, match="maxval 65535"):
        read_pgm(path)


def test_pgm_low_maxval_scales_to_full_range(tmp_path):
    path = tmp_path / "low.pgm"
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 7, 15, 3]))
    np.testing.assert_array_equal(read_pgm(path).samples, [[0.0, 119.0], [255.0, 51.0]])


def test_pgm_maxval_255_reads_the_bytes(tmp_path):
    path = tmp_path / "full.pgm"
    payload = bytes(range(256))
    path.write_bytes(b"P5\n16 16\n255\n" + payload)
    assert read_pgm(path).samples.tobytes() == np.arange(256.0).reshape(16, 16).tobytes()


def test_pgm_sample_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 7, 15, 200]))
    with pytest.raises(ValueError, match=r"over\.pgm: sample 200 exceeds maxval 15"):
        read_pgm(path)


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
    back = read_pgm(path)
    np.testing.assert_array_equal(back.samples, [[0.0, 13.0], [255.0, 99.0]])


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(ValueError, match=r"short\.pgm: .*expected 16 bytes, got 10"):
        read_pgm(path)


def test_pbm_truncated_payload(tmp_path):
    path = tmp_path / "short.pbm"
    path.write_bytes(b"P4\n12 3\n" + bytes(4))  # 2 bytes per row
    with pytest.raises(ValueError, match=r"short\.pbm: .*expected 6 bytes, got 4"):
        read_pbm(path)
