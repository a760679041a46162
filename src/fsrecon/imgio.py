"""Reading and writing of images (binary PGM) and masks (PBM)."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .grid import ImageGrid, SamplingMask

def _read_pnm_header(data: bytes, magic: bytes, n_fields: int) -> tuple[list[int], int]:
    if not data.startswith(magic):
        raise ValueError(f"not a {magic.decode()} file")
    fields: list[int] = []
    pos = 2
    while len(fields) < n_fields:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", data[pos:])
        if m is None:
            raise ValueError("truncated PNM header")
        fields.append(int(m.group(1)))
        pos += m.end()
    return fields, pos + 1  # single whitespace after the last header field


def _read_payload(path: str | Path, data: bytes, pos: int, nbytes: int) -> np.ndarray:
    """The ``nbytes`` pixel bytes from ``pos`` on; a clear error if fewer remain."""
    have = max(0, len(data) - pos)
    if have < nbytes:
        raise ValueError(f"{path}: truncated pixel data: expected {nbytes} bytes, got {have}")
    return np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos)


def read_image(path: str | Path) -> ImageGrid:
    """Read a binary 8-bit PGM, scaled from [0, maxval] to [0, 255].

    At maxval 255 the samples are the bytes themselves.  A sample above
    maxval is rejected, and so is any file whose suffix is not ``.pgm``.
    """
    path = Path(path)
    if path.suffix.lower() != ".pgm":
        raise ValueError(f"cannot read {path}: only PGM images (.pgm) are read")
    data = path.read_bytes()
    (width, height, maxval), pos = _read_pnm_header(data, b"P5", 3)
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported maxval {maxval}: only 8-bit PGM (maxval 1..255) is read")
    raw = _read_payload(path, data, pos, width * height)
    if raw.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample {raw.max()} exceeds maxval {maxval}")
    return ImageGrid(raw.reshape(height, width) * (255.0 / maxval))


def write_pgm(path: str | Path, image: ImageGrid) -> None:
    arr = np.clip(np.rint(image.samples), 0, 255).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode()
    Path(path).write_bytes(header + arr.tobytes())


def read_pbm(path: str | Path) -> SamplingMask:
    data = Path(path).read_bytes()
    (width, height), pos = _read_pnm_header(data, b"P4", 2)
    row_bytes = (width + 7) // 8
    raw = _read_payload(path, data, pos, row_bytes * height)
    bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    # PBM convention: 1 = black; we store 1 = sample available
    return SamplingMask(bits.astype(bool))


def write_pbm(path: str | Path, mask: SamplingMask) -> None:
    bits = np.packbits(mask.flags.astype(np.uint8), axis=1)
    header = f"P4\n{mask.width} {mask.height}\n".encode()
    Path(path).write_bytes(header + bits.tobytes())
