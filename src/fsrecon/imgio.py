"""Reading and writing of images (binary PGM) and masks (PBM)."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .grid import ImageGrid, SamplingMask


_KINDS = {".pgm": "PGM images", ".pbm": "PBM masks"}


def pnm_path(path: str | Path, verb: str, suffix: str = ".pgm") -> Path:
    """``path`` as a Path, if its suffix is ``suffix``: images are read and
    written as PGM (``.pgm``) only, masks as PBM (``.pbm``) only.  Any other
    suffix raises a ValueError naming the format.
    """
    path = Path(path)
    if path.suffix.lower() != suffix:
        kind = _KINDS[suffix]
        raise ValueError(f"cannot {verb} {path}: only {kind} ({suffix}) are read or written")
    return path


def _read_pnm_header(
    path: str | Path, data: bytes, magic: bytes, n_fields: int
) -> tuple[list[int], int]:
    """The ``n_fields`` header numbers after ``magic`` and the offset of the pixel data.

    Each number follows at least one whitespace byte or comment, and one
    whitespace byte ends the header.  The first two, width and height,
    must be positive.
    """
    if not data.startswith(magic):
        raise ValueError(f"{path}: not a {magic.decode()} file")
    m = re.match(magic + rb"(?:\s|#[^\n]*\n)+(\d+)" * n_fields + rb"\s", data)
    if m is None:
        raise ValueError(f"{path}: truncated or malformed PNM header")
    fields = [int(f) for f in m.groups()]
    if 0 in fields[:2]:
        raise ValueError(f"{path}: image of width {fields[0]} and height {fields[1]} is empty")
    return fields, m.end()


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
    path = pnm_path(path, "read")
    data = path.read_bytes()
    (width, height, maxval), pos = _read_pnm_header(path, data, b"P5", 3)
    if not 0 < maxval <= 255:
        raise ValueError(
            f"{path}: unsupported maxval {maxval}: only 8-bit PGM (maxval 1..255) is read"
        )
    raw = _read_payload(path, data, pos, width * height)
    if raw.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample {raw.max()} exceeds maxval {maxval}")
    return ImageGrid(raw.reshape(height, width) * (255.0 / maxval))


def write_pgm(path: str | Path, image: ImageGrid) -> None:
    """Write a binary 8-bit PGM, rounded and clipped to [0, 255]; only to a ``.pgm`` path."""
    path = pnm_path(path, "write")
    arr = np.clip(np.rint(image.samples), 0, 255).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode()
    path.write_bytes(header + arr.tobytes())


def read_pbm(path: str | Path) -> SamplingMask:
    """Read a binary PBM mask, 1 = sample available; only from a ``.pbm`` path."""
    path = pnm_path(path, "read", ".pbm")
    data = path.read_bytes()
    (width, height), pos = _read_pnm_header(path, data, b"P4", 2)
    row_bytes = (width + 7) // 8
    raw = _read_payload(path, data, pos, row_bytes * height)
    bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    # PBM convention: 1 = black; we store 1 = sample available
    return SamplingMask(bits.astype(bool))


def write_pbm(path: str | Path, mask: SamplingMask) -> None:
    """Write a binary PBM mask, 1 = sample available; only to a ``.pbm`` path."""
    path = pnm_path(path, "write", ".pbm")
    bits = np.packbits(mask.flags.astype(np.uint8), axis=1)
    header = f"P4\n{mask.width} {mask.height}\n".encode()
    path.write_bytes(header + bits.tobytes())
