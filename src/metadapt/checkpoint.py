"""Flat binary checkpoint format for named float64 parameter maps.

Layout (all integers little-endian):

    magic   8 bytes   b"MDCKPT01" (format version 1)
    count   uint64    number of entries
    entry   repeated  name_len uint32, name utf-8, ndim uint32,
                      dims uint64 * ndim, payload float64<little-endian> * prod(dims)

Entries are written in sorted name order so identical parameter maps produce
identical files.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataIntegrityError

MAGIC = b"MDCKPT01"


def save_params(path: str | Path, params: dict[str, np.ndarray]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(params)))
        for name in sorted(params):
            arr = np.asarray(params[name], dtype=np.float64)  # keeps 0-d arrays 0-d
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any framing that does not fit the file (a truncated
    or corrupted entry, trailing bytes) is a DataIntegrityError."""
    path = Path(path)
    raw = memoryview(path.read_bytes())
    if raw[: len(MAGIC)] != MAGIC:
        raise DataIntegrityError(f"{path}: unrecognized checkpoint header")
    offset = len(MAGIC)

    def read(size: int) -> memoryview:
        nonlocal offset
        if size > len(raw) - offset:
            raise DataIntegrityError(f"{path}: truncated checkpoint, {size} bytes wanted at "
                                     f"offset {offset} of {len(raw)}")
        offset += size
        return raw[offset - size : offset]

    (count,) = struct.unpack("<Q", read(8))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", read(4))
        try:
            name = str(read(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataIntegrityError(f"{path}: entry name at offset {offset} is not UTF-8") from exc
        (ndim,) = struct.unpack("<I", read(4))
        shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
        payload = read(8 * math.prod(shape))
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if offset != len(raw):
        raise DataIntegrityError(f"{path}: trailing bytes after last checkpoint entry")
    return out
