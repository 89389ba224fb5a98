"""Flat binary checkpoint format for named float64 parameter maps.

Layout (all integers little-endian):

    magic   8 bytes   b"MDCKPT01" (format version 1)
    count   uint64    number of entries
    entry   repeated  name_len uint32, name utf-8, ndim uint32,
                      dims uint64 * ndim, payload float64<little-endian> * prod(dims)

Entries are written in sorted name order so identical parameter maps produce
identical files.

`atomic_write` is the one way the package writes an artifact (checkpoints,
manifests, training logs, metrics and report tables): a reader or a crash
sees the old file or the new one, never a part of either. The text helpers
below are the one encoding of every other artifact: UTF-8, JSON sorted with
indent 2 (a log: one sorted JSON object per line), CSV with "\n" line ends;
bytes that are not UTF-8, or text that is not JSON, are a DataIntegrityError
naming the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import DataIntegrityError

MAGIC = b"MDCKPT01"


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a new temp file beside `path` (text is UTF-8, newlines as written).

    A clean exit syncs it and moves it over `path` with os.replace; an
    exception deletes it and leaves `path` as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with (open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, records) -> None:
    """One sorted JSON object per line; the file holds exactly `records`."""
    with atomic_write(path) as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_text(path: str | Path) -> str:
    """The file's text, exactly as stored (no newline translation)."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataIntegrityError(f"{path}: not UTF-8 ({exc})") from exc


def read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataIntegrityError(f"{path}: invalid JSON ({exc})") from exc


def save_params(path: str | Path, params: dict[str, np.ndarray]) -> None:
    with atomic_write(path, binary=True) as fh:
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
    or corrupted entry, a repeated entry name, trailing bytes) is a
    DataIntegrityError."""
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
        if name in out:
            raise DataIntegrityError(f"{path}: checkpoint entry {name!r} appears twice")
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if offset != len(raw):
        raise DataIntegrityError(f"{path}: trailing bytes after last checkpoint entry")
    return out
