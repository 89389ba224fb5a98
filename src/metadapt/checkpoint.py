"""Flat binary checkpoint format for named float64 parameter maps.

Layout (all integers little-endian):

    magic   8 bytes   b"MDCKPT01" (format version 1)
    count   uint64    number of entries
    entry   repeated  name_len uint32, name utf-8, ndim uint32,
                      dims uint64 * ndim, payload float64<little-endian> * prod(dims)

Entries are written in sorted name order so identical parameter maps produce
identical files.

`atomic_write` is the one way the package writes an artifact (checkpoints,
the run index, training logs, metrics and report tables): a reader or a crash
sees the old file or the new one, never a part of either; `atomic_dir` does
the same for a whole tree, the corpus. The text helpers below are the one
encoding of every other artifact: UTF-8, JSON sorted with indent 2 (a log:
one sorted JSON object per line), CSV with "\n" line ends; bytes that are
not UTF-8, or text that is not JSON, are a DataIntegrityError naming the
file.

The run index, `INDEX` in a run's out_dir, holds `{"stages": {stage: entry}}`:
each entry the stage's config, the code version, the stage's own facts, and
under `files` the size and SHA-256 of every file it wrote, by its path
relative to out_dir. A stage loads a file only once `verified` matches it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import secrets
import shutil
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from . import __version__
from .errors import DataIntegrityError, InputError

MAGIC = b"MDCKPT01"
INDEX = "manifest.json"


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


@contextmanager
def atomic_dir(path: str | Path, check_old: Callable[[Path], None]) -> Iterator[Path]:
    """Make a new temp directory beside `path` to fill.

    `path` is resolved first, so a symlink keeps pointing at the directory
    that is replaced. The working directory, or one that holds it, is an
    InputError and a file at `path` a FileExistsError; a non-empty directory
    there is passed to `check_old`, which raises to keep it. All of this
    happens before anything is written. A clean exit renames the temp
    directory to `path`, after moving the tree already there aside, and then
    deletes that tree; an exception deletes the temp directory and leaves
    `path` as it was."""
    path = Path(path).resolve()
    cwd = Path.cwd().resolve()
    if path == cwd or path in cwd.parents:
        raise InputError(f"{path}: is the working directory or holds it, so it cannot be "
                         "replaced whole")
    if path.exists() and not path.is_dir():
        raise FileExistsError(f"{path}: exists and is not a directory")
    if path.is_dir() and any(path.iterdir()):
        check_old(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    tmp.mkdir()
    old = tmp.with_suffix(".old")
    try:
        yield tmp
        if path.exists():
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        if old.exists() and not path.exists():
            os.rename(old, path)
        shutil.rmtree(tmp, ignore_errors=True)  # the exception raised says what failed
        raise
    try:
        if old.exists():
            shutil.rmtree(old)
    except OSError as exc:
        raise OSError(f"{path}: the new tree is in place, but the old one moved to {old} "
                      f"could not be deleted ({exc})") from exc


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
    return decode(Path(path).read_bytes(), path)


def read_split(path: Path) -> bytes:
    """A corpus split file's bytes; a missing file is a FileNotFoundError
    naming it."""
    try:
        return path.read_bytes()
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"missing split file: {path}") from exc


def decode(data: bytes, path: str | Path) -> str:
    """`data`, read from the file at `path`, as UTF-8 text."""
    try:
        return data.decode("utf-8")
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
    """Read a checkpoint, each payload straight into its own array; any
    framing that does not fit the file (a truncated or corrupted entry, a
    repeated entry name, trailing bytes) is a DataIntegrityError."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataIntegrityError(f"{path}: unrecognized checkpoint header")
        offset = len(MAGIC)

        def take(n: int) -> int:
            """Claim the next n bytes of the file; returns n."""
            nonlocal offset
            if n > size - offset:
                raise DataIntegrityError(f"{path}: truncated checkpoint, {n} bytes wanted at "
                                         f"offset {offset} of {size}")
            offset += n
            return n

        (count,) = struct.unpack("<Q", fh.read(take(8)))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(take(4)))
            try:
                name = str(fh.read(take(name_len)), "utf-8")
            except UnicodeDecodeError as exc:
                raise DataIntegrityError(f"{path}: entry name at offset {offset} is not "
                                         "UTF-8") from exc
            (ndim,) = struct.unpack("<I", fh.read(take(4)))
            shape = struct.unpack(f"<{ndim}Q", fh.read(take(8 * ndim)))
            take(8 * math.prod(shape))  # before the array is allocated
            payload = np.empty(shape, dtype="<f8")
            if fh.readinto(payload.reshape(-1).view(np.uint8)) != payload.nbytes:
                raise DataIntegrityError(f"{path}: cut short while it was read")
            if name in out:
                raise DataIntegrityError(f"{path}: checkpoint entry {name!r} appears twice")
            out[name] = payload.astype(np.float64, copy=False)  # no copy on little-endian
        if offset != size:
            raise DataIntegrityError(f"{path}: trailing bytes after last checkpoint entry")
    return out


def _digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _stages(index: Path) -> dict:
    raw = read_json(index)
    if not (isinstance(raw, dict) and isinstance(raw.get("stages"), dict)):
        raise DataIntegrityError(f"{index}: no stages table, so not a run index of this format")
    return raw["stages"]


def record_stage(out_dir: Path, stage: str, config: dict, files: list[str], **facts) -> None:
    """Replace `stage`'s entry of the run index in `out_dir` (an index that
    cannot be read starts anew): `config`, the code version, `facts` and the
    digest of each of `files`, already written under `out_dir`."""
    try:
        stages = _stages(out_dir / INDEX)
    except (FileNotFoundError, DataIntegrityError):
        stages = {}
    stages[stage] = {"config": config, "code_version": __version__, **facts,
                     "files": {name: _digest((out_dir / name).read_bytes()) for name in files}}
    write_json(out_dir / INDEX, {"stages": stages})


def read_stage(out_dir: Path, stage: str) -> dict:
    """`stage`'s entry of the run index in `out_dir`; no index, one that
    cannot be read or has no entry for `stage` is a DataIntegrityError."""
    index = out_dir / INDEX
    try:
        entry = _stages(index).get(stage)
    except FileNotFoundError as exc:
        raise DataIntegrityError(f"{index} not found; run the '{stage}' stage again") from exc
    except DataIntegrityError as exc:
        raise DataIntegrityError(f"{exc}; run the '{stage}' stage again") from exc
    if not (isinstance(entry, dict) and all(isinstance(entry.get(k), dict)
                                            for k in ("config", "files"))):
        raise DataIntegrityError(f"{index}: no entry for stage '{stage}'; run it again")
    return entry


def verified(out_dir: Path, stage: str, entry: dict, name: str) -> Path:
    """The path of `name` under `out_dir`, once its size and SHA-256 are the
    ones `stage`'s index `entry` lists for it."""
    path = out_dir / name
    try:
        digest = _digest(path.read_bytes())
    except FileNotFoundError as exc:
        raise DataIntegrityError(f"{path} not found; run the '{stage}' stage again") from exc
    if digest != entry["files"].get(name):
        raise DataIntegrityError(f"{path}: size or SHA-256 is not what the run index lists "
                                 f"for stage '{stage}'; run it again")
    return path
