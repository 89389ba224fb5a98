import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from metadapt import checkpoint
from metadapt.errors import DataIntegrityError, InputError


def _params():
    rng = np.random.default_rng(0)
    return {"b/bias": rng.normal(size=3), "a/w": rng.normal(size=(2, 4))}


def test_round_trip_bitwise(tmp_path):
    path = tmp_path / "p.ckpt"
    checkpoint.save_params(path, _params())
    loaded = checkpoint.load_params(path)
    assert list(loaded) == sorted(_params())
    for name, value in _params().items():
        assert loaded[name].shape == value.shape
        assert np.array_equal(loaded[name], value)


def test_every_truncation_is_data_integrity_error(tmp_path):
    path = tmp_path / "p.ckpt"
    checkpoint.save_params(path, _params())
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(DataIntegrityError):
            checkpoint.load_params(cut)


def test_corrupted_framing_is_data_integrity_error(tmp_path):
    path = tmp_path / "p.ckpt"
    checkpoint.save_params(path, _params())
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ckpt"
    # entry count far beyond the file, an oversized name, a non-UTF-8 name, trailing bytes
    for offset, value in ((8, b"\xff" * 8), (16, b"\xff" * 4), (20, b"\xff")):
        corrupted = bytearray(raw)
        corrupted[offset : offset + len(value)] = value
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(DataIntegrityError):
            checkpoint.load_params(bad)
    bad.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(DataIntegrityError):
        checkpoint.load_params(bad)
    # the same name twice, with another shape the second time
    repeated = checkpoint.MAGIC + struct.pack("<Q", 2)
    for size in (2, 3):
        repeated += struct.pack("<IcIQ", 1, b"w", 1, size) + bytes(8 * size)
    bad.write_bytes(repeated)
    with pytest.raises(DataIntegrityError, match=f"^{re.escape(str(bad))}: .*'w' appears twice"):
        checkpoint.load_params(bad)


def test_zero_dim_array_keeps_its_shape(tmp_path):
    path = tmp_path / "s.ckpt"
    checkpoint.save_params(path, {"scalar": np.asarray(1.5), **_params()})
    loaded = checkpoint.load_params(path)
    assert loaded["scalar"].shape == () and loaded["scalar"] == 1.5
    for name, value in _params().items():
        assert np.array_equal(loaded[name], value)


def _record(bleu):
    from metadapt.metrics import MetricsRecord
    from metadapt.tasks import DlpId

    return MetricsRecord(DlpId("gears", "apa", "bel"), "backbone", bleu=bleu, chrf=1.0,
                         loss=1.0, trainable_params=1, trainable_ratio=1.0)


def _save_checkpoint(path, good):
    # entries go out in sorted order, so "a/w" is written before "b/bias" fails to convert
    checkpoint.save_params(path, _params() if good else {"a/w": np.ones(2), "b/bias": "nan?"})


def _save_records(path, good):
    from metadapt.metrics import write_records

    write_records([_record(1.0), _record(2.0 if good else "two")], path)


@pytest.mark.parametrize("save", [_save_checkpoint, _save_records])
def test_failed_write_keeps_previous_file_and_no_temp_file(tmp_path, save):
    path = tmp_path / "artifact"
    save(path, good=True)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save(path, good=False)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_replaces_file_and_creates_parents(tmp_path):
    path = tmp_path / "new" / "dir" / "table.csv"
    for text in ("old\n", "new\r\n"):
        with checkpoint.atomic_write(path) as fh:
            fh.write(text)
    assert path.read_bytes() == b"new\r\n"  # text is written as given
    assert list(path.parent.iterdir()) == [path]


def test_atomic_dir_over_a_file_fails_before_writing(tmp_path):
    """A file where the tree goes is left as it is, with nothing beside it
    (a directory renamed over it would hide the file)."""
    path = tmp_path / "corpus"
    path.write_text("a file\n", encoding="utf-8")
    with pytest.raises(FileExistsError):
        with checkpoint.atomic_dir(path, _keep):
            pass
    assert path.read_text(encoding="utf-8") == "a file\n"
    assert list(tmp_path.iterdir()) == [path]


def _keep(path):
    raise FileExistsError(f"{path}: kept")


def test_atomic_dir_refuses_the_working_directory_and_its_parents(tmp_path, monkeypatch):
    """"." and "" name the working directory, whose name the tree's temp
    name is made from; it and every directory above it are refused before
    anything is written."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for path in (".", "", "..", tmp_path, "/"):
        with pytest.raises(InputError, match="working directory"):
            with checkpoint.atomic_dir(path, _keep):
                pass
    assert list(tmp_path.iterdir()) == [cwd] and list(cwd.iterdir()) == []


def test_atomic_dir_asks_before_replacing_a_non_empty_directory(tmp_path):
    """A non-empty directory is passed to check_old, whose exception keeps
    it; an empty one is replaced without asking."""
    path = tmp_path / "tree"
    path.mkdir()
    with checkpoint.atomic_dir(path, _keep) as tree:
        (tree / "a.txt").write_text("new\n", encoding="utf-8")
    assert (path / "a.txt").read_text(encoding="utf-8") == "new\n"
    with pytest.raises(FileExistsError, match="kept"):
        with checkpoint.atomic_dir(path, _keep):
            pass
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == [path / "a.txt"]


def test_atomic_dir_through_a_symlink_replaces_its_target(tmp_path):
    """The link stays a link, its target holds the new tree, and nothing is
    left beside either."""
    target, link = tmp_path / "target", tmp_path / "link"
    target.mkdir()
    (target / "old.txt").write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    with checkpoint.atomic_dir(link, lambda path: None) as tree:
        (tree / "new.txt").write_text("new\n", encoding="utf-8")
    assert link.is_symlink() and link.resolve() == target
    assert [p.name for p in target.iterdir()] == ["new.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


def test_record_stage_replaces_only_its_own_entry(tmp_path):
    """Each entry keys its files by their path relative to out_dir, and a
    stage recorded again replaces its own entry alone."""
    checkpoint.save_params(tmp_path / "a" / "x.ckpt", _params())
    (tmp_path / "log.jsonl").write_text("{}\n", encoding="utf-8")
    checkpoint.record_stage(tmp_path, "a", {"seed": 1}, ["a/x.ckpt"], note="n")
    checkpoint.record_stage(tmp_path, "b", {"seed": 2}, ["log.jsonl"])
    checkpoint.record_stage(tmp_path, "a", {"seed": 3}, ["a/x.ckpt"], note="m")
    a, b = (checkpoint.read_stage(tmp_path, s) for s in ("a", "b"))
    assert (a["config"], a["note"], list(a["files"])) == ({"seed": 3}, "m", ["a/x.ckpt"])
    assert (b["config"], list(b["files"])) == ({"seed": 2}, ["log.jsonl"])
    assert a["files"]["a/x.ckpt"]["bytes"] == (tmp_path / "a" / "x.ckpt").stat().st_size
    assert checkpoint.verified(tmp_path, "a", a, "a/x.ckpt") == tmp_path / "a" / "x.ckpt"


@pytest.mark.parametrize("index, message", [
    (None, "manifest.json not found; run the 's' stage again"),
    ({"config": {}, "seed": 0, "code_version": "0.1.0"}, "no stages table"),
    ({"stages": {"other": {"config": {}, "files": {}}}}, "no entry for stage 's'"),
    ({"stages": {"s": {"config": {}}}}, "no entry for stage 's'"),
], ids=["no-index", "older-format", "no-entry", "entry-without-files"])
def test_read_stage_of_a_missing_entry_is_data_integrity_error(tmp_path, index, message):
    if index is not None:
        (tmp_path / "manifest.json").write_text(json.dumps(index), encoding="utf-8")
    with pytest.raises(DataIntegrityError, match=re.escape(message)):
        checkpoint.read_stage(tmp_path, "s")


def test_verified_rejects_a_changed_unlisted_or_missing_file(tmp_path):
    for name in ("x.ckpt", "y.ckpt"):
        checkpoint.save_params(tmp_path / name, _params())
    checkpoint.record_stage(tmp_path, "s", {}, ["x.ckpt"])
    entry = checkpoint.read_stage(tmp_path, "s")
    raw = bytearray((tmp_path / "x.ckpt").read_bytes())
    raw[-1] ^= 1  # one payload byte: the framing still parses
    (tmp_path / "x.ckpt").write_bytes(bytes(raw))
    assert checkpoint.load_params(tmp_path / "x.ckpt").keys() == _params().keys()
    entry["files"]["z.ckpt"] = entry["files"]["x.ckpt"]
    for name, message in (("x.ckpt", "x.ckpt: size or SHA-256 is not what the run index lists "
                                     "for stage 's'; run it again"),
                          ("y.ckpt", "y.ckpt: size or SHA-256 is not what the run index lists"),
                          ("z.ckpt", "z.ckpt not found; run the 's' stage again")):
        with pytest.raises(DataIntegrityError, match=re.escape(message)):
            checkpoint.verified(tmp_path, "s", entry, name)


def test_loading_allocates_the_payload_once(tmp_path):
    """Each payload is read straight into its own array: the load's peak
    allocation stays near the payload, not the file plus a copy of it."""
    rng = np.random.default_rng(1)
    params = {f"layer/{i}": rng.normal(size=(64, 128)) for i in range(16)}
    params.update({"scalar": np.float64(1.5), "empty": np.zeros((0, 3))})
    path = tmp_path / "p.ckpt"
    checkpoint.save_params(path, params)
    payload = sum(np.asarray(v).nbytes for v in params.values())
    tracemalloc.start()
    try:
        loaded = checkpoint.load_params(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * payload, peak / payload
    for name, value in params.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == np.shape(value)
        assert np.array_equal(loaded[name], value)
