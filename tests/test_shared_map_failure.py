"""A shared map the system refuses is its limit, not a data error."""

import errno
import mmap
import multiprocessing
from pathlib import Path

from metadapt.cli import run

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.json"


def test_pretrain_exits_1_when_the_shared_values_cannot_be_mapped(tmp_path, capfd, monkeypatch):
    paths = ["--set", f"corpus_dir={tmp_path / 'corpus'}", "--set", f"out_dir={tmp_path / 'run'}"]
    assert run(["gen-corpus", "--config", str(SMOKE)] + paths) == 0
    capfd.readouterr()

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    assert run(["pretrain", "--config", str(SMOKE)] + paths) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: supervised training: could not map the shared values")
    assert "Cannot allocate memory" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
