"""A loaded DLP keeps each split's path and digest, not its text, until the
split is read: every load check still runs in `load_dlp_dataset`, a read
split is the line-by-line parse of its file, and a file changed or deleted
since the load is caught on that first read."""

import gc
import re
import shutil
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt import cli, tasks
from metadapt.checkpoint import read_text
from metadapt.cli import run
from metadapt.corpus import SPLITS, load_datasets, load_dlp_dataset, load_registry
from metadapt.errors import DataIntegrityError
from metadapt.tasks import DlpDataset, DlpId

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.json"


def _line_parse(text: str) -> list[tuple[str, str]]:
    """The reference parse: each line of the text cut at its first tab."""
    pairs = []
    for line in text.splitlines():
        src, _, tgt = line.partition("\t")
        pairs.append((src, tgt))
    return pairs


@pytest.fixture
def parsed(monkeypatch) -> list[str]:
    """The texts `DlpDataset` parses, in order."""
    seen = []
    parse = tasks.parse_pairs

    def recording(text):
        seen.append(text)
        return parse(text)

    monkeypatch.setattr(tasks, "parse_pairs", recording)
    return seen


def test_every_read_split_is_the_line_parse_of_its_file(tiny_registry):
    for row in tiny_registry.rows:
        ds = load_dlp_dataset(tiny_registry, row.dlp)
        for split in SPLITS:
            expected = _line_parse(read_text(row.path(tiny_registry.root, split)))
            assert getattr(ds, split) == expected
            assert all(type(pair) is tuple for pair in getattr(ds, split))


def test_reading_one_split_parses_that_split_alone(tiny_registry, parsed):
    row = tiny_registry.by_role("heldout")[0]
    ds = load_dlp_dataset(tiny_registry, row.dlp)
    assert parsed == []
    test = ds.test
    assert parsed == [read_text(row.path(tiny_registry.root, "test"))]
    assert ds.test is test  # the pairs are kept in place of the text
    assert len(parsed) == 1  # train, adapt and valid are still text
    for split in ("train", "adapt", "valid"):
        getattr(ds, split)
    assert len(parsed) == 4


def test_two_loads_compare_equal_whatever_was_read(tiny_registry):
    dlp = DlpId("gears", "apa", "bel")
    a, b = load_dlp_dataset(tiny_registry, dlp), load_dlp_dataset(tiny_registry, dlp)
    assert a.test  # one side has a parsed split, the other none
    assert a == b
    listed = DlpDataset(id=dlp, train=list(b.train), adapt=list(b.adapt),
                        valid=list(b.valid), test=list(b.test))
    assert listed == load_dlp_dataset(tiny_registry, dlp)
    assert DlpDataset(id=dlp) == DlpDataset(id=dlp, train=[], adapt=[], valid=[], test=[])
    assert DlpDataset(id=dlp).train == []


_PART = st.text(alphabet=st.sampled_from("ab \t\r"), max_size=6)
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_PART, _PART, _LINE_END), max_size=8))
def test_lazy_parse_equals_the_line_parse(lines):
    """Lines with extra tabs and carriage returns, cut where `splitlines`
    cuts them: a split given as text reads as the line parse of that text,
    and where every line has a tab before a non-empty target (the load
    check), rejoining each pair with a tab gives back the lines, so
    comparing lines across splits is comparing pairs."""
    text = "".join(f"{src}\t{tgt}{end}" for src, tgt, end in lines)
    dlp = DlpId("gears", "apa", "bel")
    expected = _line_parse(text)
    assert DlpDataset(id=dlp, valid=text).valid == expected
    assert DlpDataset(id=dlp, valid=text) == DlpDataset(id=dlp, valid=expected)
    if all(line.partition("\t")[2] for line in text.splitlines()):
        assert [f"{src}\t{tgt}" for src, tgt in expected] == text.splitlines()


# --- every load check runs at load, whichever splits are read later ---------------

def _cut_line(root, row):
    path = row.path(root, "valid")
    path.write_text("".join(read_text(path).splitlines(keepends=True)[:-1]), encoding="utf-8")


def _drop_tab(root, row):
    path = row.path(root, "valid")
    path.write_text(read_text(path).replace("\t", " ", 1), encoding="utf-8")


def _test_line_into_adapt(root, row):
    test_line = read_text(row.path(root, "test")).splitlines()[0]
    path = row.path(root, "adapt")
    lines = read_text(path).splitlines()
    path.write_text("\n".join([test_line] + lines[1:]) + "\n", encoding="utf-8")


def _missing(root, row):
    row.path(root, "train").unlink()


def _not_utf8(root, row):
    path = row.path(root, "train")
    path.write_bytes(b"\xff" + path.read_bytes()[1:])


DAMAGES = {
    "cut line": (_cut_line, DataIntegrityError, "world.json gives"),
    "dropped tab": (_drop_tab, DataIntegrityError, "without tab separator"),
    "test line in adapt": (_test_line_into_adapt, DataIntegrityError, "'adapt' and 'test' overlap"),
    "missing file": (_missing, FileNotFoundError, "missing split file"),
    "not UTF-8": (_not_utf8, DataIntegrityError, "not UTF-8"),
}


@pytest.mark.parametrize("damage", list(DAMAGES))
def test_damage_to_an_unread_split_raises_at_load(tiny_registry, tmp_path, parsed, damage):
    damage_fn, error, message = DAMAGES[damage]
    root = tmp_path / "corpus"
    shutil.copytree(tiny_registry.root, root)
    registry = load_registry(root)
    row = registry.by_role("heldout")[0]
    damage_fn(root, row)
    with pytest.raises(error, match=message):
        load_dlp_dataset(registry, row.dlp)
    assert parsed == []


@pytest.fixture(scope="module")
def smoke_backbone(tmp_path_factory) -> Path:
    """A smoke-config corpus and a briefly pretrained backbone."""
    root = tmp_path_factory.mktemp("smoke_backbone")
    for command in ("gen-corpus", "pretrain"):
        assert run([command, "--config", str(SMOKE), *_paths(root),
                    "--set", "pretrain.max_steps=2"]) == 0
    return root


def _paths(root: Path) -> list[str]:
    return ["--set", f"corpus_dir={root / 'corpus'}", "--set", f"out_dir={root / 'run'}"]


@pytest.mark.parametrize("damage", ["cut line", "dropped tab", "test line in adapt"])
def test_adapt_exits_3_on_damage_to_a_split_it_never_reads(smoke_backbone, tmp_path, capsys,
                                                           damage):
    """The backbone strategy reads only the test split of each held-out DLP."""
    for name in ("corpus", "run"):
        shutil.copytree(smoke_backbone / name, tmp_path / name)
    row = load_registry(tmp_path / "corpus").by_role("heldout")[0]
    DAMAGES[damage][0](tmp_path / "corpus", row)
    capsys.readouterr()
    assert run(["adapt", "--config", str(SMOKE), *_paths(tmp_path),
                "--set", 'eval.strategies=["backbone"]']) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and DAMAGES[damage][2] in err
    assert err.count("\n") == 1


# --- a loaded DLP keeps each split's digest, and checks it on the first read -------

def _strings_reachable(obj) -> list[str]:
    """Every str reachable from `obj` through objects it holds, without
    following classes or modules."""
    seen, found, todo = set(), [], [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen.add(id(item))
        if isinstance(item, str):
            found.append(item)
        else:
            todo.extend(gc.get_referents(item))
    return found


def test_a_loaded_dataset_holds_no_split_text(tiny_registry):
    """Every line of a split file holds a tab; no string the dataset holds does."""
    for row in tiny_registry.rows:
        ds = load_dlp_dataset(tiny_registry, row.dlp)
        assert not any(isinstance(value, str) for value in vars(ds).values())
        assert not any("\t" in s for s in _strings_reachable(ds))


def _copied(tiny_registry, tmp_path):
    shutil.copytree(tiny_registry.root, tmp_path / "corpus")
    registry = load_registry(tmp_path / "corpus")
    return registry, registry.by_role("heldout")[0]


def _swap_two_lines(path: Path) -> None:
    lines = read_text(path).splitlines(keepends=True)
    lines[0], lines[1] = lines[1], lines[0]
    path.write_text("".join(lines), encoding="utf-8")


def test_a_split_changed_after_load_raises_on_its_first_read(tiny_registry, tmp_path):
    registry, row = _copied(tiny_registry, tmp_path)
    ds = load_dlp_dataset(registry, row.dlp)
    path = row.path(registry.root, "test")
    _swap_two_lines(path)
    load_dlp_dataset(registry, row.dlp)  # the change passes every load check
    with pytest.raises(DataIntegrityError, match=re.escape(str(path))):
        ds.test
    assert ds.adapt == _line_parse(read_text(row.path(registry.root, "adapt")))


def test_a_split_deleted_after_load_raises_on_its_first_read(tiny_registry, tmp_path):
    registry, row = _copied(tiny_registry, tmp_path)
    ds = load_dlp_dataset(registry, row.dlp)
    row.path(registry.root, "train").unlink()
    with pytest.raises(FileNotFoundError, match="missing split file"):
        ds.train


def test_adapt_exits_3_on_a_test_split_changed_after_load(smoke_backbone, tmp_path, monkeypatch,
                                                          capsys):
    """The held-out datasets are loaded before stage two starts; a test
    split changed in between is caught when stage two reads it."""
    for name in ("corpus", "run"):
        shutil.copytree(smoke_backbone / name, tmp_path / name)
    registry = load_registry(tmp_path / "corpus")
    path = registry.by_role("heldout")[0].path(registry.root, "test")
    compare = cli.compare_strategies

    def change_then_compare(*args, **kwargs):
        _swap_two_lines(path)
        return compare(*args, **kwargs)

    monkeypatch.setattr(cli, "compare_strategies", change_then_compare)
    capsys.readouterr()
    assert run(["adapt", "--config", str(SMOKE), *_paths(tmp_path),
                "--set", 'eval.strategies=["backbone"]']) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err
    assert err.count("\n") == 1


def test_a_loaded_role_keeps_a_small_share_of_its_split_bytes(tiny_registry):
    rows = tiny_registry.by_role("heldout")
    split_bytes = sum(row.path(tiny_registry.root, split).stat().st_size
                      for row in rows for split in SPLITS)
    load_datasets(tiny_registry, [row.dlp for row in rows])  # imports and caches warm
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        datasets = load_datasets(tiny_registry, [row.dlp for row in rows])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(datasets) == len(rows)
    assert kept < split_bytes / 2, (kept, split_bytes)
