"""A loaded DLP keeps each split as its file text until the split is read:
every load check still runs in `load_dlp_dataset`, and a read split is the
line-by-line parse of its file."""

import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt import tasks
from metadapt.checkpoint import read_text
from metadapt.cli import run
from metadapt.corpus import SPLITS, load_dlp_dataset, load_registry
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
