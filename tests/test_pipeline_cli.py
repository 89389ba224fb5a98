import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from metadapt import checkpoint
from metadapt.cli import run
from metadapt.corpus import Vocab
from metadapt.metrics import MetricsRecord, read_records, write_records
from metadapt.model import AdapterConfig, ModelConfig
from metadapt.optim import OptimizerSettings
from metadapt.errors import InputError
from metadapt.pipeline import (
    AdaptBudget,
    adapt_and_evaluate,
    backbone_dev_bleu,
    hyperparam_sweep,
    pretrain_backbone,
    role_datasets,
    write_sweep,
)
from metadapt.rules import NAMES
from metadapt.tasks import DlpId
from metadapt.training import STRATEGIES, MetaConfig, train_strategy

from conftest import on_cpus, tiny_world_spec


SMOKE_WORLD = {
    "languages": ["apa", "bel", "cor"],
    "domains": ["general", "gears", "herbs"],
    "pretrain_domain": "general",
    "heldout_domains": ["herbs"],
    "heldout_languages": ["cor"],
    "content_vocab_size": 40,
    "domain_vocab_size": 14,
    "neutral_len": [3, 6],
    "specialist_len": [4, 8],
    "train_size": 48,
    "adapt_size": 16,
    "valid_size": 8,
    "test_size": 8,
    "seed": 3,
}


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _smoke_config(tmp_path: Path) -> Path:
    config = {
        "world": SMOKE_WORLD,
        "corpus_dir": str(tmp_path / "corpus"),
        "out_dir": str(tmp_path / "run"),
        "model": {"model_dim": 16, "num_layers": 1, "num_heads": 2, "ffn_dim": 24,
                  "max_seq_len": 24, "dropout": 0.0},
        "adapter": {"bottleneck_dim": 4},
        "pretrain": {"epochs": 1, "lr": 2e-3, "batch_size": 16, "weight_decay": 0.0,
                     "max_steps": 6},
        "meta": {"m": 2, "n": 4, "q": 2, "k": 1, "beta": 1.0, "tau": 1.0, "epochs": 1,
                 "inner_lr": 2e-3, "max_meta_batches": 3},
        "adapt": {"epochs": 1, "batch_size": 8, "lr": 2e-3, "max_steps": 2},
        "eval": {"max_len": 12, "strategies": ["backbone", "meta_adapter", "random_adapter"]},
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_cli_gen_corpus_deterministic(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    first = _tree_bytes(tmp_path / "corpus")
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert _tree_bytes(tmp_path / "corpus") == first


def test_cli_failed_gen_corpus_leaves_the_corpus_as_it_was(tmp_path, capsys):
    """gen-corpus writes its tree beside corpus_dir and renames it into place
    whole: a run that fails its domain check exits 2 and leaves the corpus
    before it byte for byte, with no temp directory beside it, and a run
    that passes replaces the whole tree."""
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    first = _tree_bytes(tmp_path / "corpus")
    listing = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run(["gen-corpus", "--config", str(cfg), "--set", "world.seed=1",
                "--set", "world.min_domain_tv=0.999"]) == 2
    assert "too similar" in capsys.readouterr().err
    assert _tree_bytes(tmp_path / "corpus") == first
    assert sorted(tmp_path.iterdir()) == listing

    assert run(["gen-corpus", "--config", str(cfg), "--set", "world.seed=1"]) == 0
    second = _tree_bytes(tmp_path / "corpus")
    assert set(second) == set(first) and second != first
    assert sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize("stray", ["stray.txt", "general/stray.txt", "run/backbone.ckpt"])
def test_cli_gen_corpus_keeps_a_directory_that_is_not_only_a_corpus(tmp_path, capsys, stray):
    """A corpus_dir that holds anything but an earlier corpus (a file beside
    it, or a directory no domain of it names) exits 3 with every file left
    byte for byte and nothing beside it; "general/stray.txt" lies inside a
    domain's directory, which an earlier corpus owns, so that run replaces
    the tree."""
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    (tmp_path / "corpus" / stray).parent.mkdir(exist_ok=True)
    (tmp_path / "corpus" / stray).write_text("kept by hand\n", encoding="utf-8")
    before = _tree_bytes(tmp_path / "corpus")
    listing = sorted(tmp_path.iterdir())
    capsys.readouterr()
    code = run(["gen-corpus", "--config", str(cfg), "--set", "world.seed=1"])
    assert sorted(tmp_path.iterdir()) == listing
    if stray.startswith("general/"):
        assert code == 0 and stray not in _tree_bytes(tmp_path / "corpus")
        return
    assert code == 3
    assert "not only an earlier corpus" in capsys.readouterr().err
    assert _tree_bytes(tmp_path / "corpus") == before


def test_cli_gen_corpus_keeps_a_directory_of_other_files(tmp_path, capsys):
    """A corpus_dir with no world.json, say one holding other datasets,
    exits 3 before anything is written and is left byte for byte."""
    data = tmp_path / "data"
    (data / "other").mkdir(parents=True)
    (data / "other" / "train.tsv").write_text("a\tb\n", encoding="utf-8")
    (data / "notes.txt").write_text("mine\n", encoding="utf-8")
    before = _tree_bytes(data)
    assert run(["gen-corpus", "--config", str(_smoke_config(tmp_path)),
                "--set", f"corpus_dir={data}"]) == 3
    assert "not only an earlier corpus" in capsys.readouterr().err
    assert _tree_bytes(data) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data"]


@pytest.mark.parametrize("corpus_dir, out_dir", [
    (".", "runs/exp"), ("", "runs/exp"), ("{tmp}/corpus", "{tmp}/corpus"),
    ("{tmp}/corpus", "{tmp}/corpus/run"), ("{tmp}", "{tmp}/corpus/run")])
def test_cli_gen_corpus_with_out_dir_inside_corpus_dir_exit_2(tmp_path, capsys, monkeypatch,
                                                                corpus_dir, out_dir):
    """A new corpus replaces corpus_dir whole, so an out_dir at or under it
    (as the working directory is for a relative out_dir when corpus_dir is
    "." or "") is refused in one line before anything is written."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg),
                "--set", "corpus_dir=" + corpus_dir.replace("{tmp}", str(tmp_path)),
                "--set", "out_dir=" + out_dir.replace("{tmp}", str(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gen-corpus: out_dir (") and err.count("\n") == 1
    assert "must not lie inside corpus_dir" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "cwd"]
    assert list(cwd.iterdir()) == []


def test_cli_full_smoke_pipeline(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    assert (out / "backbone.ckpt").exists()
    entry = json.loads((out / "manifest.json").read_text())["stages"]["pretrain"]
    assert entry["backbone_checksum"]
    # backbone checkpoint has no adapters
    assert not [n for n in checkpoint.load_params(out / "backbone.ckpt") if "/adapter/" in n]
    assert run(["meta-train", "--config", str(cfg)]) == 0
    assert (out / "meta_adapter" / "adapter.ckpt").exists()
    assert run(["adapt", "--config", str(cfg)]) == 0
    records = read_records(out / "metrics.csv")
    strategies = {r.strategy for r in records}
    assert strategies == {"backbone", "meta_adapter", "random_adapter"}
    assert all(0.0 <= r.bleu <= 100.0 for r in records)
    assert run(["report", "--runs", str(out), "--reference", "backbone",
                "--out", str(out / "report")]) == 0
    report_dir = out / "report"
    for name in ("table_by_domain.csv", "table_by_language_pair.csv",
                 "table_overall.csv", "details_by_dlp.csv", "efficiency.csv",
                 "loss_curves.csv"):
        assert (report_dir / name).exists(), name
    first = _tree_bytes(report_dir)
    assert run(["report", "--runs", str(out), "--reference", "backbone",
                "--out", str(out / "report")]) == 0
    assert _tree_bytes(report_dir) == first  # byte-identical regeneration


def test_cli_run_index_entries_record_wall_time_and_peak_rss(tmp_path, monkeypatch):
    """Every entry the CLI writes holds the stage's wall time, the peak
    resident set of its process and that of its largest ForkPool worker, as
    positive numbers: on two CPUs every stage starts a worker."""
    on_cpus(monkeypatch, 2)
    cfg = _smoke_config(tmp_path)
    for command in (["gen-corpus"], ["pretrain"], ["meta-train"],
                    ["baseline", "--set", "strategy=agnostic_adapter"], ["adapt"],
                    ["sweep", "--set", 'sweep.points=[{"k": 1}]']):
        assert run([command[0], "--config", str(cfg), *command[1:]]) == 0
    stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]
    assert sorted(stages) == ["adapt", "agnostic_adapter", "meta_adapter", "pretrain", "sweep"]
    for stage, entry in stages.items():
        for fact in ("wall_s", "peak_rss_mib", "workers_peak_rss_mib"):
            value = entry[fact]
            assert isinstance(value, float) and value > 0, (stage, fact, value)


def test_cli_run_index_entries_record_the_environment(tmp_path, monkeypatch):
    """Every entry the CLI writes names what its stage ran on: the numpy
    version, the BLAS numpy was built with, the CPUs a ForkPool may fill and
    the Python version."""
    on_cpus(monkeypatch, 1)
    cfg = _smoke_config(tmp_path)
    for command in (["gen-corpus"], ["pretrain"], ["meta-train"],
                    ["baseline", "--set", "strategy=agnostic_adapter"], ["adapt"],
                    ["sweep", "--set", 'sweep.points=[{"k": 1}]']):
        assert run([command[0], "--config", str(cfg), *command[1:]]) == 0
    stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]
    assert sorted(stages) == ["adapt", "agnostic_adapter", "meta_adapter", "pretrain", "sweep"]
    for stage, entry in stages.items():
        assert entry["numpy"] == np.__version__, stage
        assert entry["python"] == platform.python_version(), stage
        assert entry["cpus"] == 1, stage
        assert isinstance(entry["blas"], str) and entry["blas"], stage


def test_cli_evaluate_identity_scores_100(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    refs.write_text("a b c\nd e f g\n", encoding="utf-8")
    assert run(["evaluate", "--hyp-file", str(refs), "--ref-file", str(refs)]) == 0
    out = capsys.readouterr().out
    assert "BLEU 100.00" in out and "chrF 100.00" in out


@pytest.mark.parametrize("given, needed", [("hyp", "ref"), ("ref", "hyp")])
def test_cli_evaluate_with_one_file_exit_2(tmp_path, monkeypatch, capsys, given, needed):
    """Files are scored only as a pair: one alone is a config error, before
    any config, corpus or run is read."""
    monkeypatch.chdir(tmp_path)
    lines = tmp_path / "lines.txt"
    lines.write_text("a b c\n", encoding="utf-8")
    assert run(["evaluate", f"--{given}-file", str(lines)]) == 2
    assert capsys.readouterr().err == (f"config error: evaluate: --{given}-file requires "
                                       f"--{needed}-file\n")
    assert list(tmp_path.iterdir()) == [lines]


@pytest.mark.parametrize("hyps, refs", [("a b c\nd e\n", "a b c\n"), ("", "a b c\n"), ("", "")],
                         ids=["2-vs-1-lines", "0-vs-1-lines", "both-empty"])
def test_cli_evaluate_files_of_other_line_counts_exit_3(tmp_path, capsys, hyps, refs):
    """Scoring pairs line i of --hyp-file with line i of --ref-file, so the
    two must hold the same number of lines, at least one: a data error
    naming both files, not a config error."""
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text(hyps, encoding="utf-8")
    ref.write_text(refs, encoding="utf-8")
    assert run(["evaluate", "--hyp-file", str(hyp), "--ref-file", str(ref)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(hyp) in err and str(ref) in err
    assert err.count("\n") == 1


def test_cli_smoke_config_end_to_end_within_budget(tmp_path, monkeypatch):
    """The checked-in smoke config (3 domains x 3 languages, 200/50/50/50
    splits) must complete gen-corpus through report inside a 10-minute
    budget (documented in the README quickstart)."""
    import time

    monkeypatch.setenv("METADAPT_OUT_ROOT", str(tmp_path))
    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "smoke.json")
    corpus = f"corpus_dir={tmp_path / 'corpus'}"
    t0 = time.perf_counter()
    for command in ("gen-corpus", "pretrain", "meta-train", "adapt"):
        assert run([command, "--config", cfg, "--set", corpus]) == 0
    out_dir = tmp_path / "runs" / "smoke" / "run"
    assert run(["report", "--runs", str(out_dir), "--reference", "backbone",
                "--out", str(out_dir / "report")]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"smoke pipeline took {elapsed:.0f}s"
    records = read_records(out_dir / "metrics.csv")
    assert {r.strategy for r in records} == {"backbone", "meta_adapter", "random_adapter"}


def test_cli_baseline_unknown_strategy_exit_2(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["baseline", "--config", str(cfg), "--set", "strategy=bogus"]) == 2


def test_cli_missing_backbone_exit_3(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["meta-train", "--config", str(cfg)]) == 3


def test_cli_bad_config_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["gen-corpus", "--config", str(bad)]) == 2


def test_cli_set_overrides(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg),
                "--set", "corpus_dir=" + str(tmp_path / "corpus2"),
                "--set", "world.seed=9"]) == 0
    spec = json.loads((tmp_path / "corpus2" / "world.json").read_text())
    assert spec["seed"] == 9


def test_cli_baseline_roundtrip(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    assert run(["baseline", "--config", str(cfg), "--set", "strategy=agnostic_adapter"]) == 0
    art_dir = tmp_path / "run" / "agnostic_adapter"
    info = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]
    assert info["agnostic_adapter"]["components"] == ["adapter"]
    params = checkpoint.load_params(art_dir / "adapter.ckpt")
    assert all("/adapter/" in name for name in params)
    assert run(["adapt", "--config", str(cfg),
                "--set", 'eval.strategies=["backbone","agnostic_adapter"]']) == 0


def test_cli_sweep_writes_sweep_csv(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    assert run(["sweep", "--config", str(cfg), "--set", 'sweep.points=[{"tau": "inf"}]',
                "--set", "meta.max_meta_batches=2"]) == 0
    lines = (tmp_path / "run" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,k,beta,tau,n,mean_bleu,best"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["tau"] == "inf" and row["best"] == "true"
    assert 0.0 <= float(row["mean_bleu"]) <= 100.0


def test_write_sweep_gives_each_other_varied_field_a_json_column(tmp_path):
    """Fields past SWEEP_COLUMNS follow `n` in row order, as JSON values."""
    row = {"m": 2, "k": 1, "beta": 1.0, "tau": math.inf, "n": 4, "mean_bleu": 12.5,
           "best": True, "sample_with_replacement": True, "max_meta_batches": None, "q": 4}
    write_sweep([row], tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines() == [
        "m,k,beta,tau,n,sample_with_replacement,max_meta_batches,q,mean_bleu,best",
        "2,1,1.0,inf,4,true,null,4,12.5000,true"]


def test_cli_truncated_backbone_exit_3(tmp_path, capsys):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "run" / "backbone.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
    capsys.readouterr()
    assert run(["meta-train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"{ckpt}: size or SHA-256 is not what the run index lists" in err and "'pretrain'" in err


def test_cli_backbone_manifest_checked_on_load(tmp_path, capsys):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # a model table that differs from the one the backbone was pretrained with
    assert run(["meta-train", "--config", str(cfg), "--set", "model.model_dim=48"]) == 2
    assert "model_dim=48 (backbone: 16)" in capsys.readouterr().err
    assert run(["meta-train", "--config", str(cfg), "--set", "adapter.bottleneck_dim=3"]) == 2
    # parameters that do not match the recorded backbone checksum
    info_path = tmp_path / "run" / "manifest.json"
    info = json.loads(info_path.read_text(encoding="utf-8"))
    info["stages"]["pretrain"]["backbone_checksum"] = "0" * 64
    info_path.write_text(json.dumps(info), encoding="utf-8")
    assert run(["meta-train", "--config", str(cfg)]) == 3
    assert "checksum" in capsys.readouterr().err
    info_path.unlink()
    assert run(["meta-train", "--config", str(cfg)]) == 3


def _baseline_run(tmp_path) -> Path:
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    assert run(["baseline", "--config", str(cfg), "--set", "strategy=agnostic_adapter"]) == 0
    return cfg


def _adapt_agnostic(cfg) -> int:
    return run(["adapt", "--config", str(cfg), "--set", 'eval.strategies=["agnostic_adapter"]'])


def test_cli_truncated_artifact_index_exit_3(tmp_path, capsys):
    cfg = _baseline_run(tmp_path)
    index = tmp_path / "run" / "manifest.json"
    index.write_bytes(index.read_bytes()[: index.stat().st_size // 2])
    capsys.readouterr()
    assert _adapt_agnostic(cfg) == 3
    assert "manifest.json: invalid JSON" in capsys.readouterr().err


def test_cli_artifact_index_without_components_exit_3(tmp_path, capsys):
    cfg = _baseline_run(tmp_path)
    index = tmp_path / "run" / "manifest.json"
    info = json.loads(index.read_text(encoding="utf-8"))
    del info["stages"]["agnostic_adapter"]["components"]
    index.write_text(json.dumps(info), encoding="utf-8")
    capsys.readouterr()
    assert _adapt_agnostic(cfg) == 3
    assert ("manifest.json: components None of stage 'agnostic_adapter' are not what it trains"
            in capsys.readouterr().err)


def test_cli_unknown_eval_strategy_exit_2(tmp_path, capsys):
    cfg = _smoke_config(tmp_path)  # no corpus or backbone: the names are checked first
    assert run(["adapt", "--config", str(cfg), "--set", 'eval.strategies=["backbone", "bogus"]']) == 2
    err = capsys.readouterr().err
    assert "unknown strategy 'bogus'" in err
    assert "meta_adapter" in err and "agnostic_adapter" in err  # the known names are listed
    assert run(["adapt", "--config", str(cfg), "--set", "eval.strategies=3"]) == 2
    assert "expected a list of strategy names" in capsys.readouterr().err


@pytest.mark.parametrize("name, cut", [("world.json", None), ("vocab.json", None)])
def test_cli_damaged_corpus_file_exit_3(tmp_path, capsys, name, cut):
    """The corpus tree is written in place, so an interrupted gen-corpus
    leaves a cut file: world.json or vocab.json that is no longer JSON (cut
    in half)."""
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    path = tmp_path / "corpus" / name
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - cut] if cut else data[: len(data) // 2])
    capsys.readouterr()
    assert run(["pretrain", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and name in err and err.count("\n") == 1


@pytest.mark.parametrize("key", ["tokens", "languages", "domains"])
def test_cli_vocab_entry_not_a_string_exit_3(tmp_path, capsys, key):
    """A vocab.json list that holds a number is not a vocabulary file."""
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    path = tmp_path / "corpus" / "vocab.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw[key][-1] = 7
    path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert run(["pretrain", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "vocab.json: not a vocabulary file" in err
    assert err.count("\n") == 1


def test_cli_pretrain_on_a_missing_corpus_exit_3(tmp_path, capsys):
    """No gen-corpus run: the first file pretrain reads is world.json."""
    cfg = _smoke_config(tmp_path)
    assert run(["pretrain", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "world.json" in err and err.count("\n") == 1


def test_cli_world_json_not_a_spec_exit_3(tmp_path, capsys):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    (tmp_path / "corpus" / "world.json").write_text("{}", encoding="utf-8")
    capsys.readouterr()
    assert run(["pretrain", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "world.json: not a world spec" in err
    assert err.count("\n") == 1


def _report_run(tmp_path) -> Path:
    """A run directory with one metrics record and a two-line training log."""
    run_dir = tmp_path / "run"
    write_records([MetricsRecord(DlpId("gears", "apa", "bel"), "backbone", bleu=10.0,
                                 chrf=20.0, loss=1.5, trainable_params=100,
                                 trainable_ratio=1.0)], run_dir / "metrics.csv")
    (run_dir / "training_log.jsonl").write_text(
        "".join(json.dumps({"step": i, "meta_batch_loss": 1.0}) + "\n" for i in range(2)),
        encoding="utf-8")
    return run_dir


@pytest.mark.parametrize("damaged, old, new, message", [
    # a log damaged on disk can end in a cut line
    ("training_log.jsonl", b"1.0}\n", b"1", "training_log.jsonl: invalid JSON on line 2"),
    ("metrics.csv", b",10.0000,", b",ten,", "metrics.csv: bad value on line 2"),
    ("metrics.csv", b",bleu,", b",BLEU,", "metrics.csv: unexpected metrics columns"),
    ("metrics.csv", b"gears,apa,bel,", b"gears,apa,apa,",
     "metrics.csv: bad value on line 2 (DlpId: source and target language must differ)"),
    # a header and no rows
    ("metrics.csv", b"gears,apa,bel,backbone,10.0000,20.0000,1.500000,100,1.000000,0.000,\n", b"",
     "the metrics files hold no records"),
    # well-formed JSON that is not a step and its loss
    ("training_log.jsonl", b'{"step": 1, "meta_batch_loss": 1.0}', b"3",
     "training_log.jsonl: line 2 is not a record with a step and a loss"),
    ("training_log.jsonl", b'"step": 1, ', b"",
     "training_log.jsonl: line 2 is not a record with a step and a loss"),
    ("training_log.jsonl", b"1.0}\n", b'"x"}\n',
     "training_log.jsonl: line 2 is not a record with a step and a loss"),
    ("training_log.jsonl", b"1.0}\n", b"null}\n",
     "training_log.jsonl: line 2 is not a record with a step and a loss"),
    # parses, but a score out of range
    ("metrics.csv", b",10.0000,", b",150.0000,",
     "metrics.csv: bad value on line 2 (metrics record: scores must lie in [0, 100])"),
])
def test_cli_report_damaged_input_exit_3(tmp_path, capsys, damaged, old, new, message):
    run_dir = _report_run(tmp_path)
    report = ["report", "--runs", str(run_dir), "--reference", "backbone",
              "--out", str(tmp_path / "report")]
    assert run(report) == 0
    path = run_dir / damaged
    head, _, tail = path.read_bytes().rpartition(old)
    path.write_bytes(head + new + tail)
    capsys.readouterr()
    assert run(report) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err and err.count("\n") == 1


def test_cli_numeric_failure_exit_4_one_line(tmp_path, capfd):
    """A diverging pretrain exits 4 with the one documented line on stderr,
    and numpy prints no overflow warnings ahead of it."""
    import warnings

    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "smoke.json")
    paths = ["--set", f"corpus_dir={tmp_path / 'corpus'}", "--set", f"out_dir={tmp_path / 'run'}"]
    assert run(["gen-corpus", "--config", cfg] + paths) == 0
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape run()
        assert run(["pretrain", "--config", cfg, "--set", "pretrain.lr=1e300"] + paths) == 4
    err = capfd.readouterr().err
    assert err.startswith("numeric error: non-finite values") and err.count("\n") == 1


def test_cli_allocation_too_large_exit_2_one_line(tmp_path, capfd):
    """A model size numpy refuses at once (2.27 PiB for one 32 x 10^13
    feed-forward weight) exits 2 with one line, not a MemoryError traceback."""
    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "smoke.json")
    paths = ["--set", f"corpus_dir={tmp_path / 'corpus'}", "--set", f"out_dir={tmp_path / 'run'}"]
    assert run(["gen-corpus", "--config", cfg] + paths) == 0
    capfd.readouterr()
    assert run(["pretrain", "--config", cfg, "--set", "model.ffn_dim=10000000000000"] + paths) == 2
    err = capfd.readouterr().err
    assert err.startswith("config error: out of memory (Unable to allocate") and err.count("\n") == 1


def test_cli_gen_corpus_world_table(tmp_path, capsys):
    """gen-corpus reads the world table without changing it, and an unknown
    world key is a config error naming the world spec."""
    import copy

    from metadapt.cli import cmd_gen_corpus, load_config

    cfg = _smoke_config(tmp_path)
    config = load_config(str(cfg), [])
    world = copy.deepcopy(config["world"])
    assert cmd_gen_corpus(config) == 0
    assert config["world"] == world  # lists stay lists
    capsys.readouterr()
    assert run(["gen-corpus", "--config", str(cfg), "--set", "world.bogus=1"]) == 2
    assert "world spec" in capsys.readouterr().err


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> Path:
    """A smoke-world directory with a corpus and a run that went through
    pretrain, meta-train, the agnostic_adapter baseline and adapt."""
    root = tmp_path_factory.mktemp("smoke_run")
    cfg = _smoke_config(root)
    for command in (["gen-corpus"], ["pretrain"], ["meta-train"],
                    ["baseline", "--set", "strategy=agnostic_adapter"], ["adapt"]):
        assert run([command[0], "--config", str(cfg), *command[1:]]) == 0
    return root


def test_cli_adapt_entry_names_the_backbone_it_scored_on(smoke_run):
    """The adapt entry of the run index records the checksum of the
    backbone its records were scored on: the pretrain entry's."""
    stages = json.loads((smoke_run / "run" / "manifest.json").read_text())["stages"]
    assert stages["adapt"]["backbone_checksum"] == stages["pretrain"]["backbone_checksum"]


def _copy_of(smoke_run: Path, tmp_path: Path) -> list[str]:
    """Config arguments for a copy of `smoke_run` under `tmp_path`."""
    import shutil

    for name in ("corpus", "run"):
        shutil.copytree(smoke_run / name, tmp_path / name)
    return ["--config", str(smoke_run / "config.json"), "--set", f"corpus_dir={tmp_path / 'corpus'}",
            "--set", f"out_dir={tmp_path / 'run'}"]


def test_cli_sweep_writes_a_column_per_varied_field(smoke_run, tmp_path):
    """A sweep over q writes q's column, so its rows tell their points apart."""
    args = _copy_of(smoke_run, tmp_path)
    assert run(["sweep", *args, "--set", 'sweep.points=[{"q": 2}, {"q": 4}]',
                "--set", "meta.max_meta_batches=2"]) == 0
    lines = (tmp_path / "run" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,k,beta,tau,n,q,mean_bleu,best"
    assert [line.split(",")[5] for line in lines[1:]] == ["2", "4"]


@pytest.mark.parametrize("name, command", [
    ("ref.txt", ["evaluate"]),
    ("corpus/general/apa-bel/train.tsv", ["pretrain"]),
    ("corpus/world.json", ["pretrain"]),
    ("corpus/vocab.json", ["pretrain"]),
    ("run/manifest.json", ["meta-train"]),
    ("run/manifest.json", ["adapt", "--set", 'eval.strategies=["agnostic_adapter"]']),
    ("run/metrics.csv", ["report"]),
    ("run/meta_adapter/training_log.jsonl", ["report"]),
    ("hyp.txt", ["evaluate"]),
])
def test_cli_non_utf8_artifact_exit_3(smoke_run, tmp_path, capsys, name, command):
    args = _copy_of(smoke_run, tmp_path)
    for text in ("hyp.txt", "ref.txt"):
        (tmp_path / text).write_text("a b c\n", encoding="utf-8")
    path = tmp_path / name
    path.write_bytes(b"\xff" + path.read_bytes())
    if command == ["report"]:
        args = ["--runs", str(tmp_path / "run"), "--out", str(tmp_path / "report")]
    elif command == ["evaluate"]:
        args = ["--hyp-file", str(tmp_path / "hyp.txt"), "--ref-file", str(tmp_path / "ref.txt")]
    capsys.readouterr()
    assert run(command[:1] + args + command[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and err.count("\n") == 1


def test_cli_rerun_replaces_training_logs(smoke_run, tmp_path):
    """A stage run again in the same out_dir leaves only its own log
    records, not the earlier run's ahead of them."""
    args = _copy_of(smoke_run, tmp_path)
    assert run(["pretrain", *args, "--set", "pretrain.max_steps=4"]) == 0
    assert run(["meta-train", *args, "--set", "meta.max_meta_batches=2"]) == 0
    for name, steps in (("pretrain_log.jsonl", 4), ("meta_adapter/training_log.jsonl", 2)):
        lines = (tmp_path / "run" / name).read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["step"] for line in lines] == list(range(steps)), name


def _index_listing(components):
    def damage(index: Path) -> None:
        info = json.loads(index.read_text(encoding="utf-8"))
        info["stages"]["agnostic_adapter"]["components"] = components
        index.write_text(json.dumps(info), encoding="utf-8")
    return damage


def _record_digest(path: Path) -> None:
    """Give the run index the new digest of a damaged `<stage>/<file>`, so
    that a check after the digest is what rejects it."""
    index = path.parent.parent / "manifest.json"
    info = json.loads(index.read_text(encoding="utf-8"))
    data = path.read_bytes()
    info["stages"][path.parent.name]["files"][f"{path.parent.name}/{path.name}"] = {
        "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    index.write_text(json.dumps(info), encoding="utf-8")


def _with_extra_tensor(path: Path) -> None:
    checkpoint.save_params(path, {**checkpoint.load_params(path),
                                  "enc/0/adapter/main/extra": np.zeros(2)})
    _record_digest(path)


def _backbone_copy(path: Path) -> None:
    path.write_bytes((path.parent.parent / "backbone.ckpt").read_bytes())
    _record_digest(path)


@pytest.mark.parametrize("name, strategy, damage", [
    ("manifest.json", "agnostic_adapter", _index_listing([1])),
    ("manifest.json", "agnostic_adapter", _index_listing([])),
    ("meta_adapter/adapter.ckpt", "meta_adapter", _with_extra_tensor),
    ("meta_adapter/adapter.ckpt", "meta_adapter", _backbone_copy),
], ids=["component-not-a-name", "no-component", "unknown-tensor", "backbone-as-adapter"])
def test_cli_stage_one_artifact_checked_on_load(smoke_run, tmp_path, capsys, name, strategy,
                                                damage):
    """Each loaded component holds exactly the tensors its strategy's stage
    one trains; anything else is a damaged file, named in one line."""
    args = _copy_of(smoke_run, tmp_path)
    path = tmp_path / "run" / name
    damage(path)
    capsys.readouterr()
    assert run(["adapt", *args, "--set", f"eval.strategies={json.dumps([strategy])}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("strategy", ["backbone", "random_adapter", "bogus", 3])
def test_cli_baseline_without_stage_one_exit_2(tmp_path, capsys, strategy):
    cfg = _smoke_config(tmp_path)  # no corpus or backbone: the name is checked first
    assert run(["baseline", "--config", str(cfg), "--set", f"strategy={json.dumps(strategy)}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert ("strategies with one: meta_adapter, agnostic_adapter, full_ft, tag_ft, "
            "full_model_meta, stack_adapter") in err


def test_cli_baseline_default_strategy_writes_what_meta_train_writes(smoke_run, tmp_path):
    args = _copy_of(smoke_run, tmp_path)
    ckpt = tmp_path / "run" / "meta_adapter" / "adapter.ckpt"
    ckpt.unlink()
    assert run(["baseline", *args]) == 0  # config.strategy defaults to meta_adapter
    assert ckpt.read_bytes() == (smoke_run / "run" / "meta_adapter" / "adapter.ckpt").read_bytes()


@pytest.mark.parametrize("name, stage, command", [
    ("backbone.ckpt", "pretrain", ["meta-train"]),
    ("meta_adapter/adapter.ckpt", "meta_adapter",
     ["adapt", "--set", 'eval.strategies=["meta_adapter"]']),
    ("agnostic_adapter/adapter.ckpt", "agnostic_adapter",
     ["adapt", "--set", 'eval.strategies=["agnostic_adapter"]']),
])
def test_cli_flipped_checkpoint_byte_exit_3(smoke_run, tmp_path, capsys, name, stage, command):
    """A flipped payload byte keeps a checkpoint's names and shapes, so only
    the digest in the run index tells it apart: the stage that loads it
    exits 3 in one line naming the file and the stage that wrote it."""
    args = _copy_of(smoke_run, tmp_path)
    path = tmp_path / "run" / name
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01  # the low byte of the last float64
    path.write_bytes(bytes(data))
    shapes = [{n: v.shape for n, v in checkpoint.load_params(p).items()}
              for p in (path, smoke_run / "run" / name)]
    assert shapes[0] == shapes[1]
    capsys.readouterr()
    assert run([command[0], *args, *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and f"stage '{stage}'" in err
    assert err.count("\n") == 1


def test_cli_run_index_of_the_parent_format_exit_3(smoke_run, tmp_path, capsys):
    """A manifest.json with no stages table (the config, seed and code
    version alone, as written before the run index) is not read as one:
    exit 3 in one line that says to run the stage again, and pretrain then
    starts a new index."""
    args = _copy_of(smoke_run, tmp_path)
    config = json.loads((smoke_run / "config.json").read_text(encoding="utf-8"))
    index = tmp_path / "run" / "manifest.json"
    index.write_text(json.dumps({"config": config, "seed": config["seed"],
                                 "code_version": "0.1.0"}), encoding="utf-8")
    for command in ("meta-train", "adapt"):
        capsys.readouterr()
        assert run([command, *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {index}: no stages table") and err.count("\n") == 1
        assert err.endswith("; run the 'pretrain' stage again\n")
    assert run(["pretrain", *args]) == 0
    assert list(json.loads(index.read_text(encoding="utf-8"))["stages"]) == ["pretrain"]


@pytest.mark.parametrize("pretrain_again", [True, False], ids=["pretrained-again", "no-checksum"])
def test_cli_stage_one_of_another_backbone_exit_3(smoke_run, tmp_path, capsys, pretrain_again):
    """A stage-one entry names the backbone it was trained on. After the
    backbone is pretrained again, or when the entry names none, its
    artifact is not scored: exit 3 in one line that names the stage and
    says to run it again."""
    args = _copy_of(smoke_run, tmp_path)
    if pretrain_again:
        assert run(["pretrain", *args, "--set", "seed=6", "--set", "pretrain.max_steps=4"]) == 0
    else:
        index = tmp_path / "run" / "manifest.json"
        info = json.loads(index.read_text(encoding="utf-8"))
        del info["stages"]["meta_adapter"]["backbone_checksum"]
        index.write_text(json.dumps(info), encoding="utf-8")
    capsys.readouterr()
    assert run(["adapt", *args, "--set", 'eval.strategies=["meta_adapter"]']) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "stage 'meta_adapter'" in err and err.endswith("run it again\n")


def test_cli_copied_run_still_verifies(smoke_run, tmp_path):
    """The index keys each file by its path relative to out_dir, so a copy
    of a run directory verifies and scores as the original did."""
    args = _copy_of(smoke_run, tmp_path)
    stages = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert sorted(stages) == ["adapt", "agnostic_adapter", "meta_adapter", "pretrain"]
    assert all(not Path(name).is_absolute() and ".." not in Path(name).parts
               for entry in stages.values() for name in entry["files"])
    assert run(["adapt", *args]) == 0

    def scores(run_dir):
        return [(r.dlp, r.strategy, r.bleu, r.chrf, r.loss)
                for r in read_records(run_dir / "metrics.csv")]
    assert scores(tmp_path / "run") == scores(smoke_run / "run")


def test_cli_full_model_meta_baseline_writes_its_training_log(smoke_run, tmp_path):
    """full_model_meta runs the Reptile loop, so its stage one keeps its log
    beside its checkpoint, and report plots every log of the run in sorted
    path order."""
    import csv

    args = _copy_of(smoke_run, tmp_path)
    assert run(["baseline", *args, "--set", "strategy=full_model_meta"]) == 0
    out = tmp_path / "run"
    lines = (out / "full_model_meta" / "training_log.jsonl").read_text(encoding="utf-8")
    assert sum("meta_batch_loss" in json.loads(line) for line in lines.splitlines()) == 3
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert sorted(stages["full_model_meta"]["files"]) == ["full_model_meta/model.ckpt",
                                                          "full_model_meta/training_log.jsonl"]
    assert run(["report", "--runs", str(out), "--out", str(tmp_path / "report")]) == 0
    with open(tmp_path / "report" / "loss_curves.csv", encoding="utf-8", newline="") as fh:
        logs = [row["log"] for row in csv.DictReader(fh)]
    assert list(dict.fromkeys(logs)) == ["full_model_meta/training_log.jsonl",
                                         "meta_adapter/training_log.jsonl", "pretrain_log.jsonl"]


@pytest.mark.parametrize("overrides, role", [
    (['world.heldout_languages=["apa","bel","cor"]'], "meta_train"),
    (["world.heldout_domains=[]", "world.heldout_languages=[]"], "heldout"),
])
def test_cli_world_with_an_empty_role_exit_2(tmp_path, capsys, overrides, role):
    """A world spec that leaves a role with no DLP is a config error naming
    the keys that decide the roles, before gen-corpus writes any file."""
    cfg = _smoke_config(tmp_path)
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert run(["gen-corpus", "--config", str(cfg), *sets]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: world spec: heldout_domains and heldout_languages leave "
                   f"no DLP in the {role} role\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]  # nothing written


@pytest.mark.parametrize("override, message", [
    ("adapt.epoch=5", "unknown config key 'adapt.epoch'"),
    ("pretrain.lrr=3", "unknown config key 'pretrain.lrr'"),
    ("seeed=2", "unknown config key 'seeed'"),
    ("adapt=3", "config 'adapt' must be a table"),
    ("eval=3", "config 'eval' must be a table"),
    ("caps=3", "unknown config key 'caps'"),
    ("pretrain.lr=inf", "config 'pretrain.lr' must be a number"),
    ("meta.tau=Infinity", "config 'meta.tau' must be a number"),
    ("adapt.batch_size=0", "config 'adapt.batch_size' must be at least 1"),
])
def test_cli_config_shape_exit_2(smoke_run, capsys, override, message):
    """Checked once, in load_config, before any stage reads a file."""
    capsys.readouterr()
    assert run(["adapt", "--config", str(smoke_run / "config.json"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("override, message", [
    ("pretrain.epochs=1.5", "config 'pretrain.epochs' must be a whole number, got 1.5"),
    ("eval.max_len=2.5", "config 'eval.max_len' must be a whole number"),
    ("seed=true", "config 'seed' must be a whole number"),
    ('adapt.max_steps="x"', "config 'adapt.max_steps' must be null or a whole number"),
    ("pretrain.max_steps=true", "config 'pretrain.max_steps' must be null or a whole number"),
    ("meta.max_meta_batches=2.0", "config 'meta.max_meta_batches' must be null or a whole"),
    ("sweep.points=[3]", "config 'sweep.points' must be a list of tables, got [3]"),
    ('sweep.points=[{"tau": "inf"}, {"k": 1.5}]', "config 'sweep.points[1].k' must be a whole"),
    ("seed=-1", "config 'seed' must be non-negative, got -1"),
    ("meta.inner_lr=-1", "config 'meta.inner_lr' must be non-negative, got -1"),
    ("adapt.lr=-1", "config 'adapt.lr' must be non-negative, got -1"),
    ("pretrain.weight_decay=-5", "config 'pretrain.weight_decay' must be non-negative, got -5"),
    ("meta.max_meta_batches=-1", "config 'meta.max_meta_batches' must be at least 1, got -1"),
    ("adapt.max_steps=-1", "config 'adapt.max_steps' must be at least 1, got -1"),
    ("adapt.epochs=0", "config 'adapt.epochs' must be at least 1, got 0"),
    ("meta.tau=0", "config 'meta.tau' must be positive, got 0"),
    ("model.dropout=1.5", "config 'model.dropout' must be in [0, 1), got 1.5"),
    ("pretrain.max_steps=0", "config 'pretrain.max_steps' must be at least 1, got 0"),
    ("out_dir=3", "config 'out_dir' must be a string, got 3"),
    ("corpus_dir=null", "config 'corpus_dir' must be a string, got None"),
    ("eval.max_len=40", "config 'eval.max_len' must be at most model.max_seq_len (24), got 40"),
    ("eval.strategies=[]",
     "config 'eval.strategies' must be one or more distinct known strategies, got []"),
    ('eval.strategies=["backbone","meta_adapter","backbone"]',
     "config 'eval.strategies' must be one or more distinct known strategies, got ['backbone', "),
    ("world.specialist_len=[200,200]",
     "world spec: specialist_len must be 1 <= first <= second <= 175, got (200, 200)"),
    ("world.neutral_len=[176,180]",
     "world spec: neutral_len must be 1 <= first <= second <= 175, got (176, 180)"),
    ('sweep.points=[{"seed": -1}]', "config 'sweep.points[0].seed' must be non-negative"),
    ('sweep.points=[{"seed": 1.5}]', "config 'sweep.points[0].seed' must be a whole number"),
    ('sweep.points=[{"inner": 3}]', "unknown config key 'sweep.points[0].inner'"),
    ('sweep.points=[{"sample_with_replacement": "no"}]',
     "config 'sweep.points[0].sample_with_replacement' must be true or false, got 'no'"),
])
def test_cli_config_types_exit_2(tmp_path, capsys, override, message):
    """A key whose default is a whole number takes only a whole number, one
    whose default is null takes null or a whole number, and sweep.points is
    a list of tables of meta values; checked before any file is read."""
    cfg = _smoke_config(tmp_path)
    assert run(["adapt", "--config", str(cfg), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1


def test_cli_config_types_accept_numbers_and_null(tmp_path):
    from metadapt.cli import load_config

    config = load_config(str(_smoke_config(tmp_path)), [
        "pretrain.lr=1", "meta.max_meta_batches=5", "adapt.max_steps=null",
        'sweep.points=[{"tau": "inf"}, {"m": 2, "beta": 1, "max_meta_batches": null}]'])
    assert config["pretrain"]["lr"] == 1 and config["meta"]["max_meta_batches"] == 5
    assert config["adapt"]["max_steps"] is None


WORLD_WRONG_TYPES = [("seed", 1.5), ("templates_per_domain", 2.5), ("min_domain_tv", "x"),
                     ("train_size", 60.5), ("neutral_len", [3.5, 6]),
                     # out of range
                     ("train_size", -5), ("valid_size", -1), ("pretrain_train_size", -3),
                     # a split of no pairs
                     ("train_size", 0), ("adapt_size", 0), ("valid_size", 0), ("test_size", 0),
                     ("pretrain_train_size", 0),
                     ("templates_per_domain", 0), ("content_vocab_size", -3),
                     ("domain_vocab_size", -1), ("seed", -1),
                     # a name that is not one token and one path component
                     ("languages", ["apa", "b c", "cor"]), ("domains", ["general", "ge/ars", "herbs"]),
                     ("domains", ["general", "../esc", "herbs"]), ("heldout_languages", [""])]


def test_cli_world_field_of_the_wrong_type(tmp_path, capsys):
    """gen-corpus rejects it as a config error; a world.json holding it is a
    damaged data file."""
    cfg = _smoke_config(tmp_path)
    for key, value in WORLD_WRONG_TYPES:
        assert run(["gen-corpus", "--config", str(cfg), "--set", f"world.{key}={json.dumps(value)}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: world spec: ") and key in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]  # nothing written
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    path = tmp_path / "corpus" / "world.json"
    world = json.loads(path.read_text(encoding="utf-8"))
    for key, value in WORLD_WRONG_TYPES:
        path.write_text(json.dumps({**world, key: value}), encoding="utf-8")
        capsys.readouterr()
        assert run(["pretrain", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "world.json: not a world spec" in err and key in err


def test_cli_sweep_without_points_exit_2(tmp_path, capsys):
    """`--set sweep={}` merges into the sweep table, which keeps its default
    empty points; sweep reports them missing before reading any file."""
    cfg = _smoke_config(tmp_path)
    assert run(["sweep", "--config", str(cfg), "--set", "sweep={}"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: sweep: config must list sweep.points\n"


def test_cli_inf_is_infinity_only_for_tau(tmp_path, capsys):
    from metadapt.cli import load_config

    config = load_config(str(_smoke_config(tmp_path)), ["corpus_dir=inf", "out_dir=inf"])
    assert config["corpus_dir"] == config["out_dir"] == "inf"  # directory names
    assert run(["adapt", "--config", str(_smoke_config(tmp_path)), "--set", "meta.beta=inf"]) == 2
    assert "config 'meta.beta' must be a number, got 'inf'" in capsys.readouterr().err


def test_cli_set_table_merges_into_the_table(tmp_path, capsys):
    """`--set t={...}` merges into table t, as a config file does."""
    from metadapt.cli import load_config

    cfg = _smoke_config(tmp_path)
    config = load_config(str(cfg), ['meta={"m": 3}', "eval={}", 'pretrain={"lr": 0.01}'])
    assert config["meta"] == {**load_config(str(cfg), [])["meta"], "m": 3}
    assert config["eval"]["max_len"] == 12 and config["pretrain"]["max_steps"] == 6
    assert config["pretrain"]["lr"] == 0.01
    assert run(["sweep", "--config", str(cfg), "--set", "sweep={}"]) == 2
    assert capsys.readouterr().err == "config error: sweep: config must list sweep.points\n"


@pytest.mark.parametrize("head, body", [(b"\xff", None), (b"", b"[]"),
                                        (b"", b'{"seed": NaN}'),
                                        (b"", b'{"meta": {"tau": 1e999}}')])
def test_cli_config_file_not_a_json_table_exit_2(tmp_path, capsys, head, body):
    cfg = _smoke_config(tmp_path)
    cfg.write_bytes(head + (body or cfg.read_bytes()))
    assert run(["gen-corpus", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and err.count("\n") == 1


def test_cli_inf_tau_keeps_the_manifest_strict_json(smoke_run, tmp_path):
    import math

    from metadapt.cli import _meta_config, load_config

    args = _copy_of(smoke_run, tmp_path)
    assert run(["meta-train", *args, "--set", "meta.tau=inf"]) == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    manifest = (tmp_path / "run" / "manifest.json").read_text(encoding="utf-8")
    stages = json.loads(manifest, parse_constant=reject)["stages"]
    assert stages["meta_adapter"]["config"]["meta"]["tau"] == "inf"
    config = load_config(str(smoke_run / "config.json"), ["meta.tau=inf"])
    assert _meta_config(config).tau == math.inf


def test_cli_report_plots_a_nan_meta_batch_loss(tmp_path):
    """A meta-batch without query pairs (meta.q=0) logs a NaN loss, which
    report plots like any other."""
    run_dir = _report_run(tmp_path)
    (run_dir / "training_log.jsonl").write_text('{"step": 0, "meta_batch_loss": NaN}\n',
                                                encoding="utf-8")
    assert run(["report", "--runs", str(run_dir), "--out", str(tmp_path / "report")]) == 0
    curves = (tmp_path / "report" / "loss_curves.csv").read_text(encoding="utf-8")
    assert curves.splitlines()[1].endswith(",0,nan")


def _rule_rows() -> list[tuple[str, object]]:
    """(key, rule) of every value load_config checks, the rows of
    sweep.points listed as sweep.points[].<field>."""
    from metadapt.cli import RULES

    rows = []
    for key, rules in RULES.items():
        for name, rule in (rules.items() if isinstance(rules, dict) else [("", rules)]):
            rows.append((f"{key}.{name}" if name else key, rule))
    return rows + [(f"sweep.points[].{name}", rule) for name, rule in MetaConfig.RULES.items()]


def test_readme_rule_table_is_the_rule_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config rules", 1)[1].split("\n#", 1)[0]
    printed = [tuple(line[2:-2].split(" | ")) for line in section.splitlines()
               if line.startswith("| `")]
    assert printed == [
        (f"`{key}`", f"{'null or ' * rule.null}{rule.kind}",
         (rule.range + (f": {', '.join(rule.choices)}" if rule.choices else "")) or "any")
        for key, rule in _rule_rows()]


def _draws(rule) -> list[str]:
    """`--set` texts for a key (rule_draws adds its config value): each bound
    of its range and just past it, wrong kinds, non-finite numbers and a
    table where a value belongs."""
    numeric = rule.kind in ("a whole number", "a number", 'a number or "inf"')
    step = 1 if rule.kind == "a whole number" else 1e-6
    past = {"": [], "non-negative": [0, -step], "positive": [0, -step], "at least 1": [1, 0],
            "in [0, 1)": [0, -step, 1], "in (0, 1]": [0, 1, 1 + step],
            "in [0, 1]": [0, -step, 1, 1 + step],
            "1 <= first <= second <= 175": [[1, 1], [0, 1], [3, 2], [175, 175], [175, 176]],
            "two or more, distinct": [["apa"], ["apa", "apa"]]}
    wrong = {"a whole number": [1.5, True, "1"], "a number": ["x", True],
             'a number or "inf"': ["x", False], "true or false": ["no", 0],
             "a string": [3, None], NAMES: ["apa", [1], ["b c"], [""]],
             "two whole numbers": [[3.5, 6], [4], 4], "a list of tables": [[3], 3]}
    values = wrong[rule.kind] + [{"a": 1}] + ([None] if rule.null else [])
    if rule.choices is not None:
        values += ["backbone", "bogus", ["bogus"], []]
    else:
        values += past[rule.range]
    return [json.dumps(v) for v in values] + (["NaN", "-Infinity", "1e999", "inf"] * numeric)


#: The stage that reads each top-level key, run on a copy of the smoke run.
STAGE_OF = {"corpus_dir": "gen-corpus", "world": "gen-corpus", "out_dir": "pretrain",
            "seed": "pretrain", "model": "pretrain", "adapter": "pretrain",
            "pretrain": "pretrain", "meta": "meta-train", "adapt": "adapt", "eval": "adapt",
            "strategy": "baseline", "sweep": "sweep"}


@pytest.fixture(scope="module")
def rule_draws(smoke_run):
    """`--set` texts of every key's draws, first its value in the smoke run
    (a path under the placeholder {tmp} for corpus_dir and out_dir; the meta
    config's field for a sweep point), by top-level key, and the set of
    top-level keys whose stage has run."""
    from metadapt.cli import _meta_config, load_config

    config = load_config(str(smoke_run / "config.json"), [])
    draws = []
    for key, rule in _rule_rows():
        table, _, name = key.rpartition(".")
        if key in ("corpus_dir", "out_dir"):
            own = [f"{{tmp}}/{key}"]
        elif table == "sweep.points[]":
            own = [getattr(_meta_config(config), name)]
        else:
            own = [v for k, v in (config[table] if table else config).items() if k == name]
        texts = [json.dumps(v) for v in own] + _draws(rule)
        if table == "sweep.points[]":
            draws += [f'sweep.points=[{{"{name}": {text}}}]' for text in texts]
        else:
            draws += [f"{key}={text}" for text in texts]
    by_top = {}
    for draw in draws:
        by_top.setdefault(draw.split("=")[0].split(".")[0], []).append(draw)
    return by_top, set()


def _one_line_exit(argv: list[str]) -> None:
    import contextlib
    import io

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())


def test_cli_rule_table_draws(smoke_run, rule_draws):
    """One key at a time, a value in range, at a bound, just past it, of a
    wrong kind, non-finite, or a table: load_config returns or raises one
    ConfigError line, and, for the first draw of each top-level key that it
    accepts, the stage that reads it exits 0, 2 or 3 with at most one stderr
    line."""
    import tempfile

    from hypothesis import given, settings, strategies as st

    from metadapt.cli import load_config
    from metadapt.errors import ConfigError

    by_top, staged = rule_draws

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(by_top)).flatmap(lambda top: st.sampled_from(by_top[top])))
    def check(draw):
        with tempfile.TemporaryDirectory() as tmp:
            override = draw.replace("{tmp}", tmp)
            try:
                load_config(str(smoke_run / "config.json"), [override])
            except ConfigError as exc:
                assert "\n" not in str(exc)
                return
            top = draw.split("=")[0].split(".")[0]
            if top in staged:
                return
            staged.add(top)
            args = _copy_of(smoke_run, Path(tmp))
            _one_line_exit([STAGE_OF[top], *args, "--set", override])

    check()
    assert staged == set(STAGE_OF)


#: The top-level keys each command reads besides corpus_dir, out_dir and
#: seed (adapt stands for evaluate too).
READS = {"gen-corpus": ("world",), "pretrain": ("model", "adapter", "pretrain", "eval"),
         "meta-train": ("model", "adapter", "meta"),
         "baseline": ("model", "adapter", "meta", "strategy"),
         "adapt": ("model", "adapter", "adapt", "eval"), "sweep": ("meta", "adapt", "eval", "sweep")}


def test_cli_commands_exit_0_2_3_or_4_with_one_line(smoke_run, rule_draws):
    """A `metadapt` process of any command a config drives, run on a copy of
    the smoke run with one or two `--set` values of keys it reads, each
    accepted by load_config alone and a change to the run's config (or a
    stage-one strategy for baseline), exits 0 with nothing on stderr, or 2,
    3 or 4 with one line there and no traceback."""
    import os
    import subprocess
    import sys
    import tempfile

    from hypothesis import given, settings, strategies as st

    from metadapt.cli import load_config
    from metadapt.errors import ConfigError

    config = str(smoke_run / "config.json")
    smoke = load_config(config, [])
    accepted = {top: [] for top in rule_draws[0]}
    for top, draws in rule_draws[0].items():
        for draw in draws:
            try:
                if load_config(config, [draw]) != smoke:
                    accepted[top].append(draw)
            except ConfigError:
                pass
    accepted["strategy"] = [f"strategy={s}" for s, row in STRATEGIES.items() if row.stage_one]
    env = {k: v for k, v in os.environ.items() if k != "METADAPT_OUT_ROOT"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cases(command):
        pool = [d for top in READS[command] + ("seed",) for d in accepted[top]]
        return st.tuples(st.just(command), st.lists(st.sampled_from(pool), min_size=1,
                                                    max_size=2, unique=True))

    @settings(max_examples=36, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(READS)).flatmap(cases))
    def check(case):
        command, draws = case
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, *_copy_of(smoke_run, Path(tmp))]
            argv += [arg for draw in draws for arg in ("--set", draw)]
            done = subprocess.run([sys.executable, "-m", "metadapt.cli", *argv], cwd=tmp,
                                  env=env, capture_output=True, text=True, timeout=300)
        code, err = done.returncode, done.stderr
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert err.count("\n") == (code != 0) and err.endswith("\n" * (code != 0)), (argv, err)

    check()


# --- pipeline functions directly -------------------------------------------------

@pytest.fixture(scope="module")
def smoke_stack(tmp_path_factory):
    from metadapt.corpus import generate_world

    root = tmp_path_factory.mktemp("pipe_world")
    spec = tiny_world_spec(seed=4, train_size=48, adapt_size=16, valid_size=8, test_size=8,
                           specialist_len=(4, 8))
    registry = generate_world(spec, root)
    vocab = Vocab.load(registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.0)
    ac = AdapterConfig(bottleneck_dim=4)
    model, _ = pretrain_backbone(registry, vocab, mc, ac, OptimizerSettings(lr=2e-3),
                                 epochs=1, batch_size=16, seed=0, max_steps=5)
    backbone = {n: model.params[n].data.copy() for n in model.params}
    return registry, vocab, mc, ac, backbone


def test_backbone_dev_bleu_runs(smoke_stack):
    registry, vocab, mc, ac, backbone = smoke_stack
    from metadapt.model import build_model
    from metadapt.training import restore_params

    model = build_model(mc, ac, seed=0, adapter_groups=())
    restore_params(model, backbone)
    score = backbone_dev_bleu(model, vocab, registry, sample_per_dlp=2, max_len=10)
    assert 0.0 <= score <= 100.0


def test_adapt_and_evaluate_identical_budgets_all_strategies(smoke_stack):
    registry, vocab, mc, ac, backbone = smoke_stack
    meta_ds = role_datasets(registry, "meta_train")
    heldout = role_datasets(registry, "heldout")
    dlp = sorted(heldout)[0]
    cfg = MetaConfig(m=2, n=4, q=2, k=1, epochs=1, seed=0, max_meta_batches=2,
                     inner=OptimizerSettings(lr=2e-3))
    strategies = ["backbone", "meta_adapter", "random_adapter", "full_ft", "tag_ft",
                  "agnostic_adapter", "stack_adapter", "full_model_meta"]
    trained = {s: train_strategy(s, mc, ac, vocab, backbone, meta_ds, cfg)[0]
               for s in strategies if STRATEGIES[s].stage_one}
    budget = AdaptBudget(epochs=1, batch_size=8, settings=OptimizerSettings(lr=2e-3),
                         max_steps=2)
    records = []
    for strategy in strategies:
        records.append(adapt_and_evaluate(strategy, dlp, heldout[dlp], mc=mc, ac=ac,
                                          vocab=vocab, backbone=backbone, trained=trained,
                                          budget=budget, run_seed=0, max_len=10))
    by_strategy = {r.strategy: r for r in records}
    assert by_strategy["backbone"].trainable_ratio == 1.0
    assert by_strategy["full_ft"].trainable_ratio == 1.0
    assert by_strategy["meta_adapter"].trainable_ratio < 0.25
    assert by_strategy["meta_adapter"].trainable_params == by_strategy["agnostic_adapter"].trainable_params
    lp_count = len({(d.src_lang, d.tgt_lang) for d in meta_ds})
    dom_count = len({d.domain for d in meta_ds})
    single = by_strategy["meta_adapter"].trainable_params
    assert by_strategy["stack_adapter"].trainable_params == (lp_count + dom_count) * single


def test_adapt_and_evaluate_rejects_unknown_strategy_and_missing_snapshot(smoke_stack):
    registry, vocab, mc, ac, backbone = smoke_stack
    heldout = role_datasets(registry, "heldout")
    dlp = sorted(heldout)[0]
    budget = AdaptBudget(epochs=1, batch_size=8, max_steps=1)
    for strategy, message in (("bogus", "unknown strategy 'bogus'"),
                              ("meta_adapter", "meta_adapter snapshot missing")):
        with pytest.raises(InputError, match=message):
            adapt_and_evaluate(strategy, dlp, heldout[dlp], mc=mc, ac=ac, vocab=vocab,
                               backbone=backbone, trained={}, budget=budget,
                               run_seed=0, max_len=10)


def test_train_strategy_rejects_unknown_strategy(smoke_stack):
    registry, vocab, mc, ac, backbone = smoke_stack
    with pytest.raises(InputError, match="unknown strategy 'bogus'"):
        train_strategy("bogus", mc, ac, vocab, backbone, role_datasets(registry, "meta_train"),
                       MetaConfig())


def test_hyperparam_sweep_degenerate_and_deterministic(smoke_stack):
    registry, vocab, mc, ac, backbone = smoke_stack
    meta_ds = role_datasets(registry, "meta_train")
    heldout = role_datasets(registry, "heldout")
    pair = {k: heldout[k] for k in sorted(heldout)[:1]}
    base = MetaConfig(m=2, n=4, q=2, k=1, epochs=1, seed=7, max_meta_batches=2,
                      inner=OptimizerSettings(lr=2e-3))
    budget = AdaptBudget(epochs=1, batch_size=8, settings=OptimizerSettings(lr=2e-3),
                         max_steps=1)
    grid = [{"tau": 1.0}]
    rows1 = hyperparam_sweep(grid, base, mc=mc, ac=ac, vocab=vocab, backbone=backbone,
                             meta_datasets=meta_ds, heldout=pair, budget=budget, max_len=10)
    rows2 = hyperparam_sweep(grid, base, mc=mc, ac=ac, vocab=vocab, backbone=backbone,
                             meta_datasets=meta_ds, heldout=pair, budget=budget, max_len=10)
    assert rows1 == rows2
    assert len(rows1) == 1 and rows1[0]["best"] is True

    # a size-1 grid equals a direct meta-train + evaluate run
    trained = {"meta_adapter": train_strategy("meta_adapter", mc, ac, vocab, backbone, meta_ds,
                                              base)[0]}
    dlp = next(iter(pair))
    direct = adapt_and_evaluate("meta_adapter", dlp, pair[dlp], mc=mc, ac=ac, vocab=vocab,
                                backbone=backbone, trained=trained, budget=budget,
                                run_seed=base.seed, max_len=10)
    assert rows1[0]["mean_bleu"] == direct.bleu
