import json
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
    train_strategies,
)
from metadapt.tasks import DlpId
from metadapt.training import MetaConfig

from conftest import tiny_world_spec


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


def test_cli_full_smoke_pipeline(tmp_path):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    assert (out / "backbone.ckpt").exists()
    manifest = json.loads((out / "backbone.json").read_text())
    assert manifest["backbone_checksum"]
    assert manifest["partition"]["adapters"] == []  # backbone checkpoint has no adapters
    assert run(["meta-train", "--config", str(cfg)]) == 0
    assert (out / "meta_adapter.ckpt").exists()
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


def test_cli_evaluate_identity_scores_100(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    refs.write_text("a b c\nd e f g\n", encoding="utf-8")
    assert run(["evaluate", "--hyp-file", str(refs), "--ref-file", str(refs)]) == 0
    out = capsys.readouterr().out
    assert "BLEU 100.00" in out and "chrF 100.00" in out


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
    art_dir = tmp_path / "run" / "baseline_agnostic_adapter"
    info = json.loads((art_dir / "artifact.json").read_text())
    assert info["components"] == ["adapter"]
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


def test_cli_truncated_backbone_exit_3(tmp_path, capsys):
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    assert run(["pretrain", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "run" / "backbone.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
    capsys.readouterr()
    assert run(["meta-train", "--config", str(cfg)]) == 3
    assert "truncated checkpoint" in capsys.readouterr().err


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
    info_path = tmp_path / "run" / "backbone.json"
    info = json.loads(info_path.read_text(encoding="utf-8"))
    info_path.write_text(json.dumps(dict(info, backbone_checksum="0" * 64)), encoding="utf-8")
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
    index = tmp_path / "run" / "baseline_agnostic_adapter" / "artifact.json"
    index.write_bytes(index.read_bytes()[: index.stat().st_size // 2])
    capsys.readouterr()
    assert _adapt_agnostic(cfg) == 3
    assert "artifact.json: invalid JSON" in capsys.readouterr().err


def test_cli_artifact_index_without_components_exit_3(tmp_path, capsys):
    cfg = _baseline_run(tmp_path)
    index = tmp_path / "run" / "baseline_agnostic_adapter" / "artifact.json"
    index.write_text(json.dumps({"strategy": "agnostic_adapter", "note": ""}), encoding="utf-8")
    capsys.readouterr()
    assert _adapt_agnostic(cfg) == 3
    assert "artifact.json: no components list" in capsys.readouterr().err


def test_cli_unknown_eval_strategy_exit_2(tmp_path, capsys):
    cfg = _smoke_config(tmp_path)  # no corpus or backbone: the names are checked first
    assert run(["adapt", "--config", str(cfg), "--set", 'eval.strategies=["backbone", "bogus"]']) == 2
    err = capsys.readouterr().err
    assert "unknown strategy 'bogus'" in err
    assert "meta_adapter" in err and "agnostic_adapter" in err  # the known names are listed
    assert run(["adapt", "--config", str(cfg), "--set", "eval.strategies=3"]) == 2
    assert "expected a list of strategy names" in capsys.readouterr().err


@pytest.mark.parametrize("name, cut", [("registry.tsv", 20), ("world.json", None),
                                       ("vocab.json", None)])
def test_cli_damaged_corpus_file_exit_3(tmp_path, capsys, name, cut):
    """The corpus tree is written in place, so an interrupted gen-corpus
    leaves a cut file: registry.tsv short by its last bytes, or world.json or
    vocab.json that is no longer JSON (cut in half)."""
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg)]) == 0
    path = tmp_path / "corpus" / name
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - cut] if cut else data[: len(data) // 2])
    capsys.readouterr()
    assert run(["pretrain", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and name in err and err.count("\n") == 1


def test_cli_registry_cut_inside_last_number_exit_3(tmp_path, capsys):
    """Cut by 2 bytes, registry.tsv still parses: its last size, the test
    split's 12, loses a digit and the file its final newline."""
    cfg = _smoke_config(tmp_path)
    assert run(["gen-corpus", "--config", str(cfg), "--set", "world.test_size=12"]) == 0
    path = tmp_path / "corpus" / "registry.tsv"
    path.write_bytes(path.read_bytes()[:-2])
    capsys.readouterr()
    assert run(["pretrain", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "registry.tsv" in err and err.count("\n") == 1


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


def _copy_of(smoke_run: Path, tmp_path: Path) -> list[str]:
    """Config arguments for a copy of `smoke_run` under `tmp_path`."""
    import shutil

    for name in ("corpus", "run"):
        shutil.copytree(smoke_run / name, tmp_path / name)
    return ["--config", str(smoke_run / "config.json"), "--set", f"corpus_dir={tmp_path / 'corpus'}",
            "--set", f"out_dir={tmp_path / 'run'}"]


@pytest.mark.parametrize("name, command", [
    ("corpus/registry.tsv", ["pretrain"]),
    ("corpus/general/apa-bel/train.tsv", ["pretrain"]),
    ("corpus/world.json", ["pretrain"]),
    ("corpus/vocab.json", ["pretrain"]),
    ("run/backbone.json", ["meta-train"]),
    ("run/baseline_agnostic_adapter/artifact.json",
     ["adapt", "--set", 'eval.strategies=["agnostic_adapter"]']),
    ("run/metrics.csv", ["report"]),
    ("run/training_log.jsonl", ["report"]),
    ("hyp.txt", ["evaluate"]),
])
def test_cli_non_utf8_artifact_exit_3(smoke_run, tmp_path, capsys, name, command):
    args = _copy_of(smoke_run, tmp_path)
    (tmp_path / "hyp.txt").write_text("a b c\n", encoding="utf-8")
    path = tmp_path / name
    path.write_bytes(b"\xff" + path.read_bytes())
    if command == ["report"]:
        args = ["--runs", str(tmp_path / "run"), "--out", str(tmp_path / "report")]
    elif command == ["evaluate"]:
        args = ["--hyp-file", str(path), "--ref-file", str(path)]
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
    for name, steps in (("pretrain_log.jsonl", 4), ("training_log.jsonl", 2)):
        lines = (tmp_path / "run" / name).read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["step"] for line in lines] == list(range(steps)), name


def _index_listing(components):
    def damage(path: Path) -> None:
        path.write_text(json.dumps({"strategy": "agnostic_adapter", "components": components,
                                    "note": ""}), encoding="utf-8")
    return damage


def _with_extra_tensor(path: Path) -> None:
    checkpoint.save_params(path, {**checkpoint.load_params(path),
                                  "enc/0/adapter/main/extra": np.zeros(2)})


def _backbone_copy(path: Path) -> None:
    path.write_bytes((path.parent / "backbone.ckpt").read_bytes())


@pytest.mark.parametrize("name, strategy, damage", [
    ("baseline_agnostic_adapter/artifact.json", "agnostic_adapter", _index_listing([1])),
    ("baseline_agnostic_adapter/artifact.json", "agnostic_adapter", _index_listing([])),
    ("meta_adapter.ckpt", "meta_adapter", _with_extra_tensor),
    ("meta_adapter.ckpt", "meta_adapter", _backbone_copy),
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
    ckpt = tmp_path / "run" / "meta_adapter.ckpt"
    ckpt.unlink()
    assert run(["baseline", *args]) == 0  # config.strategy defaults to meta_adapter
    assert ckpt.read_bytes() == (smoke_run / "run" / "meta_adapter.ckpt").read_bytes()


@pytest.mark.parametrize("override, message", [
    ("adapt.epoch=5", "unknown config key 'adapt.epoch'"),
    ("pretrain.lrr=3", "unknown config key 'pretrain.lrr'"),
    ("seeed=2", "unknown config key 'seeed'"),
    ("adapt=3", "config 'adapt' must be a table"),
    ("eval=3", "config 'eval' must be a table"),
    ("caps=3", "config 'caps' must be a table"),
    ("pretrain.lr=inf", "config 'pretrain.lr' must be a number"),
    ("meta.tau=Infinity", "config 'meta.tau' must be a number"),
    ("adapt.batch_size=0", "batch_size must be at least 1"),
])
def test_cli_config_shape_exit_2(smoke_run, capsys, override, message):
    """Checked once, in load_config; a batch size below 1 when training."""
    capsys.readouterr()
    assert run(["adapt", "--config", str(smoke_run / "config.json"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("override, message", [
    ("pretrain.epochs=1.5", "config 'pretrain.epochs' must be a whole number, got 1.5"),
    ("eval.max_len=2.5", "config 'eval.max_len' must be a whole number"),
    ("seed=true", "config 'seed' must be a whole number"),
    ('caps.train="x"', "config 'caps.train' must be null or a whole number"),
    ('adapt.max_steps="x"', "config 'adapt.max_steps' must be null or a whole number"),
    ("pretrain.max_steps=true", "config 'pretrain.max_steps' must be null or a whole number"),
    ("meta.max_meta_batches=2.0", "config 'meta.max_meta_batches' must be null or a whole"),
    ("sweep.points=[3]", "config 'sweep.points' must be a list of tables, got [3]"),
    ('sweep.points=[{"tau": "inf"}, {"k": 1.5}]', "config 'sweep.points[1].k' must be a whole"),
    ("seed=-1", "config 'seed' must be non-negative, got -1"),
    ("caps.train=-1", "config 'caps.train' must be non-negative, got -1"),
    ("caps.test=-2", "config 'caps.test' must be non-negative, got -2"),
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
        "pretrain.lr=1", "caps.train=5", "adapt.max_steps=null",
        'sweep.points=[{"tau": "inf"}, {"m": 2, "beta": 1, "max_meta_batches": null}]'])
    assert config["pretrain"]["lr"] == 1 and config["caps"]["train"] == 5
    assert config["adapt"]["max_steps"] is None


WORLD_WRONG_TYPES = [("seed", 1.5), ("templates_per_domain", 2.5), ("min_domain_tv", "x"),
                     ("train_size", 60.5), ("neutral_len", [3.5, 6]),
                     # out of range
                     ("train_size", -5), ("valid_size", -1), ("pretrain_train_size", -3),
                     ("templates_per_domain", 0), ("content_vocab_size", -3),
                     ("domain_vocab_size", -1), ("seed", -1)]


def test_cli_world_field_of_the_wrong_type(tmp_path, capsys):
    """gen-corpus rejects it as a config error; a world.json holding it is a
    damaged data file."""
    cfg = _smoke_config(tmp_path)
    for key, value in WORLD_WRONG_TYPES:
        assert run(["gen-corpus", "--config", str(cfg), "--set", f"world.{key}={json.dumps(value)}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: world spec: ") and key in err and err.count("\n") == 1
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
    """`--set sweep={}` replaces the whole table; sweep reports the missing
    points like an empty list, before reading any file."""
    cfg = _smoke_config(tmp_path)
    assert run(["sweep", "--config", str(cfg), "--set", "sweep={}"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: sweep: config must list sweep.points\n"


@pytest.mark.parametrize("head, body", [(b"\xff", None), (b"", b"[]"),
                                        (b"", b'{"seed": NaN}')])
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
    assert json.loads(manifest, parse_constant=reject)["config"]["meta"]["tau"] == "inf"
    config = load_config(str(smoke_run / "config.json"), ["meta.tau=inf"])
    assert _meta_config(config).tau == math.inf


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
    trained, _ = train_strategies(strategies, mc, ac, vocab, backbone, meta_ds, cfg,
                                  max_steps=2)
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


def test_train_strategies_rejects_unknown_strategy(smoke_stack):
    registry, vocab, mc, ac, backbone = smoke_stack
    with pytest.raises(InputError, match="unknown strategy 'bogus'"):
        train_strategies(["bogus"], mc, ac, vocab, backbone, role_datasets(registry, "meta_train"),
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
    trained, _ = train_strategies(["meta_adapter"], mc, ac, vocab, backbone, meta_ds, base)
    dlp = next(iter(pair))
    direct = adapt_and_evaluate("meta_adapter", dlp, pair[dlp], mc=mc, ac=ac, vocab=vocab,
                                backbone=backbone, trained=trained, budget=budget,
                                run_seed=base.seed, max_len=10)
    assert rows1[0]["mean_bleu"] == direct.bleu
