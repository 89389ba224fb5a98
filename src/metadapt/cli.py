"""Command-line entry point.

Subcommands: gen-corpus, pretrain, meta-train, baseline, adapt, evaluate,
sweep, report. Every run is driven by a JSON config file (schema documented
in the README) plus repeatable --set dotted-key overrides; all seeds are
explicit config values. Exit codes: 0 success, 2 config error, 3 data or I/O
error, 4 numeric failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import checkpoint
from .corpus import Registry, SyntheticWorldSpec, Vocab, generate_world, load_registry
from .errors import ConfigError, DataIntegrityError, InputError, MetadaptError, NumericError
from .metrics import aggregate, corpus_bleu, chrf, read_records, write_records, write_report
from .model import AdapterConfig, ModelConfig, backbone_checksum
from .optim import OptimizerSettings
from .pipeline import (
    AdaptBudget,
    backbone_dev_bleu,
    compare_strategies,
    hyperparam_sweep,
    pretrain_backbone,
    role_datasets,
    train_strategies,
    write_manifest,
    write_sweep,
)
from .rules import KINDS, NAMES, Rule, check
from .training import (
    STRATEGIES,
    Components,
    MetaConfig,
    STRATEGY_BACKBONE,
    STRATEGY_META_ADAPTER,
    component_shapes,
)

DEFAULT_CONFIG: dict = {
    "corpus_dir": "runs/corpus",
    "out_dir": "runs/exp",
    "seed": 0,
    "world": {},
    "model": {"model_dim": 64, "num_layers": 2, "num_heads": 4, "ffn_dim": 128,
              "max_seq_len": 48, "dropout": 0.1},
    "adapter": {"bottleneck_dim": 16, "ln_epsilon": 1e-5},
    "pretrain": {"epochs": 6, "lr": 2e-3, "batch_size": 32, "weight_decay": 0.0,
                 "max_steps": None},
    "meta": {"m": 8, "n": 8, "q": 8, "k": 3, "beta": 1.0, "tau": 1.0, "epochs": 3,
             "inner_lr": 1e-3, "max_meta_batches": None},
    "adapt": {"epochs": 1, "batch_size": 16, "lr": 1e-3, "max_steps": None},
    "eval": {"max_len": 32, "strategies": [STRATEGY_BACKBONE, STRATEGY_META_ADAPTER]},
    "caps": {"train": None, "adapt": None, "valid": None, "test": None},
    "strategy": STRATEGY_META_ADAPTER,
    "sweep": {"points": []},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _strict_json(text: str):
    """json.loads without Python's NaN and Infinity, which JSON lacks, nor a
    number too large for a float, which would read as Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    def finite(number: str) -> float:
        if not math.isfinite(value := float(number)):
            reject(number)
        return value
    return json.loads(text, parse_constant=reject, parse_float=finite)


def _parse_value(text: str):
    try:
        return _strict_json(text)
    except ValueError:
        return text


#: The rule of every config value: each table takes the rules of the
#: dataclasses it feeds (pretrain, whose values are pretrain_backbone's
#: arguments, those of the same values of an adapt budget), and the rest are
#: values only the command line reads.
RULES: dict = {
    "corpus_dir": Rule("a string"),
    "out_dir": Rule("a string"),
    "seed": MetaConfig.RULES["seed"],
    "world": SyntheticWorldSpec.RULES,
    "model": {k: r for k, r in ModelConfig.RULES.items() if k != "vocab_size"},
    "adapter": AdapterConfig.RULES,
    "pretrain": {**AdaptBudget.RULES, **OptimizerSettings.RULES},
    "meta": {k: OptimizerSettings.RULES["lr"] if k == "inner_lr" else MetaConfig.RULES[k]
             for k in DEFAULT_CONFIG["meta"]},
    "adapt": {**AdaptBudget.RULES, "lr": OptimizerSettings.RULES["lr"]},
    "eval": {"max_len": Rule("a whole number", "at least 1"),
             "strategies": Rule(NAMES, "known strategies", choices=tuple(STRATEGIES),
                                noun="strategy")},
    "caps": dict.fromkeys(DEFAULT_CONFIG["caps"],
                          Rule("a whole number", "non-negative", null=True)),
    "strategy": Rule("a string", "strategies with one", noun="stage-one strategy",
                     choices=tuple(s for s, r in STRATEGIES.items() if r.stage_one)),
    "sweep": {"points": Rule("a list of tables")},
}


def _check_table(rules: dict, table: dict, prefix: str = "") -> None:
    """Every key of `table` has a rule, a table stays a table and every value
    keeps its rule; the world table is checked by building its spec."""
    for name, value in table.items():
        if name not in rules:
            raise ConfigError(f"unknown config key '{prefix}{name}'")
        if isinstance(rules[name], dict) and not isinstance(value, dict):
            raise ConfigError(f"config '{prefix}{name}' must be a table, got {value!r}")
        if name == "world":
            if value:  # only gen-corpus needs one
                SyntheticWorldSpec.from_dict(value, "in config")
        elif isinstance(rules[name], dict):
            _check_table(rules[name], value, f"{prefix}{name}.")
    check({n: r for n, r in rules.items() if isinstance(r, Rule)}, _with_inf(table),
          f"config '{prefix}{{}}'")


def load_config(path: str | None, overrides: list[str]) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            user = _strict_json(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON or UTF-8
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: not a table")
        config = _deep_merge(config, user)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: '{part}' is not a table")
        value = _parse_value(value)
        if isinstance(value, dict) and isinstance(node.get(parts[-1]), dict):
            value = _deep_merge(node[parts[-1]], value)  # a table merges, as in a file
        node[parts[-1]] = value
    _check_table(RULES, config)
    for i, point in enumerate(config["sweep"]["points"]):
        _check_table(MetaConfig.RULES, point, f"sweep.points[{i}].")
    max_len, max_seq_len = config["eval"]["max_len"], config["model"]["max_seq_len"]
    if max_len > max_seq_len:  # decoding feeds positions 0 to max_len - 1
        raise ConfigError(f"config 'eval.max_len' must be at most model.max_seq_len "
                          f"({max_seq_len}), got {max_len}")
    return config


def _out_dir(config: dict) -> Path:
    out = Path(config["out_dir"])
    root = os.environ.get("METADAPT_OUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _caps(config: dict) -> dict[str, int] | None:
    caps = {k: v for k, v in config["caps"].items() if v is not None}
    return caps or None


def _model_configs(config: dict, vocab: Vocab) -> tuple[ModelConfig, AdapterConfig]:
    mc = ModelConfig(vocab_size=len(vocab), **config["model"])
    ac = AdapterConfig(**config["adapter"])
    ac.validate(mc.model_dim)
    return mc, ac


def _with_inf(table: dict) -> dict:
    """`table` with a tau of "inf" as math.inf: the config keeps the string,
    as JSON has no infinity."""
    return {k: math.inf if k == "tau" and v == "inf" else v for k, v in table.items()}


def _meta_config(config: dict) -> MetaConfig:
    meta = _with_inf(config["meta"])
    inner = OptimizerSettings(lr=meta.pop("inner_lr"))
    return MetaConfig(seed=config["seed"], inner=inner, **meta)


def _budget(config: dict) -> AdaptBudget:
    adapt = config["adapt"]
    return AdaptBudget(epochs=adapt["epochs"], batch_size=adapt["batch_size"],
                       settings=OptimizerSettings(lr=adapt["lr"]),
                       max_steps=adapt["max_steps"])


def _load_world(config: dict) -> tuple[Registry, Vocab]:
    registry = load_registry(config["corpus_dir"])
    vocab = Vocab.load(registry.root / "vocab.json")
    return registry, vocab


def _backbone_path(config: dict) -> Path:
    return _out_dir(config) / "backbone.ckpt"


def _load_backbone(config: dict) -> dict[str, np.ndarray]:
    """The pretrained backbone, verified against the backbone.json written
    beside it: its model and adapter tables must equal this run's config
    (ConfigError), and the loaded parameters must match its checksum."""
    path = _backbone_path(config)
    if not path.exists():
        raise DataIntegrityError(f"backbone checkpoint not found at {path}; run `pretrain` first")
    info_path = path.with_suffix(".json")
    try:
        info = checkpoint.read_json(info_path)
    except FileNotFoundError as exc:
        raise DataIntegrityError(f"{info_path} not found; run `pretrain` again") from exc
    if not (isinstance(info, dict) and all(isinstance(info.get(t), dict)
                                           for t in ("model", "adapter"))):
        raise DataIntegrityError(f"{info_path}: no model and adapter tables")
    for table in ("model", "adapter"):
        ours, theirs = config[table], info[table]
        diff = [f"{k}={ours.get(k)!r} (backbone: {theirs.get(k)!r})"
                for k in sorted(set(ours) | set(theirs)) if ours.get(k) != theirs.get(k)]
        if diff:
            raise ConfigError(f"{table} config differs from the backbone's {info_path}: "
                              + ", ".join(diff))
    params = checkpoint.load_params(path)
    if backbone_checksum(params) != info.get("backbone_checksum"):
        raise DataIntegrityError(f"{path}: backbone checksum differs from {info_path}")
    return params


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_corpus(config: dict) -> int:
    if not config["world"]:
        raise ConfigError("gen-corpus: config must define a 'world' table")
    spec = SyntheticWorldSpec.from_dict(config["world"], "in config")
    registry = generate_world(spec, config["corpus_dir"])
    print(f"generated {len(registry.rows)} DLPs under {registry.root}")
    return 0


def cmd_pretrain(config: dict) -> int:
    registry, vocab = _load_world(config)
    mc, ac = _model_configs(config, vocab)
    pre = config["pretrain"]
    out = _out_dir(config)
    write_manifest(out, config)
    model, losses = pretrain_backbone(
        registry, vocab, mc, ac,
        OptimizerSettings(lr=pre["lr"], weight_decay=pre["weight_decay"]),
        epochs=pre["epochs"], batch_size=pre["batch_size"], seed=config["seed"],
        caps=_caps(config), max_steps=pre["max_steps"])
    checkpoint.save_params(out / "backbone.ckpt", {n: model.params[n].data for n in model.params})
    part = model.partition()
    checkpoint.write_json(out / "backbone.json", {
        "model": config["model"], "adapter": config["adapter"],
        "partition": {"backbone": sorted(part.backbone), "adapters": sorted(part.adapters)},
        "backbone_checksum": model.backbone_checksum()})
    checkpoint.write_jsonl(out / "pretrain_log.jsonl",
                           ({"step": i, "loss": v} for i, v in enumerate(losses)))
    dev = backbone_dev_bleu(model, vocab, registry, max_len=config["eval"]["max_len"])
    print(f"pretrained backbone: final loss {losses[-1]:.4f}, dev BLEU {dev:.2f}")
    return 0


def _artifact_files(out: Path, strategy: str) -> tuple[Path | None, Callable[[str], Path]]:
    """Where stage one keeps the artifact of `strategy`: its index (None when
    it has none) and the file of each component. meta_adapter keeps
    meta-train's layout, meta_adapter.ckpt beside training_log.jsonl; every
    other strategy writes baseline_<strategy>/<component>.ckpt, indexed by
    artifact.json."""
    if strategy == STRATEGY_META_ADAPTER:
        return None, lambda c: out / "meta_adapter.ckpt"
    art_dir = out / f"baseline_{strategy}"
    return art_dir / "artifact.json", lambda c: art_dir / f"{c.replace(':', '_')}.ckpt"


def cmd_stage_one(config: dict, strategy: str) -> int:
    """Train stage one of `strategy` on the meta-training DLPs and write its
    artifact."""
    setup = STRATEGIES[strategy]
    registry, vocab = _load_world(config)
    mc, ac = _model_configs(config, vocab)
    backbone = _load_backbone(config)
    datasets = role_datasets(registry, "meta_train", _caps(config))
    out = _out_dir(config)
    write_manifest(out, config)
    trained, logs = train_strategies([strategy], mc, ac, vocab, backbone, datasets,
                                     _meta_config(config))
    components = trained[strategy]
    index, file_of = _artifact_files(out, strategy)
    for component, params in components.items():
        checkpoint.save_params(file_of(component), params)
    if index is None:
        checkpoint.write_jsonl(out / "training_log.jsonl", logs[strategy])
    else:
        checkpoint.write_json(index, {"strategy": strategy, "components": sorted(components),
                                      "note": setup.note})
    batches = sum(1 for r in logs[strategy] if "meta_batch_loss" in r)
    print(f"trained {strategy} over {len(datasets)} DLPs ({len(components)} component(s), "
          f"{batches} meta-batches)")
    return 0


def _load_trained(config: dict, strategies: list[str], mc: ModelConfig,
                  ac: AdapterConfig) -> dict[str, Components]:
    """The stage-one artifact of each strategy that has one, each component
    checked to hold exactly the tensors its stage one trains."""
    out = _out_dir(config)
    trained = {}
    for strategy in strategies:
        setup = STRATEGIES[strategy]
        if setup.stage_one is None:
            continue
        index, file_of = _artifact_files(out, strategy)
        first = index or file_of(setup.component)
        if not first.exists():
            raise DataIntegrityError(f"{first} missing; run `meta-train` or `baseline` "
                                     f"for '{strategy}' first")
        names = [setup.component]
        if index is not None:
            info = checkpoint.read_json(index)
            names = info.get("components") if isinstance(info, dict) else None
            if not isinstance(names, list):
                raise DataIntegrityError(f"{index}: no components list")
            if not (all(isinstance(c, str) for c in names)
                    and (setup.stage_one == "stack" or names == [setup.component])):
                raise DataIntegrityError(f"{index}: components {names!r} are not "
                                         f"what {strategy} trains")
        shapes = component_shapes(strategy, mc, ac)
        trained[strategy] = {}
        for component in names:
            params = checkpoint.load_params(file_of(component))
            if {n: v.shape for n, v in params.items()} != shapes:
                raise DataIntegrityError(f"{file_of(component)}: tensor names or shapes differ "
                                         f"from what {strategy} trains")
            trained[strategy][component] = params
    return trained


def cmd_adapt_evaluate(config: dict) -> int:
    strategies = config["eval"]["strategies"]
    registry, vocab = _load_world(config)
    mc, ac = _model_configs(config, vocab)
    backbone = _load_backbone(config)
    trained = _load_trained(config, strategies, mc, ac)
    heldout = role_datasets(registry, "heldout", _caps(config))
    if not heldout:
        raise DataIntegrityError("no held-out DLPs in the registry")
    records = compare_strategies(strategies, heldout, mc=mc, ac=ac, vocab=vocab,
                                 backbone=backbone, trained=trained, budget=_budget(config),
                                 run_seed=config["seed"], max_len=config["eval"]["max_len"])
    out = _out_dir(config)
    write_manifest(out, config)
    write_records(records, out / "metrics.csv")
    for rec in records:
        print(f"{rec.dlp.key():30s} {rec.strategy:18s} BLEU {rec.bleu:6.2f} chrF {rec.chrf:6.2f}")
    return 0


def cmd_evaluate_files(hyp_path: str, ref_path: str) -> int:
    hyps = checkpoint.read_text(hyp_path).splitlines()
    refs = checkpoint.read_text(ref_path).splitlines()
    print(f"BLEU {corpus_bleu(hyps, refs):.2f}")
    print(f"chrF {chrf(hyps, refs):.2f}")
    return 0


def cmd_sweep(config: dict) -> int:
    points = config["sweep"].get("points")
    if not points:
        raise ConfigError("sweep: config must list sweep.points")
    points = [_with_inf(p) for p in points]
    registry, vocab = _load_world(config)
    mc, ac = _model_configs(config, vocab)
    backbone = _load_backbone(config)
    meta_datasets = role_datasets(registry, "meta_train", _caps(config))
    heldout = role_datasets(registry, "heldout", _caps(config))
    rows = hyperparam_sweep(points, _meta_config(config), mc=mc, ac=ac, vocab=vocab,
                            backbone=backbone, meta_datasets=meta_datasets, heldout=heldout,
                            budget=_budget(config), max_len=config["eval"]["max_len"])
    out = _out_dir(config)
    write_manifest(out, config)
    write_sweep(rows, out / "sweep.csv")
    best = next(r for r in rows if r["best"])
    print(f"swept {len(rows)} grid points; best mean BLEU {best['mean_bleu']:.2f}")
    return 0


def cmd_report(run_dirs: list[str], reference: str, out_dir: str) -> int:
    records = []
    logs = []
    for run in run_dirs:
        metrics = Path(run) / "metrics.csv"
        if not metrics.exists():
            raise DataIntegrityError(f"report: {metrics} not found")
        records.extend(read_records(metrics))
        for log_name in ("training_log.jsonl", "pretrain_log.jsonl"):
            log_path = Path(run) / log_name
            if log_path.exists():
                lines = checkpoint.read_text(log_path).splitlines()
                for number, line in enumerate(lines, start=1):
                    try:  # a log damaged on disk can end in a cut line
                        rec = json.loads(line)
                    except ValueError as exc:
                        raise DataIntegrityError(
                            f"report: {log_path}: invalid JSON on line {number} ({exc})") from exc
                    if isinstance(rec, dict) and not {"meta_batch_loss", "loss"} & set(rec):
                        continue  # no loss to plot, such as the early-stop record
                    point = rec if isinstance(rec, dict) else {}
                    step, loss = point.get("step"), point.get("meta_batch_loss", point.get("loss"))
                    # a meta-batch without query pairs logs a NaN loss
                    if not (KINDS["a whole number"](step) and isinstance(loss, (int, float))
                            and not isinstance(loss, bool)):
                        raise DataIntegrityError(f"report: {log_path}: line {number} is not a "
                                                 f"record with a step and a loss: {line}")
                    logs.append({"run": Path(run).name, "log": log_name, "step": step, "loss": loss})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(aggregate(records, "domain", reference), out / "table_by_domain.csv")
    write_report(aggregate(records, "language_pair", reference), out / "table_by_language_pair.csv")
    write_report(aggregate(records, "strategy", reference), out / "table_overall.csv")
    ordered = sorted(records, key=lambda r: (r.dlp, r.strategy))
    write_records(ordered, out / "details_by_dlp.csv")
    _write_efficiency(records, out / "efficiency.csv")
    _write_loss_curves(logs, out / "loss_curves.csv")
    print(f"report written to {out} ({len(records)} records, {len(logs)} loss points)")
    return 0


def _write_efficiency(records, path: Path) -> None:
    rows = {}
    for rec in records:
        rows.setdefault(rec.strategy, (rec.trainable_params, rec.trainable_ratio, rec.note))
    checkpoint.write_csv(path, ["strategy", "trainable_params", "trainable_ratio", "note"],
                         ([s, count, f"{ratio:.6f}", note]
                          for s, (count, ratio, note) in sorted(rows.items())))


def _write_loss_curves(logs: list[dict], path: Path) -> None:
    checkpoint.write_csv(path, ["run", "log", "step", "loss"],
                         ([r["run"], r["log"], r["step"], f"{r['loss']:.6f}"] for r in logs))


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metadapt",
        description="Meta-learned bottleneck adapters for multilingual multi-domain "
                    "translation on synthetic corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", help="JSON config file (defaults applied underneath)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value, dotted keys (repeatable)")
        return p

    with_config(sub.add_parser("gen-corpus", help="generate the synthetic corpus tree"))
    with_config(sub.add_parser("pretrain", help="pretrain the frozen backbone"))
    with_config(sub.add_parser("meta-train", help="meta-train the shared adapter"))
    with_config(sub.add_parser("baseline", help="train stage one of the strategy named by "
                                               "config.strategy"))
    with_config(sub.add_parser("adapt", help="adapt every strategy to each held-out DLP "
                                             "and score it (writes metrics.csv)"))
    ev = with_config(sub.add_parser("evaluate", help="score adapted strategies, or score "
                                                     "a hypotheses file against references"))
    ev.add_argument("--hyp-file", help="hypotheses, one per line")
    ev.add_argument("--ref-file", help="references, one per line")
    with_config(sub.add_parser("sweep", help="run the hyperparameter sweep grid"))
    rep = sub.add_parser("report", help="aggregate metrics from completed runs")
    rep.add_argument("--runs", nargs="+", required=True, help="run directories with metrics.csv")
    rep.add_argument("--reference", default=STRATEGY_BACKBONE, help="reference strategy for deltas")
    rep.add_argument("--out", required=True, help="report output directory")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every op turns a non-finite result into a NumericError, so numpy's
        # own overflow warnings would only print ahead of that one line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "report":
                return cmd_report(args.runs, args.reference, args.out)
            if args.command == "evaluate" and args.hyp_file:
                if not args.ref_file:
                    raise ConfigError("evaluate: --hyp-file requires --ref-file")
                return cmd_evaluate_files(args.hyp_file, args.ref_file)
            config = load_config(args.config, args.set)
            if args.command == "gen-corpus":
                return cmd_gen_corpus(config)
            if args.command == "pretrain":
                return cmd_pretrain(config)
            if args.command == "meta-train":
                return cmd_stage_one(config, STRATEGY_META_ADAPTER)
            if args.command == "baseline":
                return cmd_stage_one(config, config["strategy"])
            if args.command in ("adapt", "evaluate"):
                return cmd_adapt_evaluate(config)
            if args.command == "sweep":
                return cmd_sweep(config)
            raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size in the config that cannot be allocated
        print(f"config error: out of memory ({exc or 'MemoryError'})", file=sys.stderr)
        return 2
    except (DataIntegrityError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MetadaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
