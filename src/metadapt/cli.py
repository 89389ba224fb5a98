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
import resource
import sys
import time
from pathlib import Path

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
    train_strategy,
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
             "strategies": Rule(NAMES, "one or more distinct known strategies",
                                choices=tuple(STRATEGIES), noun="strategy")},
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


def _load_world(config: dict) -> tuple[Registry, Vocab, ModelConfig, AdapterConfig]:
    """The corpus registry and vocabulary, and the model tables on that vocabulary."""
    registry = load_registry(config["corpus_dir"])
    vocab = Vocab.load(registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), **config["model"])
    ac = AdapterConfig(**config["adapter"])
    ac.validate(mc.model_dim)
    return registry, vocab, mc, ac


def _load_backbone(config: dict) -> dict[str, np.ndarray]:
    """The pretrained backbone, verified against the pretrain entry of the
    run index: its model and adapter tables must equal this run's config
    (ConfigError), the file its digest and the parameters its checksum."""
    out = _out_dir(config)
    entry = checkpoint.read_stage(out, "pretrain")
    index = out / checkpoint.INDEX
    for table in ("model", "adapter"):
        ours, theirs = config[table], entry["config"].get(table)
        if not isinstance(theirs, dict):
            raise DataIntegrityError(f"{index}: the pretrain entry has no {table} table")
        diff = [f"{k}={ours.get(k)!r} (backbone: {theirs.get(k)!r})"
                for k in sorted(set(ours) | set(theirs)) if ours.get(k) != theirs.get(k)]
        if diff:
            raise ConfigError(f"{table} config differs from the backbone's, in the pretrain "
                              f"entry of {index}: " + ", ".join(diff))
    path = checkpoint.verified(out, "pretrain", entry, "backbone.ckpt")
    params = checkpoint.load_params(path)
    if backbone_checksum(params) != entry.get("backbone_checksum"):
        raise DataIntegrityError(f"{path}: backbone checksum differs from the pretrain entry "
                                 f"of {index}")
    return params


def _run_facts(started: float) -> dict:
    """What a run-index entry records of the stage's run: its wall time since
    `started`, and the peak resident set of this process and of its largest
    ended child, a ForkPool worker (0 when none was started)."""
    def peak_mib(who: int) -> float:
        return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux

    return {"wall_s": round(time.perf_counter() - started, 3),
            "peak_rss_mib": peak_mib(resource.RUSAGE_SELF),
            "workers_peak_rss_mib": peak_mib(resource.RUSAGE_CHILDREN)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_corpus(config: dict) -> int:
    if not config["world"]:
        raise ConfigError("gen-corpus: config must define a 'world' table")
    spec = SyntheticWorldSpec.from_dict(config["world"], "in config")
    corpus, out = Path(config["corpus_dir"]).resolve(), _out_dir(config).resolve()
    if out == corpus or corpus in out.parents:  # the new corpus replaces corpus_dir whole
        raise ConfigError(f"gen-corpus: out_dir ({out}) must not lie inside corpus_dir ({corpus})")
    registry = generate_world(spec, config["corpus_dir"])
    print(f"generated {len(registry.rows)} DLPs under {registry.root}")
    return 0


def cmd_pretrain(config: dict) -> int:
    started = time.perf_counter()
    registry, vocab, mc, ac = _load_world(config)
    pre = config["pretrain"]
    out = _out_dir(config)
    model, losses = pretrain_backbone(
        registry, vocab, mc, ac,
        OptimizerSettings(lr=pre["lr"], weight_decay=pre["weight_decay"]),
        epochs=pre["epochs"], batch_size=pre["batch_size"], seed=config["seed"],
        max_steps=pre["max_steps"])
    checkpoint.save_params(out / "backbone.ckpt", {n: model.params[n].data for n in model.params})
    checkpoint.write_jsonl(out / "pretrain_log.jsonl",
                           ({"step": i, "loss": v} for i, v in enumerate(losses)))
    checkpoint.record_stage(out, "pretrain", config, ["backbone.ckpt", "pretrain_log.jsonl"],
                            backbone_checksum=model.backbone_checksum(), **_run_facts(started))
    dev = backbone_dev_bleu(model, vocab, registry, max_len=config["eval"]["max_len"])
    print(f"pretrained backbone: final loss {losses[-1]:.4f}, dev BLEU {dev:.2f}")
    return 0


def _component_file(strategy: str, component: str) -> str:  # relative to out_dir
    return f"{strategy}/{component.replace(':', '_')}.ckpt"


def cmd_stage_one(config: dict, strategy: str) -> int:
    """Train stage one of `strategy` on the meta-training DLPs and write its
    artifact, its meta-training log if it logged meta-batches, and its entry
    of the run index, which names the backbone it was trained on."""
    started = time.perf_counter()
    setup = STRATEGIES[strategy]
    registry, vocab, mc, ac = _load_world(config)
    backbone = _load_backbone(config)
    datasets = role_datasets(registry, "meta_train")
    out = _out_dir(config)
    components, log = train_strategy(strategy, mc, ac, vocab, backbone, datasets,
                                     _meta_config(config))
    files = [_component_file(strategy, c) for c in components]
    for name, params in zip(files, components.values()):
        checkpoint.save_params(out / name, params)
    if log:
        files.append(f"{strategy}/training_log.jsonl")
        checkpoint.write_jsonl(out / files[-1], log)
    checkpoint.record_stage(out, strategy, config, files, components=sorted(components),
                            note=setup.note, backbone_checksum=backbone_checksum(backbone),
                            **_run_facts(started))
    batches = sum(1 for r in log if "meta_batch_loss" in r)
    print(f"trained {strategy} over {len(datasets)} DLPs ({len(components)} component(s), "
          f"{batches} meta-batches)")
    return 0


def _load_trained(config: dict, strategies: list[str], mc: ModelConfig,
                  ac: AdapterConfig) -> dict[str, Components]:
    """The stage-one artifact of each strategy that has one: the components
    its entry of the run index lists, each file verified against that entry
    and checked to hold exactly the tensors its stage one trains. The entry
    must name the backbone of the pretrain entry as the one it trained on."""
    out = _out_dir(config)
    index = out / checkpoint.INDEX
    pretrained = checkpoint.read_stage(out, "pretrain").get("backbone_checksum")
    trained = {}
    for strategy in strategies:
        setup = STRATEGIES[strategy]
        if setup.stage_one is None:
            continue
        entry = checkpoint.read_stage(out, strategy)
        if entry.get("backbone_checksum") != pretrained:
            raise DataIntegrityError(f"{index}: stage '{strategy}' was not trained on the "
                                     f"backbone of the pretrain entry; run it again")
        names = entry.get("components")
        if not (isinstance(names, list) and names and all(isinstance(c, str) for c in names)
                and (setup.stage_one == "stack" or names == [setup.component])):
            raise DataIntegrityError(f"{index}: components {names!r} of stage "
                                     f"'{strategy}' are not what it trains")
        shapes = component_shapes(strategy, mc, ac)
        trained[strategy] = {}
        for component in names:
            path = checkpoint.verified(out, strategy, entry, _component_file(strategy, component))
            params = checkpoint.load_params(path)
            if {n: v.shape for n, v in params.items()} != shapes:
                raise DataIntegrityError(f"{path}: tensor names or shapes differ from what "
                                         f"{strategy} trains")
            trained[strategy][component] = params
    return trained


def cmd_adapt_evaluate(config: dict) -> int:
    started = time.perf_counter()
    strategies = config["eval"]["strategies"]
    registry, vocab, mc, ac = _load_world(config)
    backbone = _load_backbone(config)
    trained = _load_trained(config, strategies, mc, ac)
    heldout = role_datasets(registry, "heldout")
    if not heldout:
        raise DataIntegrityError("no held-out DLPs in the registry")
    records = compare_strategies(strategies, heldout, mc=mc, ac=ac, vocab=vocab,
                                 backbone=backbone, trained=trained, budget=_budget(config),
                                 run_seed=config["seed"], max_len=config["eval"]["max_len"])
    out = _out_dir(config)
    write_records(records, out / "metrics.csv")
    checkpoint.record_stage(out, "adapt", config, ["metrics.csv"], **_run_facts(started))
    for rec in records:
        print(f"{rec.dlp.key():30s} {rec.strategy:18s} BLEU {rec.bleu:6.2f} chrF {rec.chrf:6.2f}")
    return 0


def cmd_evaluate_files(hyp_path: str, ref_path: str) -> int:
    hyps = checkpoint.read_text(hyp_path).splitlines()
    refs = checkpoint.read_text(ref_path).splitlines()
    if len(hyps) != len(refs) or not hyps:  # line i is scored against line i
        raise DataIntegrityError(f"{hyp_path} has {len(hyps)} lines and {ref_path} has "
                                 f"{len(refs)}; scoring needs the same count, at least 1")
    print(f"BLEU {corpus_bleu(hyps, refs):.2f}")
    print(f"chrF {chrf(hyps, refs):.2f}")
    return 0


def cmd_sweep(config: dict) -> int:
    started = time.perf_counter()
    points = config["sweep"].get("points")
    if not points:
        raise ConfigError("sweep: config must list sweep.points")
    points = [_with_inf(p) for p in points]
    registry, vocab, mc, ac = _load_world(config)
    backbone = _load_backbone(config)
    meta_datasets = role_datasets(registry, "meta_train")
    heldout = role_datasets(registry, "heldout")
    rows = hyperparam_sweep(points, _meta_config(config), mc=mc, ac=ac, vocab=vocab,
                            backbone=backbone, meta_datasets=meta_datasets, heldout=heldout,
                            budget=_budget(config), max_len=config["eval"]["max_len"])
    out = _out_dir(config)
    write_sweep(rows, out / "sweep.csv")
    checkpoint.record_stage(out, "sweep", config, ["sweep.csv"], **_run_facts(started))
    best = next(r for r in rows if r["best"])
    print(f"swept {len(rows)} grid points; best mean BLEU {best['mean_bleu']:.2f}")
    return 0


def cmd_report(run_dirs: list[str], reference: str, out_dir: str) -> int:
    records = []
    logs = []
    for run in map(Path, run_dirs):
        metrics = run / "metrics.csv"
        if not metrics.exists():
            raise DataIntegrityError(f"report: {metrics} not found")
        records.extend(read_records(metrics))
        for log_name in sorted(p.relative_to(run).as_posix() for p in run.rglob("*.jsonl")):
            log_path = run / log_name
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
                logs.append({"run": run.name, "log": log_name, "step": step, "loss": loss})
    if not records:
        raise DataIntegrityError("report: the metrics files hold no records")
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
            if args.command == "evaluate" and (args.hyp_file or args.ref_file):
                if not (args.hyp_file and args.ref_file):
                    given, needed = ("hyp", "ref") if args.hyp_file else ("ref", "hyp")
                    raise ConfigError(f"evaluate: --{given}-file requires --{needed}-file")
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
