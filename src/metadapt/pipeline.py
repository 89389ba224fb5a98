"""End-to-end stage orchestration: backbone pretraining, strategy training,
meta-adaptation, evaluation, and the hyperparameter sweep harness.

The two-stage protocol: strategies are first trained on the meta-training
DLPs (or not at all, for the zero-shot backbone and the random-init adapter),
then every strategy receives the *same* adaptation budget on each held-out
DLP's adapt split before being scored on its test split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import write_csv, write_json
from .corpus import Registry, Vocab, load_datasets
from .errors import InputError
from .metrics import MetricsRecord, corpus_bleu, chrf, count_trainable
from .model import (
    AdapterConfig,
    ModelConfig,
    TranslationModel,
    build_model,
    forward_loss,
    greedy_decode,
    hash_seed,
    make_batch,
    restore_params,
    snapshot_params,
)
from .optim import OptimizerSettings
from .rules import Rule, check
from .tasks import DlpDataset, DlpId
from .training import (
    STRATEGIES,
    Components,
    MetaConfig,
    STRATEGY_META_ADAPTER,
    install_stack,
    meta_adapt,
    pooled_rows,
    supervised_train,
    train_stage_one,
)

@dataclass(frozen=True)
class AdaptBudget:
    """Meta-adaptation stage budget, shared identically by every strategy."""

    epochs: int = 1
    batch_size: int = 16
    settings: OptimizerSettings = field(default_factory=lambda: OptimizerSettings(lr=1e-3))
    max_steps: int | None = None

    RULES = {**dict.fromkeys(("epochs", "batch_size"), Rule("a whole number", "at least 1")),
             "max_steps": Rule("a whole number", "at least 1", null=True)}

    def __post_init__(self):
        check(self.RULES, vars(self), "adapt budget: {}")


def role_datasets(registry: Registry, role: str, caps: dict[str, int] | None = None,
                  ) -> dict[DlpId, DlpDataset]:
    ids = [r.dlp for r in registry.by_role(role)]
    return load_datasets(registry, ids, caps)


# ---------------------------------------------------------------------------
# backbone pretraining
# ---------------------------------------------------------------------------

def pretrain_backbone(registry: Registry, vocab: Vocab, mc: ModelConfig, ac: AdapterConfig,
                      settings: OptimizerSettings, epochs: int, batch_size: int, seed: int,
                      caps: dict[str, int] | None = None, max_steps: int | None = None,
                      ) -> tuple[TranslationModel, list[float]]:
    """Train a fresh backbone (no adapters) on the pretrain-domain DLPs, which
    cover every language of the world in the neutral domain."""
    datasets = role_datasets(registry, "pretrain", caps)
    if not datasets:
        raise InputError("pretrain_backbone: registry has no pretrain-role DLPs")
    model = build_model(mc, ac, seed=seed, adapter_groups=())
    losses = supervised_train(model, vocab, pooled_rows(datasets), settings, epochs,
                              batch_size, seed, trainable=list(model.params),
                              max_steps=max_steps)
    model.set_trainable([])
    return model, losses


def backbone_dev_bleu(model: TranslationModel, vocab: Vocab, registry: Registry,
                      sample_per_dlp: int = 8, max_len: int = 32) -> float:
    """Greedy-decode BLEU on the backbone's own pretraining dev set (the
    learnability gate for every downstream claim)."""
    hyps: list[str] = []
    refs: list[str] = []
    for row in registry.by_role("pretrain"):
        ds = load_datasets(registry, [row.dlp], caps={"valid": sample_per_dlp})[row.dlp]
        sources = [s for s, _ in ds.valid]
        refs.extend(t for _, t in ds.valid)
        hyps.extend(greedy_decode(model, vocab, sources, row.dlp.src_lang, row.dlp.tgt_lang, max_len))
    return corpus_bleu(hyps, refs)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_dlp(model: TranslationModel, vocab: Vocab, dlp: DlpId,
                 test_pairs, strategy: str, max_len: int,
                 with_domain_tag: bool = False,
                 counts: tuple[int, float] | None = None,
                 wall_time: float = 0.0, note: str = "") -> MetricsRecord:
    if not test_pairs:
        raise InputError(f"evaluate_dlp: no test pairs for {dlp.key()}")
    sources = [s for s, _ in test_pairs]
    refs = [t for _, t in test_pairs]
    batch = make_batch(list(test_pairs), vocab, dlp, with_domain_tag=with_domain_tag)
    with T.no_grad():
        # decoding and the test loss read the same source rows: encode them once
        enc = model.encode(batch.src, batch.src_mask)
        hyps = greedy_decode(model, vocab, sources, dlp.src_lang, dlp.tgt_lang, max_len,
                             domain=dlp.domain if with_domain_tag else None, enc=enc)
        loss = float(forward_loss(model, batch, enc=enc).data)
    if counts is None:
        # the pretrained backbone counts as fully trained once (ratio 1)
        counts = (model.param_count(), 1.0)
    record = MetricsRecord(dlp=dlp, strategy=strategy, bleu=corpus_bleu(hyps, refs),
                           chrf=chrf(hyps, refs), loss=loss,
                           trainable_params=counts[0], trainable_ratio=counts[1],
                           wall_time=wall_time, note=note)
    record.validate()
    return record


# ---------------------------------------------------------------------------
# strategy training + adaptation runs
# ---------------------------------------------------------------------------

def train_strategies(strategies: list[str], mc: ModelConfig, ac: AdapterConfig,
                     vocab: Vocab, backbone: dict[str, np.ndarray],
                     datasets: dict[DlpId, DlpDataset], cfg: MetaConfig,
                     max_steps: int | None = None,
                     ) -> tuple[dict[str, Components], dict[str, list[dict]]]:
    """Run stage one for each strategy that has one, on a model built with
    the strategy's `STRATEGIES` adapter groups; returns each one's artifact
    and meta-training log, keyed by strategy."""
    trained: dict[str, Components] = {}
    logs: dict[str, list[dict]] = {}
    for strategy in strategies:
        setup = STRATEGIES.get(strategy)
        if setup is None:
            raise InputError(f"train_strategies: unknown strategy '{strategy}'")
        if setup.stage_one is None:
            continue
        model = build_model(mc, ac, seed=hash_seed(cfg.seed, 50),
                            adapter_groups=setup.adapter_groups)
        restore_params(model, backbone)
        trained[strategy], logs[strategy] = train_stage_one(strategy, model, vocab, datasets,
                                                            cfg, max_steps=max_steps)
    return trained, logs


def adapt_and_evaluate(strategy: str, dlp: DlpId, dataset: DlpDataset, *,
                       mc: ModelConfig, ac: AdapterConfig, vocab: Vocab,
                       backbone: dict[str, np.ndarray], trained: dict[str, Components],
                       budget: AdaptBudget, run_seed: int, max_len: int) -> MetricsRecord:
    """Adapt one strategy to one held-out DLP under the shared budget, starting
    from its stage-one artifact in `trained`, then score it on the DLP's test
    split."""
    t0 = time.perf_counter()
    setup = STRATEGIES.get(strategy)
    if setup is None:
        raise InputError(f"adapt_and_evaluate: unknown strategy '{strategy}'")
    if setup.stage_one is not None and strategy not in trained:
        raise InputError(f"adapt_and_evaluate: {strategy} snapshot missing")
    model = build_model(mc, ac, seed=hash_seed(run_seed, 51), adapter_groups=setup.adapter_groups)
    restore_params(model, backbone)
    adapter_sets = None
    if setup.stage_one == "stack":
        install_stack(model, trained[strategy], dlp, seed=run_seed)
        adapter_sets = len(trained[strategy])
    elif setup.stage_one is not None:
        restore_params(model, trained[strategy][setup.component])
    trainable = setup.trains(model)
    if trainable:
        meta_adapt(model, vocab, snapshot_params(model, trainable), dlp, dataset.adapt,
                   budget.settings, epochs=budget.epochs, batch_size=budget.batch_size,
                   seed=run_seed, with_domain_tag=setup.with_domain_tag,
                   max_steps=budget.max_steps)
    model.set_trainable(trainable)
    counts = count_trainable(model, adapter_sets) if trainable else None
    return evaluate_dlp(model, vocab, dlp, dataset.test, strategy, max_len,
                        with_domain_tag=setup.with_domain_tag, counts=counts,
                        wall_time=time.perf_counter() - t0, note=setup.note)


def compare_strategies(strategies: list[str], heldout: dict[DlpId, DlpDataset],
                       **setup) -> list[MetricsRecord]:
    """Stage two: `adapt_and_evaluate` every strategy on every held-out DLP,
    DLPs in sorted order; `setup` holds its keyword arguments."""
    return [adapt_and_evaluate(strategy, dlp, heldout[dlp], **setup)
            for dlp in sorted(heldout) for strategy in strategies]


# ---------------------------------------------------------------------------
# hyperparameter sweep harness
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ["m", "k", "beta", "tau", "n", "mean_bleu", "best"]


def hyperparam_sweep(grid: list[dict], base_cfg: MetaConfig, *, mc: ModelConfig,
                     ac: AdapterConfig, vocab: Vocab, backbone: dict[str, np.ndarray],
                     meta_datasets: dict[DlpId, DlpDataset],
                     heldout: dict[DlpId, DlpDataset], budget: AdaptBudget,
                     max_len: int) -> list[dict]:
    """One meta-train + adapt + evaluate run per grid point; returns rows with
    the varied values, the mean held-out BLEU, and a best-row flag."""
    if not grid:
        raise InputError("hyperparam_sweep: empty grid")
    rows = []
    for point in grid:
        cfg = replace(base_cfg, **point)
        rows.append(_sweep_run(point, cfg, mc, ac, vocab, backbone,
                               meta_datasets, heldout, budget, max_len))
    best = max(range(len(rows)), key=lambda i: rows[i]["mean_bleu"])
    for i, row in enumerate(rows):
        row["best"] = i == best
    return rows


def _sweep_run(point: dict, cfg: MetaConfig, mc, ac, vocab, backbone,
               meta_datasets, heldout, budget, max_len) -> dict:
    trained, _ = train_strategies([STRATEGY_META_ADAPTER], mc, ac, vocab, backbone,
                                  meta_datasets, cfg)
    bleus = [rec.bleu for rec in compare_strategies(
        [STRATEGY_META_ADAPTER], heldout, mc=mc, ac=ac, vocab=vocab, backbone=backbone,
        trained=trained, budget=budget, run_seed=cfg.seed, max_len=max_len)]
    row = {"m": cfg.m, "k": cfg.k, "beta": cfg.beta, "tau": cfg.tau, "n": cfg.n,
           "mean_bleu": sum(bleus) / len(bleus), "best": False}
    row.update({k: v for k, v in point.items() if k not in row})
    return row


def write_sweep(rows: list[dict], path: str | Path) -> None:
    write_csv(path, SWEEP_COLUMNS, ([row["m"], row["k"], row["beta"],
                                     "inf" if row["tau"] == float("inf") else row["tau"],
                                     row["n"], f"{row['mean_bleu']:.4f}", str(row["best"]).lower()]
                                    for row in rows))


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def write_manifest(out_dir: str | Path, config: dict) -> None:
    from . import __version__

    write_json(Path(out_dir) / "manifest.json",
               {"config": config, "seed": config["seed"], "code_version": __version__})
