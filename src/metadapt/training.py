"""Reptile meta-training, meta-adaptation, and stage one of every strategy.

Inner loops always run from a copy of the current shared parameters with a
fresh optimizer per task (the optimizer *settings* are shared, its moment
state is not). All rng streams are derived from (seed, meta-batch, task), so
runs are reproducible and the inner loops are order-independent: meta_train
runs each meta-batch's loops on up to min(m, available CPUs) processes, and
the result is the same bit for bit on any count. Supervised training
(`supervised_train`, which `meta_adapt` calls too) cuts each batch into
SHARDS fixed row shards with their own rng streams and runs them on up to
min(SHARDS, available CPUs) processes, which also split the optimizer step
between them, again with the same bits on any count.
"""

from __future__ import annotations

import math
import mmap
import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import tensor as T
from .corpus import Vocab
from .errors import InputError, NumericError, StateError
from .forkpool import ForkPool
from .model import (
    AdapterConfig,
    Batch,
    ModelConfig,
    TranslationModel,
    add_adapter_group,
    build_model,
    forward_loss,
    hash_seed,
    load_adapter_group,
    make_batch,
    make_mixed_batch,
    read_adapter_group,
    remove_adapter_group,
    restore_params,
    snapshot_params,
)
from .optim import AdamW, OptimizerSettings
from .rules import Rule, check
from .tasks import DlpDataset, DlpId, SamplingPlan, SentencePair, build_episode, sample_dlps

#: Meta-training stops once the pooled per-epoch query loss has not improved
#: for this many epochs.
EARLY_STOP_PATIENCE = 3

#: Rows per batch of every supervised stage one (`train_stage_one`).
STAGE_ONE_BATCH = 16


@dataclass(frozen=True)
class MetaConfig:
    """Meta-training knobs; defaults follow the tuned setting m=8, k=3,
    beta=1.0, tau=1 with 3 meta-epochs. The adaptation stage's budget is
    `pipeline.AdaptBudget`."""

    m: int = 8
    n: int = 8
    q: int = 8
    k: int = 3
    beta: float = 1.0
    tau: float = 1.0
    epochs: int = 3
    seed: int = 0
    inner: OptimizerSettings = field(default_factory=OptimizerSettings)
    max_meta_batches: int | None = None
    sample_with_replacement: bool = False

    RULES = {**dict.fromkeys(("m", "n", "k", "epochs"), Rule("a whole number", "at least 1")),
             **dict.fromkeys(("q", "seed"), Rule("a whole number", "non-negative")),
             "beta": Rule("a number", "in (0, 1]"), "tau": Rule('a number or "inf"', "positive"),
             "max_meta_batches": Rule("a whole number", "at least 1", null=True),
             "sample_with_replacement": Rule("true or false")}

    def __post_init__(self):
        check(self.RULES, vars(self), "meta config: {}")


@dataclass
class AdapterSnapshot:
    """Named tensor map matching a model's adapter layout."""

    tensors: dict[str, np.ndarray]


#: Stage one's artifact of one strategy: component name -> parameter map.
Components = dict[str, dict[str, np.ndarray]]

# strategy names the code refers to directly; every other one lives in STRATEGIES
STRATEGY_BACKBONE = "backbone"
STRATEGY_META_ADAPTER = "meta_adapter"
STRATEGY_RANDOM_ADAPTER = "random_adapter"


@dataclass(frozen=True)
class StrategySetup:
    """What both stages know of one strategy. `component` says what it
    trains, `trains(model)`: the adapters ("adapter"), every parameter
    ("model") or nothing (""); it also names stage one's artifact. Both
    stages build their model with `model`, over the pretrained backbone.
    `stage_one` says how stage one trains that set on the
    meta-training registry: not at all (None), the Reptile loop ("meta"),
    pooled mixed-batch training ("supervised"), or one adapter per language
    pair and one per domain ("stack", an artifact of one component per
    adapter it trained), and every record carries `note`. Stage two starts
    from that artifact and fine-tunes `trains(model)` under the shared
    budget; with an empty set the model is scored as is, and the pretrained
    backbone counts as fully trained once. The domain tag is prepended in
    both stages when `with_domain_tag`."""

    component: Literal["adapter", "model", ""]
    stage_one: Literal["meta", "supervised", "stack"] | None = None
    with_domain_tag: bool = False
    note: str = ""

    @property
    def adapter_groups(self) -> tuple[str, ...]:
        return ("main",) if self.component == "adapter" and self.stage_one != "stack" else ()

    def model(self, mc: ModelConfig, ac: AdapterConfig, backbone: dict[str, np.ndarray],
              seed: int) -> TranslationModel:
        """A model with this row's adapter groups, initialized from `seed`,
        holding the pretrained `backbone`."""
        model = build_model(mc, ac, seed=seed, adapter_groups=self.adapter_groups)
        restore_params(model, backbone)
        return model

    def trains(self, model: TranslationModel) -> list[str]:
        if self.component == "model":
            return list(model.params)
        return model.adapter_names() if self.component == "adapter" else []


STRATEGIES: dict[str, StrategySetup] = {
    STRATEGY_BACKBONE: StrategySetup(""),
    STRATEGY_META_ADAPTER: StrategySetup("adapter", "meta"),
    STRATEGY_RANDOM_ADAPTER: StrategySetup("adapter"),
    "agnostic_adapter": StrategySetup("adapter", "supervised"),
    "full_ft": StrategySetup("model", "supervised"),
    "tag_ft": StrategySetup("model", "supervised", with_domain_tag=True),
    "full_model_meta": StrategySetup("model", "meta",
                                     note="first-order meta-learning over all parameters"),
    "stack_adapter": StrategySetup(
        "adapter", "stack", note="language-pair adapter then domain adapter, stacked in sequence"),
}


# ---------------------------------------------------------------------------
# rng stream derivation (exposed so replay oracles can reproduce the loop)
# ---------------------------------------------------------------------------

def sample_stream(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 11, step]))


def episode_stream(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 12, step]))


def inner_stream(seed: int, step: int, task_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 13, step, task_index]))


# ---------------------------------------------------------------------------
# supervised steps over fixed row shards
# ---------------------------------------------------------------------------

#: Row shards of every supervised batch, whatever the CPU count: each shard's
#: rows, dropout stream and gradient are the same on any machine, so the
#: result is too (README, "Design notes").
SHARDS = 2


def shard_stream(seed: int, stream: int, epoch: int, step: int,
                 shard: int) -> np.random.Generator:
    """Dropout masks of one row shard of one supervised step."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, epoch, step, shard]))


def _finite(value: float, step: int) -> float:
    if not math.isfinite(value):
        raise NumericError(f"training diverged at step {step}: loss={value}")
    return value


class _Shards:
    """One supervised run's row shards and its partitioned update, on the
    ForkPool that `run` is mapped through: shard s of every batch runs on
    process s mod P, and so does update part h, for SHARDS items each. Every
    trainable value, and every shard's gradient, lives in one anonymous
    shared mmap made before the fork: row 0 holds the values, row 1 + s
    shard s's gradient. Part h, a span of about 1/SHARDS of the values that
    splits no parameter, is stepped by its own AdamW on its process alone,
    in place in row 0 (ZeRO stage 1, Rajbhandari et al., arXiv:1910.02054).
    Only row indices, each shard's loss and gold-token count, and the shard
    weights cross a pipe. A trained parameter's gradient is always a view
    of a shard's row, so the run allocates no gradient of its own for it;
    `release` drops those views."""

    def __init__(self, model: TranslationModel, trainable: list[str], make,
                 settings: OptimizerSettings):
        self._model = model
        self._make = make
        self._settings = settings
        self._params = {n: model.params[n] for n in trainable}
        total = sum(p.size for p in self._params.values())
        try:
            shared = mmap.mmap(-1, max(8, 8 * (SHARDS + 1) * total))
        except OSError as exc:  # the system's limit, not the data
            raise StateError(f"supervised training: could not map the shared values "
                             f"({exc})") from exc
        self._buf = np.frombuffer(shared, dtype=np.float64, count=(SHARDS + 1) * total
                                  ).reshape(SHARDS + 1, total)
        self._rows = [self._split(row) for row in self._buf]
        for name, value in self._rows[0].items():
            value[...] = self._params[name].data
        self._point_grads(1)
        model.set_trainable(trainable)  # every trained gradient is set, so none is allocated
        # part h spans the parameters whose first value lies in
        # [h, h + 1) * total / SHARDS
        starts = np.cumsum([0] + [p.size for p in self._params.values()])[:-1]
        cuts = [next((int(at) for at in starts if SHARDS * at >= h * total), total)
                for h in range(SHARDS)] + [total]
        self._parts = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        self._opts: dict[int, AdamW] = {}  # this process's parts' optimizers
        self._restored = None  # the step whose row 0 this process last copied

    def _point_grads(self, row: int) -> None:
        """Make each trained parameter's gradient its view of buffer row `row`."""
        for name, grad in self._rows[row].items():
            self._params[name].grad = grad

    def _split(self, row: np.ndarray) -> dict[str, np.ndarray]:
        views = {}
        lo = 0
        for name, p in self._params.items():
            views[name] = row[lo : lo + p.size].reshape(p.shape)
            lo += p.size
        return views

    def run(self, key: tuple[int, ...], weights, item):
        """One item of the step `key`, (seed, stream, epoch, step). With no
        `weights`, item = (shard, rows): that shard's loss and gold-token
        count, with its gradient in the shard's row. Else item = part h:
        its update, with `weights` the (shard, weight) pairs."""
        if weights is None:
            return self._shard(key, *item)
        self._update(key[3], weights, item)

    def _shard(self, key: tuple[int, ...], shard: int, rows: np.ndarray) -> tuple[float, float]:
        if key != self._restored:  # row 0 changes only in the updates between steps
            self.restore()
            self._restored = key
        batch = self._make(rows)
        # backward accumulates into each grad in place, so pointing every
        # grad at the shard's row of the buffer writes the gradient there
        self._buf[1 + shard].fill(0.0)
        self._point_grads(1 + shard)
        with T.use_tape(T.Tape()):
            loss = forward_loss(self._model, batch, rng=shard_stream(*key, shard))
            T.backward(loss)
        return float(loss.data), float(batch.gold_mask.sum())

    def _update(self, step: int, weights: list[tuple[int, float]], part: int) -> None:
        """Part `part` of the weighted gradient, the shards' gradients
        weighted by their share of the gold tokens and summed in shard
        order, and one step of the part's AdamW, fresh each epoch, over its
        span of row 0 as one flat tensor. The summed gradient is dropped once
        the step has read it."""
        span = self._parts[part]
        if step == 0:
            self._opts[part] = AdamW({"values": T.Tensor(self._buf[0, span], requires_grad=True)},
                                     self._settings)
        opt = self._opts[part]
        opt.params["values"].grad = sum(w * self._buf[1 + s, span] for s, w in weights)
        opt.step()
        opt.params["values"].grad = None

    def gradients(self, pool: ForkPool, key: tuple[int, ...],
                  rows: np.ndarray) -> tuple[float, list[tuple[int, float]]]:
        """The loss of the batch of `rows`, the shards' losses weighted by
        their share of the gold tokens, and those (shard, weight) pairs, in
        shard order; each shard's gradient is left in its row."""
        jobs = [(s, part) for s, part in enumerate(np.array_split(rows, SHARDS)) if part.size]
        results = pool.map((key, None), jobs)
        gold = sum(count for _, count in results)
        weights = [(s, count / gold) for (s, _), (_, count) in zip(jobs, results)]
        return sum(w * loss for (_, w), (loss, _) in zip(weights, results)), weights

    def restore(self) -> None:
        """Copy the values row into the model's parameters."""
        restore_params(self._model, self._rows[0])

    def release(self) -> None:
        """Leave no trained parameter with a gradient: each one's was a view
        of the shared buffer."""
        for p in self._params.values():
            p.grad = None


def supervised_train(model: TranslationModel, vocab: Vocab,
                     rows: list[tuple[DlpId, SentencePair]], settings: OptimizerSettings,
                     epochs: int, batch_size: int, seed: int, trainable: list[str],
                     with_domain_tag: bool = False, max_steps: int | None = None,
                     stream: int = 31) -> list[float]:
    """Epochs of one optimizer step per `make_mixed_batch` of (DLP, pair)
    rows, the one supervised training loop: pretraining and the supervised
    stage ones run it with stream 31, `meta_adapt` with stream 21. Epoch e's
    order is the first permutation drawn from SeedSequence([seed, stream,
    e]); each batch's gradient and update run on its _Shards, whose update
    parts start a fresh AdamW every epoch. No epoch starts once the
    max_steps budget is spent; the model holds the trained values when this
    returns, and no trained parameter holds a gradient."""
    if not rows:
        raise InputError("supervised_train: no training rows")
    if batch_size < 1:
        raise InputError(f"batch_size must be at least 1, got {batch_size}")
    T.keep_freed_heap()  # before the fork, so the shard processes keep it too

    def make(indices) -> Batch:
        return make_mixed_batch([rows[i] for i in indices], vocab,
                                with_domain_tag=with_domain_tag)

    shards = _Shards(model, trainable, make, settings)
    losses: list[float] = []
    try:
        with ForkPool(shards.run, SHARDS, "supervised training: shard") as pool:
            for epoch in range(epochs):
                remaining = None if max_steps is None else max_steps - len(losses)
                if remaining is not None and remaining <= 0:
                    break
                order = np.random.default_rng(np.random.SeedSequence([seed, stream, epoch])
                                              ).permutation(len(rows))
                for step, lo in enumerate(range(0, len(rows), batch_size)[:remaining]):
                    key = (seed, stream, epoch, step)
                    loss, weights = shards.gradients(pool, key, order[lo : lo + batch_size])
                    losses.append(_finite(loss, step))
                    pool.map((key, weights), range(SHARDS))  # every update part
    finally:
        shards.release()
    shards.restore()
    return losses


# ---------------------------------------------------------------------------
# inner loop and Reptile update
# ---------------------------------------------------------------------------

def inner_adapt(model: TranslationModel, vocab: Vocab, start: dict[str, np.ndarray],
                dlp: DlpId, support: list[SentencePair], k: int,
                settings: OptimizerSettings, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """k gradient updates of the parameters `start` names, from its values, on
    the support set; returns the updated parameter map. One batch holds the
    whole support (batch size = n). The optimizer state is fresh for every call."""
    if k < 1:
        raise InputError("inner_adapt: k must be >= 1")
    if not support:
        raise InputError("inner_adapt: empty support set")
    trainable = list(start)
    restore_params(model, start)
    model.set_trainable(trainable)
    batch = make_batch(list(support), vocab, dlp)
    opt = AdamW({n: model.params[n] for n in trainable}, settings)
    for step in range(k):
        loss = forward_loss(model, batch, rng=rng)
        _finite(float(loss.data), step)
        T.backward(loss)
        opt.step()
    return snapshot_params(model, trainable)


def reptile_step(base: dict[str, np.ndarray], results: list[dict[str, np.ndarray]],
                 beta: float) -> dict[str, np.ndarray]:
    """base + (beta / m) * sum_i (result_i - base); pure function."""
    if not results:
        raise InputError("reptile_step: need at least one inner result")
    for res in results:
        if set(res) != set(base):
            raise StateError("reptile_step: snapshot layouts differ")
    m = len(results)
    out = {}
    for name, value in base.items():
        delta = np.zeros_like(value)
        for res in results:
            if res[name].shape != value.shape:
                raise StateError(f"reptile_step: shape mismatch at '{name}'")
            delta += res[name] - value
        out[name] = value + (beta / m) * delta
    return out


# ---------------------------------------------------------------------------
# meta-training
# ---------------------------------------------------------------------------

def meta_batches_per_epoch(datasets: dict[DlpId, DlpDataset], cfg: MetaConfig) -> int:
    """One epoch = enough meta-batches that expected sentence draws cover the
    pooled training data once."""
    pooled = sum(len(ds.train) for ds in datasets.values())
    return max(1, math.ceil(pooled / (cfg.m * (cfg.n + cfg.q))))


def meta_train(model: TranslationModel, vocab: Vocab, datasets: dict[DlpId, DlpDataset],
               cfg: MetaConfig, trainable: list[str] | None = None,
               ) -> tuple[AdapterSnapshot, list[dict]]:
    """Reptile meta-training over the DLP registry.

    Per meta-batch: sample m DLPs from the temperature multinomial, run the
    k-step inner loop per task from the current shared parameters, apply the
    Reptile update, and log the post-update query losses. Early-stops when
    the pooled per-epoch query loss fails to improve for
    EARLY_STOP_PATIENCE epochs. Batches carry no domain tag.
    """
    if not datasets:
        raise InputError("meta_train: empty DLP registry")
    T.keep_freed_heap()  # before the fork, so the inner-loop processes keep it too
    if trainable is None:
        trainable = model.adapter_names()
        if not trainable:
            raise StateError("meta_train: model has no adapter parameters")
    model.set_trainable(trainable)
    replace_mode = cfg.sample_with_replacement or cfg.m > len(datasets)
    plan = SamplingPlan.build(datasets, cfg.tau)
    per_epoch = meta_batches_per_epoch(datasets, cfg)
    log: list[dict] = []
    step = 0
    best_epoch_loss = math.inf
    stale_epochs = 0
    shared = snapshot_params(model, trainable)

    def run_task(start, meta_step, job):
        t_idx, task = job
        adapted = inner_adapt(model, vocab, start, task.dlp, list(task.support), cfg.k,
                              cfg.inner, inner_stream(cfg.seed, meta_step, t_idx))
        if not task.query:
            return adapted, None
        with T.no_grad():
            return adapted, float(forward_loss(
                model, make_batch(list(task.query), vocab, task.dlp)).data)

    # workers inherit the model, vocabulary and datasets; each task starts
    # from the `shared` it is sent, with its own rng stream and optimizer,
    # and nothing outside `shared` changes while the pool is open
    with ForkPool(run_task, cfg.m, "meta_train: inner-loop") as inner_loops:
        for epoch in range(cfg.epochs):
            epoch_losses: list[float] = []
            for _ in range(per_epoch):
                if cfg.max_meta_batches is not None and step >= cfg.max_meta_batches:
                    break
                t0 = time.perf_counter()
                dlps = sample_dlps(plan, cfg.m, sample_stream(cfg.seed, step),
                                   replace=replace_mode)
                episode = build_episode(dlps, datasets, cfg.n, cfg.q,
                                        episode_stream(cfg.seed, step))
                outcomes = inner_loops.map((shared, step), enumerate(episode.tasks))
                task_losses = {task.dlp.key(): qloss
                               for task, (_, qloss) in zip(episode.tasks, outcomes)
                               if qloss is not None}
                shared = reptile_step(shared, [adapted for adapted, _ in outcomes], cfg.beta)
                restore_params(model, shared)
                batch_loss = (sum(task_losses.values()) / len(task_losses) if task_losses
                              else math.nan)
                epoch_losses.append(batch_loss)
                log.append({"step": step, "epoch": epoch, "meta_batch_loss": batch_loss,
                            "task_losses": task_losses, "wall": time.perf_counter() - t0})
                step += 1
            if epoch_losses and not math.isnan(epoch_losses[0]):
                epoch_loss = sum(epoch_losses) / len(epoch_losses)
                if epoch_loss < best_epoch_loss - 1e-12:
                    best_epoch_loss = epoch_loss
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= EARLY_STOP_PATIENCE:
                        log.append({"step": step, "epoch": epoch, "early_stop": True})
                        break
            if cfg.max_meta_batches is not None and step >= cfg.max_meta_batches:
                break
    return AdapterSnapshot(shared), log


def meta_adapt(model: TranslationModel, vocab: Vocab, start: dict[str, np.ndarray],
               dlp: DlpId, adapt_pairs: list[SentencePair], settings: OptimizerSettings,
               epochs: int = 1, batch_size: int = 16, seed: int = 0, with_domain_tag: bool = False,
               max_steps: int | None = None) -> tuple[dict[str, np.ndarray], list[float]]:
    """Supervised fine-tuning of `start`'s parameters on one target DLP's adapt
    split (default budget: one epoch). Returns the adapted map and per-step losses."""
    if not adapt_pairs:
        raise InputError("meta_adapt: empty adapt split")
    trainable = list(start)
    restore_params(model, start)
    losses = supervised_train(model, vocab, [(dlp, pair) for pair in adapt_pairs], settings,
                              epochs, batch_size, seed, trainable,
                              with_domain_tag=with_domain_tag, max_steps=max_steps, stream=21)
    return snapshot_params(model, trainable), losses


# ---------------------------------------------------------------------------
# stage one of every other strategy
# ---------------------------------------------------------------------------

def pooled_rows(datasets: dict[DlpId, DlpDataset]) -> list[tuple[DlpId, SentencePair]]:
    rows = []
    for dlp in sorted(datasets):
        for pair in datasets[dlp].train:
            rows.append((dlp, pair))
    return rows


def train_stage_one(strategy: str, model: TranslationModel, vocab: Vocab,
                    datasets: dict[DlpId, DlpDataset], cfg: MetaConfig,
                    ) -> tuple[Components, list[dict]]:
    """Stage one of a `STRATEGIES` entry on `model`, built with the entry's
    adapter groups over the backbone: returns the artifact's components and
    the meta-training log (empty unless the entry runs the meta loop). A
    supervised stage one trains cfg.epochs whole epochs."""
    setup = STRATEGIES.get(strategy)
    if setup is None or setup.stage_one is None:
        raise InputError(f"train_stage_one: no stage one for strategy {strategy!r}")
    if setup.stage_one == "stack":
        return _train_stack_adapter(model, vocab, datasets, cfg), []
    trainable = setup.trains(model)
    if not trainable:
        raise StateError(f"{strategy} needs an adapter-equipped model")
    if setup.stage_one == "meta":
        snapshot, log = meta_train(model, vocab, datasets, cfg, trainable=trainable)
        return {setup.component: snapshot.tensors}, log
    supervised_train(model, vocab, pooled_rows(datasets), cfg.inner, cfg.epochs,
                     STAGE_ONE_BATCH, cfg.seed, trainable, with_domain_tag=setup.with_domain_tag)
    return {setup.component: snapshot_params(model, trainable)}, []


def train_strategy(strategy: str, mc: ModelConfig, ac: AdapterConfig, vocab: Vocab,
                   backbone: dict[str, np.ndarray], datasets: dict[DlpId, DlpDataset],
                   cfg: MetaConfig) -> tuple[Components, list[dict]]:
    """`train_stage_one` of `strategy` on its row's model over `backbone`,
    initialized from stream 50 of cfg.seed."""
    setup = STRATEGIES.get(strategy)
    if setup is None:
        raise InputError(f"train_strategy: unknown strategy '{strategy}'")
    model = setup.model(mc, ac, backbone, hash_seed(cfg.seed, 50))
    return train_stage_one(strategy, model, vocab, datasets, cfg)


def _train_stack_adapter(model: TranslationModel, vocab: Vocab,
                         datasets: dict[DlpId, DlpDataset], cfg: MetaConfig) -> Components:
    lang_pairs = sorted({(d.src_lang, d.tgt_lang) for d in datasets})
    domains = sorted({d.domain for d in datasets})
    components: Components = {}

    def train_component(name: str, subset: dict[DlpId, DlpDataset], comp_seed: int) -> None:
        add_adapter_group(model, "stack", seed=comp_seed)
        supervised_train(model, vocab, pooled_rows(subset), cfg.inner, cfg.epochs,
                         STAGE_ONE_BATCH, cfg.seed, model.adapter_names("stack"))
        components[name] = read_adapter_group(model, "stack")
        remove_adapter_group(model, "stack")

    for idx, (src, tgt) in enumerate(lang_pairs):
        subset = {d: ds for d, ds in datasets.items() if (d.src_lang, d.tgt_lang) == (src, tgt)}
        train_component(f"lp:{src}-{tgt}", subset, hash_seed(cfg.seed, 41, idx))
    for idx, domain in enumerate(domains):
        subset = {d: ds for d, ds in datasets.items() if d.domain == domain}
        train_component(f"dom:{domain}", subset, hash_seed(cfg.seed, 42, idx))
    return components


def component_shapes(strategy: str, mc: ModelConfig, ac: AdapterConfig,
                     ) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor that each stage-one component of
    `strategy` holds: the row's `trains(model)`, or one adapter group for a
    stacked row."""
    setup = STRATEGIES[strategy]
    if setup.stage_one == "stack":
        model = build_model(mc, ac, seed=0, adapter_groups=("stack",))
        return {k: v.shape for k, v in read_adapter_group(model, "stack").items()}
    model = build_model(mc, ac, seed=0, adapter_groups=setup.adapter_groups)
    return {n: model.params[n].data.shape for n in setup.trains(model)}


def install_stack(model: TranslationModel, components: Components, dlp: DlpId,
                  seed: int = 0) -> None:
    """Insert the language-pair and domain adapters for `dlp` into `model`,
    which has no adapter groups, in that order, each freshly initialized when
    its component was never trained."""
    wanted = [("lp", f"lp:{dlp.src_lang}-{dlp.tgt_lang}"), ("dom", f"dom:{dlp.domain}")]
    for g_idx, (group, component) in enumerate(wanted):
        add_adapter_group(model, group, seed=hash_seed(seed, 43, g_idx))
        if component in components:
            load_adapter_group(model, group, components[component])
