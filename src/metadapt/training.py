"""Reptile meta-training, meta-adaptation, and stage one of every strategy.

Inner loops always run from a copy of the current shared parameters with a
fresh optimizer per task (the optimizer *settings* are shared, its moment
state is not). All rng streams are derived from (seed, meta-batch, task), so
runs are reproducible and the inner loops are order-independent: meta_train
runs each meta-batch's loops on up to min(m, available CPUs) processes, and
the result is the same bit for bit on any count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from . import tensor as T
from .corpus import Vocab
from .errors import InputError, NumericError, StateError
from .model import (
    AdapterConfig,
    Batch,
    ModelConfig,
    TranslationModel,
    add_adapter_group,
    build_model,
    forward_loss,
    hash_seed,
    make_batch,
    make_mixed_batch,
    remove_adapter_group,
)
from .optim import AdamW, OptimizerSettings
from .tasks import DlpDataset, DlpId, SamplingPlan, SentencePair, build_episode, sample_dlps

#: Meta-training stops once the pooled per-epoch query loss has not improved
#: for this many epochs.
EARLY_STOP_PATIENCE = 3


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

    def __post_init__(self):
        if self.m < 1 or self.k < 1 or self.n < 1 or self.q < 0:
            raise InputError("meta config: need m, k, n >= 1 and q >= 0")
        if not 0.0 < self.beta <= 1.0:
            raise InputError("meta config: beta must lie in (0, 1]")
        if self.epochs < 1:
            raise InputError("meta config: epochs must be >= 1")


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
    """What both stages know of one strategy. Each stage builds its model
    with `adapter_groups` over the pretrained backbone. `stage_one` says how
    stage one trains `trains(model)` on the meta-training registry: not at
    all (None), the Reptile loop ("meta"), pooled mixed-batch training
    ("supervised"), or one adapter per language pair and one per domain
    ("stack"). It stores the result as the artifact's `component` (a stacked
    artifact has one component per adapter it trained), and every record
    carries `note`. Stage two starts from that artifact and fine-tunes
    `trains(model)` under the shared budget; with an empty set the model is
    scored as is, and the pretrained backbone counts as fully trained once.
    The domain tag is prepended in both stages when `with_domain_tag`."""

    adapter_groups: tuple[str, ...]
    trains: Callable[[TranslationModel], list[str]]
    stage_one: Literal["meta", "supervised", "stack"] | None = None
    with_domain_tag: bool = False
    component: str = ""
    note: str = ""


def _all_params(model: TranslationModel) -> list[str]:
    return list(model.params)


STRATEGIES: dict[str, StrategySetup] = {
    STRATEGY_BACKBONE: StrategySetup((), lambda model: []),
    STRATEGY_META_ADAPTER: StrategySetup(("main",), TranslationModel.adapter_names, "meta",
                                         component="adapter"),
    STRATEGY_RANDOM_ADAPTER: StrategySetup(("main",), TranslationModel.adapter_names),
    "agnostic_adapter": StrategySetup(("main",), TranslationModel.adapter_names, "supervised",
                                      component="adapter"),
    "full_ft": StrategySetup((), _all_params, "supervised", component="model"),
    "tag_ft": StrategySetup((), _all_params, "supervised", with_domain_tag=True,
                            component="model"),
    "full_model_meta": StrategySetup((), _all_params, "meta", component="model",
                                     note="first-order meta-learning over all parameters"),
    "stack_adapter": StrategySetup(
        (), TranslationModel.adapter_names, "stack",
        note="language-pair adapter then domain adapter, stacked in sequence"),
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
# parameter snapshots over arbitrary name sets
# ---------------------------------------------------------------------------

def snapshot_params(model: TranslationModel, names: list[str]) -> dict[str, np.ndarray]:
    return {n: model.params[n].data.copy() for n in names}


def restore_params(model: TranslationModel, values: dict[str, np.ndarray]) -> None:
    for name, value in values.items():
        if name not in model.params or model.params[name].data.shape != value.shape:
            raise StateError(f"restore_params: layout mismatch at '{name}'")
        model.params[name].data = value.copy()


# ---------------------------------------------------------------------------
# inner loop and Reptile update
# ---------------------------------------------------------------------------

def _train_steps(model: TranslationModel, batches, settings: OptimizerSettings,
                 rng: np.random.Generator, trainable: list[str]) -> list[float]:
    """Run one optimizer step per batch on the given trainable set."""
    model.set_trainable(trainable)
    opt = AdamW({n: model.params[n] for n in trainable}, settings)
    losses = []
    for step_idx, batch in enumerate(batches):
        loss = forward_loss(model, batch, train=True, rng=rng)
        value = float(loss.data)
        if not math.isfinite(value):
            raise NumericError(f"training diverged at step {step_idx}: loss={value}")
        losses.append(value)
        T.backward(loss)
        opt.step()
    return losses


def _train_epochs(model: TranslationModel, n_rows: int, make, settings: OptimizerSettings,
                  epochs: int, batch_size: int, max_steps: int | None, seed: int,
                  stream: int, trainable: list[str]) -> list[float]:
    """Epochs of one optimizer step per batch over a seeded permutation of
    n_rows rows; `make(indices)` builds the batch of those rows. Epoch e's
    rng is SeedSequence([seed, stream, e]): it draws the permutation, then the
    dropout masks. Only the batches the max_steps budget will use are built,
    and no epoch starts once it is spent."""
    if batch_size < 1:
        raise InputError(f"batch_size must be at least 1, got {batch_size}")
    losses: list[float] = []
    for epoch in range(epochs):
        remaining = None if max_steps is None else max_steps - len(losses)
        if remaining is not None and remaining <= 0:
            break
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream, epoch]))
        order = rng.permutation(n_rows)
        batches = [make(order[lo : lo + batch_size])
                   for lo in range(0, n_rows, batch_size)[:remaining]]
        losses.extend(_train_steps(model, batches, settings, rng, trainable))
    return losses


def inner_adapt(model: TranslationModel, vocab: Vocab, start: dict[str, np.ndarray],
                dlp: DlpId, support: list[SentencePair], k: int,
                settings: OptimizerSettings, rng: np.random.Generator,
                trainable: list[str] | None = None) -> dict[str, np.ndarray]:
    """k gradient updates from `start` on the support set; returns the updated
    parameter map. One batch holds the whole support (batch size = n). The
    optimizer state is fresh for every call."""
    if k < 1:
        raise InputError("inner_adapt: k must be >= 1")
    if not support:
        raise InputError("inner_adapt: empty support set")
    trainable = list(start) if trainable is None else trainable
    restore_params(model, start)
    batch = make_batch(list(support), vocab, dlp)
    _train_steps(model, [batch] * k, settings, rng, trainable)
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


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_jobs(run_task, shared, step, jobs) -> tuple[dict, dict]:
    """Run `jobs`, (task index, task) pairs, in order until one raises:
    returns each finished task's outcome and the failure, keyed by index."""
    done = {}
    for t_idx, task in jobs:
        try:
            done[t_idx] = run_task(shared, step, t_idx, task)
        except Exception as exc:  # shipped to, or raised later by, _InnerLoops.run
            return done, {t_idx: exc}
    return done, {}


def _serve(conn, run_task, inherited) -> None:
    """A worker's loop: answer each (shared, step, jobs) with _run_jobs'
    result until the caller closes its end of the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C and closes the pipe
    for other in inherited:  # else a pipe would stay open after the caller died
        other.close()
    try:
        while True:
            conn.send(_run_jobs(run_task, *conn.recv()))
    except (EOFError, OSError):
        return


class _InnerLoops:
    """Runs the tasks of each meta-batch on this process and `workers` forked
    processes, task t on process t mod (workers + 1), this one being 0.

    Fork, not spawn: a worker must inherit the model, vocabulary, datasets
    and any module global a caller has patched, and no parameter outside
    the shared ones changes while meta_train runs. Each task starts from
    the `shared` it is sent, with its own rng stream and optimizer, so where
    it runs does not change a bit of its outcome."""

    def __init__(self, run_task, workers: int):
        self._run_task = run_task
        self._workers = []  # (process, this end of its pipe)
        ctx = multiprocessing.get_context("fork") if workers else None
        try:
            for _ in range(workers):
                conn, child = ctx.Pipe()
                inherited = [c for _, c in self._workers] + [conn]
                proc = ctx.Process(target=_serve, args=(child, run_task, inherited),
                                   daemon=True)
                self._workers.append((proc, conn))
                proc.start()
                child.close()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_InnerLoops":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, shared, step: int, tasks) -> list[tuple[dict[str, np.ndarray], float | None]]:
        """Each task's (adapted parameters, query loss or None), in task
        order. When tasks fail, the first failure in task order is raised, as
        in a serial loop."""
        jobs = list(enumerate(tasks))
        stride = len(self._workers) + 1
        for w, (_, conn) in enumerate(self._workers, start=1):
            try:
                conn.send((shared, step, jobs[w::stride]))
            except OSError:  # the worker is gone; reading its reply below says so
                pass
        done, failed = _run_jobs(self._run_task, shared, step, jobs[::stride])
        for proc, conn in self._workers:
            try:
                their_done, their_failed = conn.recv()
            except (EOFError, OSError):
                raise StateError(f"meta_train: inner-loop worker {proc.pid} exited "
                                 f"mid meta-batch") from None
            done.update(their_done)
            failed.update(their_failed)
        if failed:
            raise failed[min(failed)]
        return [done[t_idx] for t_idx, _ in jobs]

    def close(self) -> None:
        """Close every pipe and end every worker."""
        for _, conn in self._workers:
            conn.close()
        for proc, _ in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._workers = []


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

    def run_task(start, meta_step, t_idx, task):
        adapted = inner_adapt(model, vocab, start, task.dlp, list(task.support), cfg.k,
                              cfg.inner, inner_stream(cfg.seed, meta_step, t_idx),
                              trainable=trainable)
        if not task.query:
            return adapted, None
        with T.no_grad():
            return adapted, float(forward_loss(
                model, make_batch(list(task.query), vocab, task.dlp)).data)

    with _InnerLoops(run_task, min(cfg.m, _available_cpus()) - 1) as inner_loops:
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
                outcomes = inner_loops.run(shared, step, episode.tasks)
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
               epochs: int = 1, batch_size: int = 16, seed: int = 0,
               trainable: list[str] | None = None, with_domain_tag: bool = False,
               max_steps: int | None = None) -> tuple[dict[str, np.ndarray], list[float]]:
    """Supervised fine-tuning of `start` on one target DLP's adapt split
    (default budget: one epoch). Returns the adapted map and per-step losses."""
    if not adapt_pairs:
        raise InputError("meta_adapt: empty adapt split")
    trainable = list(start) if trainable is None else trainable
    restore_params(model, start)

    def make(indices) -> Batch:
        return make_batch([adapt_pairs[i] for i in indices], vocab, dlp,
                          with_domain_tag=with_domain_tag)

    losses = _train_epochs(model, len(adapt_pairs), make, settings, epochs, batch_size,
                           max_steps, seed, 21, trainable)
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


def supervised_train(model: TranslationModel, vocab: Vocab,
                     rows: list[tuple[DlpId, SentencePair]], settings: OptimizerSettings,
                     epochs: int, batch_size: int, seed: int, trainable: list[str],
                     with_domain_tag: bool = False, max_steps: int | None = None,
                     extra_prefix_ids: tuple[int, ...] = ()) -> list[float]:
    """Plain mixed-batch training over pooled rows (used by the FT and
    agnostic-adapter baselines)."""
    if not rows:
        raise InputError("supervised_train: no training rows")

    def make(indices) -> Batch:
        return make_mixed_batch([rows[i] for i in indices], vocab,
                                with_domain_tag=with_domain_tag,
                                extra_prefix_ids=extra_prefix_ids)

    return _train_epochs(model, len(rows), make, settings, epochs, batch_size, max_steps,
                         seed, 31, trainable)


def train_stage_one(strategy: str, model: TranslationModel, vocab: Vocab,
                    datasets: dict[DlpId, DlpDataset], cfg: MetaConfig, batch_size: int = 16,
                    max_steps: int | None = None) -> tuple[Components, list[dict]]:
    """Stage one of a `STRATEGIES` entry on `model`, built with the entry's
    adapter groups over the backbone: returns the artifact's components and
    the meta-training log (empty unless the entry runs the meta loop, which
    `max_steps` does not cut)."""
    setup = STRATEGIES.get(strategy)
    if setup is None or setup.stage_one is None:
        raise InputError(f"train_stage_one: no stage one for strategy {strategy!r}")
    if setup.stage_one == "stack":
        return _train_stack_adapter(model, vocab, datasets, cfg, batch_size, max_steps), []
    trainable = setup.trains(model)
    if not trainable:
        raise StateError(f"{strategy} needs an adapter-equipped model")
    if setup.stage_one == "meta":
        snapshot, log = meta_train(model, vocab, datasets, cfg, trainable=trainable)
        return {setup.component: snapshot.tensors}, log
    supervised_train(model, vocab, pooled_rows(datasets), cfg.inner, cfg.epochs, batch_size,
                     cfg.seed, trainable, with_domain_tag=setup.with_domain_tag,
                     max_steps=max_steps)
    return {setup.component: snapshot_params(model, trainable)}, []


def _train_stack_adapter(model: TranslationModel, vocab: Vocab,
                         datasets: dict[DlpId, DlpDataset], cfg: MetaConfig,
                         batch_size: int, max_steps: int | None) -> Components:
    lang_pairs = sorted({(d.src_lang, d.tgt_lang) for d in datasets})
    domains = sorted({d.domain for d in datasets})
    components: Components = {}

    def train_component(name: str, subset: dict[DlpId, DlpDataset], comp_seed: int) -> None:
        for group in list(model.adapter_groups):
            remove_adapter_group(model, group)
        add_adapter_group(model, "stack", seed=comp_seed)
        trainable = model.adapter_names("stack")
        supervised_train(model, vocab, pooled_rows(subset), cfg.inner, cfg.epochs,
                         batch_size, cfg.seed, trainable, max_steps=max_steps)
        components[name] = {_stack_key(k): v
                            for k, v in snapshot_params(model, trainable).items()}

    for idx, (src, tgt) in enumerate(lang_pairs):
        subset = {d: ds for d, ds in datasets.items() if (d.src_lang, d.tgt_lang) == (src, tgt)}
        train_component(f"lp:{src}-{tgt}", subset, hash_seed(cfg.seed, 41, idx))
    for idx, domain in enumerate(domains):
        subset = {d: ds for d, ds in datasets.items() if d.domain == domain}
        train_component(f"dom:{domain}", subset, hash_seed(cfg.seed, 42, idx))
    for group in list(model.adapter_groups):
        remove_adapter_group(model, group)
    return components


def _stack_key(name: str) -> str:
    """A stacked component stores its adapter group-agnostically, keyed
    "<side>/<layer>/<param>"."""
    return name.replace("/adapter/stack", "")


def component_shapes(strategy: str, mc: ModelConfig, ac: AdapterConfig,
                     ) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor that each stage-one component of
    `strategy` holds: the row's `trains(model)`, or one adapter group for a
    stacked row."""
    setup = STRATEGIES[strategy]
    if setup.stage_one == "stack":
        model = build_model(mc, ac, seed=0, adapter_groups=("stack",))
        return {_stack_key(n): model.params[n].data.shape for n in model.adapter_names()}
    model = build_model(mc, ac, seed=0, adapter_groups=setup.adapter_groups)
    return {n: model.params[n].data.shape for n in setup.trains(model)}


def install_stack(model: TranslationModel, components: Components, dlp: DlpId,
                  seed: int = 0) -> list[str]:
    """Insert the language-pair and domain adapters for `dlp` (freshly
    initialized when that component was never trained), returning the
    trainable adapter names in stack order."""
    for group in list(model.adapter_groups):
        remove_adapter_group(model, group)
    wanted = [("lp", f"lp:{dlp.src_lang}-{dlp.tgt_lang}"), ("dom", f"dom:{dlp.domain}")]
    for g_idx, (group, component) in enumerate(wanted):
        add_adapter_group(model, group, seed=hash_seed(seed, 43, g_idx))
        if component in components:
            for key, value in components[component].items():
                side, layer, param = key.split("/")
                model.params[f"{side}/{layer}/adapter/{group}/{param}"].data = value.copy()
    return model.adapter_names()
