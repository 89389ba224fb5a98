import multiprocessing
import os
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from metadapt import pipeline
from metadapt import tensor as T
from metadapt import training
from metadapt.corpus import Vocab, load_datasets
from metadapt.errors import InputError, NumericError, StateError
from metadapt.forkpool import ForkPool, available_cpus
from metadapt import model as model_module
from metadapt.model import (
    AdapterConfig,
    ModelConfig,
    add_adapter_group,
    build_model,
    forward_loss,
    make_batch,
    make_mixed_batch,
    set_adapter_params,
)
from metadapt.optim import AdamW, OptimizerSettings
from metadapt.training import (
    STRATEGIES,
    MetaConfig,
    build_episode,
    component_shapes,
    episode_stream,
    inner_adapt,
    inner_stream,
    install_stack,
    meta_adapt,
    meta_train,
    reptile_step,
    restore_params,
    snapshot_params,
    supervised_train,
    train_stage_one,
)

from conftest import on_cpus


@pytest.fixture(scope="module")
def world(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    meta_ids = [r.dlp for r in tiny_registry.by_role("meta_train")]
    datasets = load_datasets(tiny_registry, meta_ids)
    return tiny_registry, vocab, datasets


def small_model(vocab, seed=0, dropout=0.0, groups=("main",)):
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=dropout)
    return build_model(mc, AdapterConfig(bottleneck_dim=4), seed=seed, adapter_groups=groups)


def small_cfg(**overrides):
    base = dict(m=2, n=4, q=2, k=2, beta=1.0, tau=1.0, epochs=1, seed=0,
                inner=OptimizerSettings(lr=1e-3), max_meta_batches=3)
    base.update(overrides)
    return MetaConfig(**base)


# --- reptile_step ---------------------------------------------------------------

def test_reptile_fixed_point():
    base = {"a": np.array([1.0, 2.0])}
    out = reptile_step(base, [dict(base), dict(base), dict(base)], beta=0.7)
    assert np.array_equal(out["a"], base["a"])


def test_reptile_interpolation_endpoint():
    base = {"a": np.array([0.0, 0.0])}
    res = {"a": np.array([3.0, -1.0])}
    out = reptile_step(base, [res], beta=1.0)
    np.testing.assert_allclose(out["a"], res["a"], atol=1e-15)


def test_reptile_hand_arithmetic():
    base = {"a": np.array([0.0, 0.0])}
    results = [{"a": np.array([1.0, 0.0])}, {"a": np.array([0.0, 1.0])}]
    out = reptile_step(base, results, beta=1.0)
    np.testing.assert_allclose(out["a"], [0.5, 0.5], atol=1e-15)


def test_reptile_layout_mismatch_is_state_error():
    with pytest.raises(StateError):
        reptile_step({"a": np.zeros(2)}, [{"b": np.zeros(2)}], beta=1.0)


def test_reptile_convex_hull_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        base = {"a": rng.normal(size=5)}
        results = [{"a": rng.normal(size=5)} for _ in range(3)]
        beta = rng.uniform(0.05, 1.0)
        out = reptile_step(base, results, beta)
        stacked = np.stack([base["a"]] + [r["a"] for r in results])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        assert np.all(out["a"] >= lo - 1e-12) and np.all(out["a"] <= hi + 1e-12)


# --- inner_adapt -----------------------------------------------------------------

def test_inner_adapt_zero_lr_fixed_point(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    dlp = next(iter(datasets))
    start = snapshot_params(model, model.adapter_names())
    out = inner_adapt(model, vocab, start, dlp, datasets[dlp].train[:4], k=3,
                      settings=OptimizerSettings(lr=0.0), rng=np.random.default_rng(0))
    for name in start:
        assert np.array_equal(out[name], start[name])


def test_inner_adapt_keeps_backbone_frozen(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    dlp = next(iter(datasets))
    checksum = model.backbone_checksum()
    start = snapshot_params(model, model.adapter_names())
    inner_adapt(model, vocab, start, dlp, datasets[dlp].train[:4], k=2,
                settings=OptimizerSettings(lr=1e-2), rng=np.random.default_rng(0))
    assert model.backbone_checksum() == checksum


def test_inner_adapt_k1_matches_manual_replay(world):
    _, vocab, datasets = world
    dlp = next(iter(datasets))
    support = datasets[dlp].train[:4]
    settings = OptimizerSettings(lr=5e-3)

    model = small_model(vocab, seed=3)
    start = snapshot_params(model, model.adapter_names())
    got = inner_adapt(model, vocab, start, dlp, support, k=1, settings=settings,
                      rng=np.random.default_rng(7))

    # manual replay: one forward/backward/step outside the trainer
    model2 = small_model(vocab, seed=3)
    model2.set_trainable(model2.adapter_names())
    batch = make_batch(list(support), vocab, dlp)
    opt = AdamW({n: model2.params[n] for n in model2.adapter_names()}, settings)
    loss = forward_loss(model2, batch, train=True, rng=np.random.default_rng(7))
    T.backward(loss)
    opt.step()
    for name in got:
        assert np.array_equal(got[name], model2.params[name].data)


def test_inner_adapt_empty_support_rejected(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    with pytest.raises(InputError):
        inner_adapt(model, vocab, snapshot_params(model, model.adapter_names()),
                    next(iter(datasets)), [], k=1, settings=OptimizerSettings(),
                    rng=np.random.default_rng(0))


# --- meta_train --------------------------------------------------------------------

def test_meta_train_leaves_backbone_bitwise_unchanged(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    checksum = model.backbone_checksum()
    meta_train(model, vocab, datasets, small_cfg())
    assert model.backbone_checksum() == checksum


def test_meta_train_only_adapters_trainable(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    meta_train(model, vocab, datasets, small_cfg())
    trainable = set(model.trainable_names())
    assert trainable == set(model.adapter_names())


def test_meta_train_deterministic_under_seed(world):
    _, vocab, datasets = world
    snaps = []
    for _ in range(2):
        model = small_model(vocab, seed=5)
        snap, _ = meta_train(model, vocab, datasets, small_cfg(seed=9))
        snaps.append(snap)
    for name in snaps[0].tensors:
        assert np.array_equal(snaps[0].tensors[name], snaps[1].tensors[name])


def test_meta_train_empty_registry_rejected(world):
    _, vocab, _ = world
    model = small_model(vocab)
    with pytest.raises(InputError):
        meta_train(model, vocab, {}, small_cfg())


def test_meta_train_m1_k1_beta1_equals_sequential_fine_tuning(world):
    """Reptile oracle: 20 meta-batches with m=1, k=1, beta=1 coincide with 20
    plain adapter fine-tuning steps (fresh optimizer state per step, matching
    the per-task state reset) to 1e-12 per coordinate."""
    registry, vocab, datasets = world
    dlp = sorted(datasets)[0]
    one = {dlp: datasets[dlp]}
    steps = 20
    cfg = small_cfg(m=1, k=1, q=0, n=4, beta=1.0, epochs=2, max_meta_batches=steps,
                    inner=OptimizerSettings(lr=2e-3), seed=17)

    model = small_model(vocab, seed=2)
    snap, log = meta_train(model, vocab, one, cfg)
    assert sum(1 for rec in log if "meta_batch_loss" in rec) == steps

    model2 = small_model(vocab, seed=2)
    model2.set_trainable(model2.adapter_names())
    names = model2.adapter_names()
    for step in range(steps):
        episode = build_episode([dlp], one, cfg.n, cfg.q, episode_stream(cfg.seed, step))
        batch = make_batch(list(episode.tasks[0].support), vocab, dlp)
        opt = AdamW({n: model2.params[n] for n in names}, cfg.inner)
        loss = forward_loss(model2, batch, train=True, rng=inner_stream(cfg.seed, step, 0))
        T.backward(loss)
        opt.step()
    for name in names:
        np.testing.assert_allclose(snap.tensors[name], model2.params[name].data,
                                   rtol=0.0, atol=1e-12)


def test_meta_train_early_stops_after_three_stale_epochs(world, monkeypatch):
    """With every query loss stubbed to 1.0, epoch 0 sets the best pooled
    loss and epochs 1-3 fail to improve it, so the run stops after epoch 3
    of 10, logging the stop as its last entry."""
    from metadapt import training

    _, vocab, datasets = world
    real = training.forward_loss

    def flat_query_loss(model, batch, train=False, rng=None):
        if T.grad_enabled():  # support steps train for real
            return real(model, batch, train=train, rng=rng)
        return T.Tensor(1.0)

    monkeypatch.setattr(training, "forward_loss", flat_query_loss)
    cfg = small_cfg(m=2, n=4, q=2, k=1, epochs=10, max_meta_batches=None)
    _, log = meta_train(small_model(vocab), vocab, datasets, cfg)
    per_epoch = training.meta_batches_per_epoch(datasets, cfg)
    assert sum(1 for rec in log if "meta_batch_loss" in rec) == 4 * per_epoch
    assert log[-1] == {"step": 4 * per_epoch, "epoch": 3, "early_stop": True}


# --- inner loops across processes ------------------------------------------------------

def _forbid_workers(monkeypatch):
    def start(self):
        raise AssertionError("a process was started on one CPU")

    monkeypatch.setattr(ForkProcess, "start", start)


def _without_wall(log):
    return [{k: v for k, v in rec.items() if k != "wall"} for rec in log]


@pytest.mark.parametrize("strategy", ["meta_adapter", "full_model_meta"])
def test_meta_train_same_bits_on_any_cpu_count(world, monkeypatch, strategy):
    """m=4 inner loops with dropout, run serially on one CPU and across this
    process and two workers on three, give bitwise the same parameters and
    log; full_model_meta ships every parameter to the workers. No process
    outlives either run, and one CPU starts none."""
    _, vocab, datasets = world
    setup = STRATEGIES[strategy]
    runs = []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            on_cpus(patch, cpus)
            if cpus == 1:
                _forbid_workers(patch)
            model = small_model(vocab, seed=4, dropout=0.1, groups=setup.adapter_groups)
            params, log = train_stage_one(strategy, model, vocab, datasets,
                                          small_cfg(m=4, max_meta_batches=3))
        assert multiprocessing.active_children() == []
        runs.append((params[setup.component], _without_wall(log),
                     snapshot_params(model, list(model.params))))
    (serial, serial_log, serial_model), (parallel, parallel_log, parallel_model) = runs
    assert sum(1 for rec in serial_log if "meta_batch_loss" in rec) == 3
    assert serial_log == parallel_log
    for tensors, other in ((serial, parallel), (serial_model, parallel_model)):
        assert list(tensors) == list(other)
        for name in tensors:
            assert np.array_equal(tensors[name], other[name]), name


def _failing_inner_adapt(monkeypatch, raise_in):
    """Patch inner_adapt to raise in the processes `raise_in(pid)` selects,
    naming the task by the first draw of its rng stream; forked workers
    inherit the patch."""
    real = training.inner_adapt

    def inner_adapt(*args, **kwargs):
        if raise_in(os.getpid()):
            raise NumericError(f"training diverged on task {args[7].integers(1 << 30)}")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "inner_adapt", inner_adapt)


def test_meta_train_worker_error_reaches_caller(world, monkeypatch):
    _, vocab, datasets = world
    caller = os.getpid()
    on_cpus(monkeypatch, 2)
    _failing_inner_adapt(monkeypatch, lambda pid: pid != caller)
    with pytest.raises(NumericError, match="^training diverged on task "):
        meta_train(small_model(vocab), vocab, datasets, small_cfg(m=2))
    assert multiprocessing.active_children() == []


def test_meta_train_raises_the_first_failing_task_on_any_cpu_count(world, monkeypatch):
    """When every task fails, the error is the first task's, as in a serial
    loop, however the tasks were split."""
    _, vocab, datasets = world
    cfg = small_cfg(m=4)
    first = f"training diverged on task {inner_stream(cfg.seed, 0, 0).integers(1 << 30)}"
    _failing_inner_adapt(monkeypatch, lambda pid: True)
    for cpus in (1, 3):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(NumericError) as caught:
            meta_train(small_model(vocab), vocab, datasets, cfg)
        assert str(caught.value) == first, cpus


def test_meta_train_worker_death_is_a_state_error(world, monkeypatch):
    _, vocab, datasets = world
    caller = os.getpid()
    real = training.inner_adapt

    def inner_adapt(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args, **kwargs)

    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(training, "inner_adapt", inner_adapt)
    with pytest.raises(StateError, match="inner-loop worker .* exited"):
        meta_train(small_model(vocab), vocab, datasets, small_cfg(m=2))
    assert multiprocessing.active_children() == []


# --- meta_adapt -----------------------------------------------------------------------

def test_meta_adapt_zero_lr_identity(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    dlp = next(iter(datasets))
    start = snapshot_params(model, model.adapter_names())
    out, _ = meta_adapt(model, vocab, start, dlp, datasets[dlp].adapt,
                        OptimizerSettings(lr=0.0))
    for name in start:
        assert np.array_equal(out[name], start[name])


def test_meta_adapt_loss_non_increasing_on_toy_split(world):
    _, vocab, datasets = world
    model = small_model(vocab, seed=1)
    dlp = next(iter(datasets))
    toy = datasets[dlp].adapt[:10]
    start = snapshot_params(model, model.adapter_names())
    batch = make_batch(toy, vocab, dlp)

    def split_loss():
        with T.no_grad():
            return float(forward_loss(model, batch).data)

    losses = [split_loss()]
    current = start
    for epoch in range(3):
        current, _ = meta_adapt(model, vocab, current, dlp, toy,
                                OptimizerSettings(lr=3e-3), epochs=1, seed=epoch)
        restore_params(model, current)
        losses.append(split_loss())
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])), losses


def test_meta_adapt_no_cross_talk(world):
    _, vocab, datasets = world
    model = small_model(vocab, seed=4)
    ids = sorted(datasets)[:2]
    start = snapshot_params(model, model.adapter_names())
    out_a, _ = meta_adapt(model, vocab, start, ids[0], datasets[ids[0]].adapt,
                          OptimizerSettings(lr=1e-3))
    out_b, _ = meta_adapt(model, vocab, start, ids[1], datasets[ids[1]].adapt,
                          OptimizerSettings(lr=1e-3))
    out_a2, _ = meta_adapt(model, vocab, start, ids[0], datasets[ids[0]].adapt,
                           OptimizerSettings(lr=1e-3))
    assert any(not np.array_equal(out_a[n], out_b[n]) for n in out_a)
    for name in out_a:
        assert np.array_equal(out_a[name], out_a2[name])


def test_meta_adapt_empty_split_rejected(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    with pytest.raises(InputError):
        meta_adapt(model, vocab, snapshot_params(model, model.adapter_names()),
                   next(iter(datasets)), [], OptimizerSettings())


def _count_calls(monkeypatch, name):
    from metadapt import training

    calls = []
    original = getattr(training, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, name, counted)
    return calls


def test_step_budget_builds_only_the_batches_it_trains_on(world, monkeypatch):
    """A max_steps cut builds exactly the batches it trains on, one per row
    shard, and starts no epoch past the budget; its losses (dropout on, so
    the per-epoch rng streams matter) are a bitwise prefix of an uncut run's."""
    _, vocab, datasets = world
    dlp = sorted(datasets)[0]
    rows = [(dlp, pair) for pair in datasets[dlp].train]
    adapt = datasets[dlp].adapt
    settings = OptimizerSettings(lr=1e-3)

    def pretrain(epochs, max_steps):
        model = small_model(vocab, seed=3, dropout=0.1)
        return supervised_train(model, vocab, rows, settings, epochs, batch_size=8, seed=2,
                                trainable=model.adapter_names(), max_steps=max_steps)

    def adapt_run(epochs, max_steps):
        model = small_model(vocab, seed=3, dropout=0.1)
        start = snapshot_params(model, model.adapter_names())
        return meta_adapt(model, vocab, start, dlp, adapt, settings, epochs=epochs,
                          batch_size=4, seed=2, max_steps=max_steps)[1]

    on_cpus(monkeypatch, 1)  # every shard's batch is built in this process
    for run, builder, per_epoch in ((pretrain, "make_mixed_batch", len(rows) // 8),
                                    (adapt_run, "make_batch", len(adapt) // 4)):
        builds = _count_calls(monkeypatch, builder)
        full = run(2, None)
        assert len(builds) == training.SHARDS * len(full) == training.SHARDS * 2 * per_epoch
        builds.clear()
        budget = per_epoch + 2
        cut = run(3, budget)
        assert len(builds) == training.SHARDS * budget
        assert cut == full[:budget]


# --- sharded supervised steps --------------------------------------------------------------

def _pretrain_and_adapt(tiny_registry, vocab, datasets):
    """pretrain_backbone with dropout on a batch of 7 (shards of 4 and 3
    rows), then meta_adapt of its adapters: every loss and final value."""
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.1)
    model, pre_losses = pipeline.pretrain_backbone(
        tiny_registry, vocab, mc, AdapterConfig(bottleneck_dim=4), OptimizerSettings(lr=3e-3),
        epochs=2, batch_size=7, seed=5, max_steps=12)
    add_adapter_group(model, "main", seed=6)
    dlp = sorted(datasets)[0]
    adapted, adapt_losses = meta_adapt(model, vocab, snapshot_params(model, model.adapter_names()),
                                       dlp, datasets[dlp].adapt, OptimizerSettings(lr=1e-2),
                                       epochs=2, batch_size=5, seed=3)
    return pre_losses, adapt_losses, adapted, snapshot_params(model, list(model.params))


def test_supervised_training_same_bits_on_any_cpu_count(tiny_registry, world, monkeypatch):
    """Pretraining and meta_adapt give bitwise the same losses and values when
    each batch's two shards run serially on one CPU and on two processes on
    three; one CPU starts no process, and none outlives either run."""
    _, vocab, datasets = world
    runs = []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            on_cpus(patch, cpus)
            if cpus == 1:
                _forbid_workers(patch)
            runs.append(_pretrain_and_adapt(tiny_registry, vocab, datasets))
        assert multiprocessing.active_children() == []
    serial, parallel = runs
    assert len(serial[0]) == 12
    assert serial[:2] == parallel[:2]
    for tensors, other in zip(serial[2:], parallel[2:]):
        assert list(tensors) == list(other)
        for name in tensors:
            assert np.array_equal(tensors[name], other[name]), name


def test_sharded_gradient_equals_full_batch_gradient(world, monkeypatch):
    """At dropout 0, the gold-token-weighted sum of the two shards' gradients
    (shards of different lengths and token counts) is the gradient of the
    whole batch's mean loss, to 1e-12 of the largest gradient entry, and the
    loss is the batch's to 1e-12 relative."""
    _, vocab, datasets = world
    rows = [(dlp, pair) for dlp in sorted(datasets)[:3] for pair in datasets[dlp].train[:3]]

    def make(indices):
        return make_mixed_batch([rows[i] for i in indices], vocab)

    model = small_model(vocab, seed=8)
    names = list(model.params)
    model.set_trainable(names)
    with T.use_tape(T.Tape()):
        full = forward_loss(model, make(range(len(rows))))
        T.backward(full)
    expected = {name: model.params[name].grad.copy() for name in names}
    for p in model.params.values():
        p.zero_grad()
    on_cpus(monkeypatch, 3)
    shards = training._Shards(model, names, make)
    with ForkPool(shards.run, training.SHARDS, "test") as pool:
        loss = shards.step(pool, (0, 31, 0, 0), np.arange(len(rows)))
    assert abs(loss - float(full.data)) <= 1e-12 * abs(float(full.data))
    scale = max(np.max(np.abs(g)) for g in expected.values())  # some entries are exactly 0
    for name in names:
        got = model.params[name].grad
        assert np.max(np.abs(got - expected[name])) <= 1e-12 * scale, name


def test_pools_inside_pools_start_no_process(world, monkeypatch):
    """In a ForkPool worker available_cpus() is 1, so a meta_adapt there runs
    both shards in that worker, starts no process of its own, and gives the
    bits it gives in the caller (which starts a worker for them)."""
    _, vocab, datasets = world
    dlp = sorted(datasets)[0]
    on_cpus(monkeypatch, 3)

    def adapt(item):
        if item == 1:  # the pool's worker: starting a process fails the item
            _forbid_workers(monkeypatch)
        model = small_model(vocab, seed=2, dropout=0.1)
        adapted, losses = meta_adapt(model, vocab, snapshot_params(model, model.adapter_names()),
                                     dlp, datasets[dlp].adapt, OptimizerSettings(lr=1e-2),
                                     batch_size=6, seed=1)
        return available_cpus(), multiprocessing.active_children(), adapted, losses

    with ForkPool(adapt, 2, "test") as pool:
        (_, _, caller_values, caller_losses), (cpus, children, values, losses) = \
            pool.map((), [0, 1])
    assert (cpus, children) == (1, [])
    assert losses == caller_losses
    for name in values:
        assert np.array_equal(values[name], caller_values[name]), name


# --- baselines ---------------------------------------------------------------------------

def test_full_ft_updates_backbone(world):
    _, vocab, datasets = world
    model = small_model(vocab, groups=())
    checksum = model.backbone_checksum()
    train_stage_one("full_ft", model, vocab, datasets,
                    small_cfg(epochs=1), max_steps=3)
    assert model.backbone_checksum() != checksum


def test_tag_ft_updates_backbone(world):
    _, vocab, datasets = world
    model = small_model(vocab, groups=())
    checksum = model.backbone_checksum()
    train_stage_one("tag_ft", model, vocab, datasets,
                    small_cfg(epochs=1), max_steps=3)
    assert model.backbone_checksum() != checksum


def test_agnostic_adapter_keeps_backbone_bitwise(world):
    _, vocab, datasets = world
    model = small_model(vocab)
    checksum = model.backbone_checksum()
    art, _ = train_stage_one("agnostic_adapter", model, vocab, datasets,
                             small_cfg(epochs=1), max_steps=3)
    assert model.backbone_checksum() == checksum
    assert set(art["adapter"]) == set(model.adapter_names())


def test_full_model_meta_trains_everything(world):
    _, vocab, datasets = world
    model = small_model(vocab, groups=())
    checksum = model.backbone_checksum()
    train_stage_one("full_model_meta", model, vocab, datasets, small_cfg(max_meta_batches=2))
    assert model.backbone_checksum() != checksum
    assert "first-order" in STRATEGIES["full_model_meta"].note


def test_tag_collapse_equivalence(world):
    """tag_ft's stage one is plain fine-tuning of every parameter over the
    pooled rows with the domain tag prepended: on a single-domain registry,
    where that tag is one constant token, it gives the bits of
    supervised_train with with_domain_tag=True."""
    registry, vocab, datasets = world
    domain = next(iter(datasets)).domain
    single = {d: ds for d, ds in datasets.items() if d.domain == domain}
    cfg = small_cfg(epochs=1, inner=OptimizerSettings(lr=2e-3))

    model_a = small_model(vocab, seed=6, groups=())
    train_stage_one("tag_ft", model_a, vocab, single, cfg, max_steps=4)

    model_b = small_model(vocab, seed=6, groups=())
    from metadapt.training import pooled_rows
    supervised_train(model_b, vocab, pooled_rows(single), cfg.inner, cfg.epochs,
                     batch_size=16, seed=cfg.seed, trainable=list(model_b.params),
                     with_domain_tag=True, max_steps=4)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data)


def test_stack_adapter_component_inventory_and_counts(world):
    _, vocab, datasets = world
    ids = sorted(datasets)[:4]
    subset = {d: datasets[d] for d in ids}
    model = small_model(vocab, groups=())
    art, _ = train_stage_one("stack_adapter", model, vocab, subset,
                             small_cfg(epochs=1), max_steps=1)
    lang_pairs = {(d.src_lang, d.tgt_lang) for d in subset}
    domains = {d.domain for d in subset}
    assert len(art) == len(lang_pairs) + len(domains)
    assert model.backbone_checksum() == small_model(vocab, groups=()).backbone_checksum()

    names = install_stack(model, art, ids[0])
    assert model.adapter_groups == ["lp", "dom"]
    per_adapter = len({n for n in names if "/adapter/lp/" in n})
    assert per_adapter == len({n for n in names if "/adapter/dom/" in n})


def test_train_baseline_unknown_strategy(world):
    _, vocab, datasets = world
    with pytest.raises(InputError):
        train_stage_one("not_a_strategy", small_model(vocab), vocab, datasets, small_cfg())


# --- the strategy table ------------------------------------------------------------------

@pytest.mark.parametrize("name", [n for n, s in STRATEGIES.items()
                                  if s.stage_one not in (None, "stack")])
def test_stage_one_trains_exactly_the_tables_set(world, name):
    """Stage one stores its row's component, holding exactly `trains(model)`,
    and leaves every other parameter bitwise as it was."""
    _, vocab, datasets = world
    setup = STRATEGIES[name]
    model = small_model(vocab, groups=setup.adapter_groups)
    before = snapshot_params(model, list(model.params))
    params, _ = train_stage_one(name, model, vocab, datasets, small_cfg(max_meta_batches=1),
                                max_steps=1)
    trains = setup.trains(model)
    assert list(params) == [setup.component]
    assert sorted(params[setup.component]) == sorted(trains)
    for param, value in before.items():
        if param not in trains:
            assert np.array_equal(model.params[param].data, value), param


def test_stack_stage_one_keeps_the_backbone(world):
    _, vocab, datasets = world
    model = small_model(vocab, groups=STRATEGIES["stack_adapter"].adapter_groups)
    before = snapshot_params(model, list(model.params))
    params, _ = train_stage_one("stack_adapter", model, vocab, datasets, small_cfg(),
                                max_steps=1)
    assert sorted(params) == sorted({f"lp:{d.src_lang}-{d.tgt_lang}" for d in datasets}
                                    | {f"dom:{d.domain}" for d in datasets})
    assert list(model.params) == list(before)
    for param, value in before.items():
        assert np.array_equal(model.params[param].data, value), param


# --- parameter writes ----------------------------------------------------------------------

def _bitwise(model):
    return {name: p.data.tobytes() for name, p in model.params.items()}


def test_parameter_snapshots_have_one_owner():
    assert training.restore_params is model_module.restore_params
    assert training.snapshot_params is model_module.snapshot_params


@pytest.mark.parametrize("write", [restore_params, set_adapter_params])
def test_parameter_writes_are_in_place_and_all_or_nothing(world, write):
    """A write copies into each parameter's own array; a map whose unknown
    name or wrong shape comes after a valid entry writes nothing."""
    _, vocab, _ = world
    model = small_model(vocab, seed=2)
    arrays = {name: p.data for name, p in model.params.items()}
    values = {name: model.params[name].data + 1.0 for name in model.adapter_names()}
    write(model, values)
    for name, p in model.params.items():
        assert p.data is arrays[name], name
    for name, value in values.items():
        assert np.array_equal(model.params[name].data, value), name

    before = _bitwise(model)
    last = model.adapter_names()[-1]
    shifted = {name: value + 1.0 for name, value in values.items()}
    for bad in ({**shifted, last: np.zeros(model.params[last].shape + (1,))},
                {**shifted, "enc/0/adapter/main/unknown": np.zeros(3)}):
        with pytest.raises(StateError):
            write(model, bad)
        assert _bitwise(model) == before
    for name, p in model.params.items():
        assert p.data is arrays[name], name


def test_install_stack_writes_in_place_and_all_or_nothing(world, monkeypatch):
    """install_stack copies a trained component into the arrays of the group
    it adds; a component whose unknown name or wrong shape comes after a
    valid entry raises with that group as freshly initialized."""
    _, vocab, datasets = world
    dlp = sorted(datasets)[0]
    lp = f"lp:{dlp.src_lang}-{dlp.tgt_lang}"
    model = small_model(vocab, groups=())
    shapes = component_shapes("stack_adapter", model.mc, model.ac)
    component = {key: np.full(shape, 0.25) for key, shape in shapes.items()}
    made = {name: p.data for name, p in model.params.items()}
    real_add = training.add_adapter_group

    def add_adapter_group(model, group, seed):
        real_add(model, group, seed)
        made.update({name: model.params[name].data for name in model.adapter_names(group)})

    monkeypatch.setattr(training, "add_adapter_group", add_adapter_group)
    install_stack(model, {lp: component}, dlp)
    for name, p in model.params.items():
        assert p.data is made[name], name
    for key, value in component.items():
        layer, _, param = key.rpartition("/")
        assert np.array_equal(model.params[f"{layer}/adapter/lp/{param}"].data, value), key

    last = list(component)[-1]
    for bad in ({**component, last: np.zeros(shapes[last] + (1,))},
                {**component, "enc/0/unknown": np.zeros(3)}):
        failed = small_model(vocab, groups=())
        with pytest.raises(StateError):
            install_stack(failed, {lp: bad}, dlp)
        fresh = small_model(vocab, groups=())
        install_stack(fresh, {}, dlp)
        assert _bitwise(failed) == {name: fresh.params[name].data.tobytes()
                                    for name in failed.params}
