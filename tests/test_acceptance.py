"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavyweight experiment behind criteria 3, 8, and 9 runs once as a module
fixture, driven by the checked-in configs under configs/. Run with
`pytest tests/test_acceptance.py -v -s` to watch the per-criterion lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from metadapt import tensor as T
from metadapt.corpus import SyntheticWorldSpec, Vocab, generate_world
from metadapt.gradcheck import grad_check
from metadapt.metrics import aggregate, chrf, corpus_bleu, write_records, write_report
from metadapt.model import (
    AdapterConfig,
    ModelConfig,
    build_model,
    forward_loss,
    hash_seed,
    make_batch,
)
from metadapt.optim import AdamW, OptimizerSettings
from metadapt.pipeline import (
    AdaptBudget,
    adapt_and_evaluate,
    backbone_dev_bleu,
    hyperparam_sweep,
    pretrain_backbone,
    role_datasets,
    write_sweep,
)
from metadapt.tasks import DlpId, SamplingPlan, build_episode, sample_dlps
from metadapt.training import (
    MetaConfig,
    episode_stream,
    inner_stream,
    meta_adapt,
    meta_train,
    restore_params,
    train_stage_one,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# the shared heavyweight experiment (criteria 3, 8, 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    config = json.loads((CONFIG_DIR / "acceptance.json").read_text(encoding="utf-8"))
    world_raw = json.loads((CONFIG_DIR / "acceptance_world.json").read_text(encoding="utf-8"))
    for key in ("languages", "domains", "heldout_domains", "heldout_languages",
                "neutral_len", "specialist_len"):
        world_raw[key] = tuple(world_raw[key])
    spec = SyntheticWorldSpec(**world_raw)

    t_start = time.perf_counter()
    registry = generate_world(spec, root / "corpus")
    vocab = Vocab.load(registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), **config["model"])
    ac = AdapterConfig(**config["adapter"])
    mc_pre = ModelConfig(vocab_size=len(vocab), **{**config["model"], "dropout": 0.0})

    pre = config["pretrain"]
    backbone_model, _ = pretrain_backbone(
        registry, vocab, mc_pre, ac, OptimizerSettings(lr=pre["lr"]),
        epochs=pre["epochs"], batch_size=pre["batch_size"], seed=world_raw["seed"])
    dev_bleu = backbone_dev_bleu(backbone_model, vocab, registry, sample_per_dlp=4,
                                 max_len=config["eval"]["max_len"])
    backbone = {n: backbone_model.params[n].data.copy() for n in backbone_model.params}

    meta_ds = role_datasets(registry, "meta_train")
    heldout_all = role_datasets(registry, "heldout")
    hl = set(spec.heldout_languages)
    heldout = {d: ds for d, ds in heldout_all.items()
               if d.domain in spec.heldout_domains and d.src_lang in hl and d.tgt_lang in hl}
    budget = AdaptBudget(epochs=config["adapt"]["epochs"],
                         batch_size=config["adapt"]["batch_size"],
                         settings=OptimizerSettings(lr=config["adapt"]["lr"]))
    max_len = config["eval"]["max_len"]
    strategies = config["eval"]["strategies"]
    meta_kwargs = dict(config["meta"])
    inner = OptimizerSettings(lr=meta_kwargs.pop("inner_lr"))
    meta_kwargs.pop("max_meta_batches", None)

    records: dict[int, dict[str, list]] = {}
    checksums = []
    trained_by_seed = {}
    for seed in (1, 2, 3):
        cfg = MetaConfig(seed=seed, inner=inner, **meta_kwargs)
        model = build_model(mc, ac, seed=hash_seed(seed, 50), adapter_groups=("main",))
        restore_params(model, backbone)
        checksum_before = model.backbone_checksum()
        snapshot, _ = meta_train(model, vocab, meta_ds, cfg)
        first_heldout = sorted(heldout)[0]
        meta_adapt(model, vocab, snapshot.tensors, first_heldout,
                   heldout[first_heldout].adapt, budget.settings, epochs=budget.epochs,
                   batch_size=budget.batch_size, seed=seed)
        checksums.append((checksum_before, model.backbone_checksum()))

        trained = {"meta_adapter": {"adapter": snapshot.tensors}}
        if "full_ft" in strategies:
            ft_model = build_model(mc, ac, seed=hash_seed(seed, 50), adapter_groups=())
            restore_params(ft_model, backbone)
            trained["full_ft"], _ = train_stage_one("full_ft", ft_model, vocab, meta_ds, cfg)
        trained_by_seed[seed] = trained

        records[seed] = {}
        for strategy in strategies:
            records[seed][strategy] = [
                adapt_and_evaluate(strategy, dlp, heldout[dlp], mc=mc, ac=ac, vocab=vocab,
                                   backbone=backbone, trained=trained, budget=budget,
                                   run_seed=seed, max_len=max_len)
                for dlp in sorted(heldout)
            ]
    runtime = time.perf_counter() - t_start
    return {
        "spec": spec, "registry": registry, "vocab": vocab, "mc": mc, "ac": ac,
        "backbone": backbone, "meta_ds": meta_ds, "heldout_all": heldout_all,
        "records": records, "checksums": checksums, "runtime": runtime,
        "dev_bleu": dev_bleu, "budget": budget, "max_len": max_len,
        "trained": trained_by_seed, "out_root": root,
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity on the full model
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial, (layers, heads, dim, ffn, bn) in enumerate(
            [(1, 2, 8, 10, 3), (2, 2, 6, 8, 2), (1, 3, 9, 12, 4)]):
        mc = ModelConfig(vocab_size=11, model_dim=dim, num_layers=layers, num_heads=heads,
                         ffn_dim=ffn, max_seq_len=8, dropout=0.0)
        model = build_model(mc, AdapterConfig(bottleneck_dim=bn), seed=trial)
        for name in model.adapter_names():
            model.params[name].data += rng.uniform(-0.05, 0.05, model.params[name].shape)
        src = rng.integers(4, 11, size=(2, 4)).astype(np.int64)
        gold = rng.integers(4, 11, size=(2, 3)).astype(np.int64)
        from metadapt.model import Batch
        batch = Batch(src=src, src_mask=np.ones((2, 4)), gold=gold,
                      dec_in=np.concatenate([np.ones((2, 1), dtype=np.int64), gold[:, :-1]], 1),
                      gold_mask=np.ones((2, 3)))
        for p in model.params.values():
            p.set_requires_grad(True)
        report = grad_check(lambda: forward_loss(model, batch), model.params, tol=1e-4, h=1e-4, floor=1e-3)
        worst = max(worst, report.max_rel_error)
        assert report.passed, report
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-4 and elapsed < 60.0,
            f"max rel error {worst:.2e} over full-model checks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: identity at insertion
# ---------------------------------------------------------------------------

def test_criterion_02_identity_at_insertion():
    rng = np.random.default_rng(2)
    mc = ModelConfig(vocab_size=29, model_dim=16, num_layers=2, num_heads=2, ffn_dim=24,
                     max_seq_len=16, dropout=0.0)
    ac = AdapterConfig(bottleneck_dim=4)
    plain = build_model(mc, ac, seed=8, adapter_groups=())
    adapted = build_model(mc, ac, seed=8, adapter_groups=("main",))
    from metadapt.model import Batch
    exact = 0
    for _ in range(100):
        b, ts, tt = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 7))
        src = rng.integers(4, 29, size=(b, ts)).astype(np.int64)
        gold = rng.integers(4, 29, size=(b, tt)).astype(np.int64)
        batch = Batch(src=src, src_mask=np.ones((b, ts)), gold=gold,
                      dec_in=np.concatenate([np.ones((b, 1), dtype=np.int64), gold[:, :-1]], 1),
                      gold_mask=np.ones((b, tt)))
        with T.no_grad():
            if np.array_equal(plain.forward_logits(batch).data,
                              adapted.forward_logits(batch).data):
                exact += 1
    _report(2, exact == 100, f"{exact}/100 random batches bitwise identical logits")


# ---------------------------------------------------------------------------
# criterion 3: frozen backbone through a complete meta-train + meta-adapt run
# ---------------------------------------------------------------------------

def test_criterion_03_frozen_backbone(experiment):
    same = all(before == after for before, after in experiment["checksums"])
    _report(3, same, f"backbone checksum unchanged across {len(experiment['checksums'])} "
                     f"complete meta-train + meta-adapt runs")


# ---------------------------------------------------------------------------
# criterion 4: Reptile oracle
# ---------------------------------------------------------------------------

def test_criterion_04_reptile_oracle(tiny_registry):
    from metadapt.corpus import load_datasets

    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    dlp = DlpId("gears", "apa", "bel")
    datasets = load_datasets(tiny_registry, [dlp])
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.0)
    ac = AdapterConfig(bottleneck_dim=4)
    steps = 20
    cfg = MetaConfig(m=1, n=4, q=0, k=1, beta=1.0, epochs=2, seed=23,
                     max_meta_batches=steps, inner=OptimizerSettings(lr=2e-3))

    model = build_model(mc, ac, seed=4)
    snap, _ = meta_train(model, vocab, datasets, cfg)

    twin = build_model(mc, ac, seed=4)
    twin.set_trainable(twin.adapter_names())
    names = twin.adapter_names()
    for step in range(steps):
        episode = build_episode([dlp], datasets, cfg.n, cfg.q, episode_stream(cfg.seed, step))
        batch = make_batch(list(episode.tasks[0].support), vocab, dlp)
        opt = AdamW({n: twin.params[n] for n in names}, cfg.inner)
        loss = forward_loss(twin, batch, rng=inner_stream(cfg.seed, step, 0))
        T.backward(loss)
        opt.step()
    worst = max(float(np.max(np.abs(snap.tensors[n] - twin.params[n].data))) for n in names)
    _report(4, worst <= 1e-12,
            f"m=1,k=1,beta=1 meta-training vs sequential fine-tuning: "
            f"max coordinate gap {worst:.2e} over {steps} steps")


# ---------------------------------------------------------------------------
# criterion 5: temperature sampling correctness
# ---------------------------------------------------------------------------

def test_criterion_05_sampling_correctness():
    sizes = [5000, 4000, 2500, 1500, 1000, 500, 250, 59]
    ids = [DlpId("d", "a", f"l{i}") for i in range(len(sizes))]
    draws = 100_000
    worst = 0.0
    for tau in (1.0, 2.0, 5.0, math.inf):
        plan = SamplingPlan.build(dict(zip(ids, sizes)), tau)
        if math.isinf(tau):
            assert all(p == 1.0 / len(sizes) for p in plan.probs)  # exact uniform expectation
        rng = np.random.default_rng(505)
        got = sample_dlps(plan, draws, rng, replace=True)
        counts = {}
        for d in got:
            counts[d] = counts.get(d, 0) + 1
        tv = 0.5 * sum(abs(counts.get(i, 0) / draws - p) for i, p in zip(plan.dlp_ids, plan.probs))
        worst = max(worst, tv)
        assert tv < 0.01, (tau, tv)
    _report(5, worst < 0.01,
            f"empirical vs target TV distance <= {worst:.4f} over tau in {{1,2,5,inf}} "
            f"at {draws} seeded draws")


# ---------------------------------------------------------------------------
# criterion 6: metric oracles
# ---------------------------------------------------------------------------

def test_criterion_06_metric_oracles():
    checks = [
        abs(corpus_bleu(["a b c d"], ["a b c d"]) - 100.0) < 1e-9,
        corpus_bleu(["a b c e"], ["a b c d"]) == 0.0,
        abs(corpus_bleu(["a b"], ["a b c d"]) - 100.0 * math.exp(-1.0)) < 1e-6,
        abs(chrf(["abc"], ["abc"]) - 100.0) < 1e-9,
        chrf(["aaa"], ["bbb"]) == 0.0,
        abs(chrf(["abc"], ["abd"]) - 100.0 * 7.0 / 18.0) < 1e-9,
        abs(corpus_bleu(["x y"], ["x y"]) - 100.0) < 1e-9,
    ]
    _report(6, all(checks), f"{sum(checks)}/{len(checks)} hand-computed metric examples exact, "
                            f"self-score 100 for both metrics")


# ---------------------------------------------------------------------------
# criterion 7: trainable-parameter accounting
# ---------------------------------------------------------------------------

def test_criterion_07_efficiency_accounting(experiment):
    records = experiment["records"][1]
    meta_rec = records["meta_adapter"][0]
    ratio = meta_rec.trainable_ratio
    ok_ratio = ratio < 0.05
    mc, ac = experiment["mc"], experiment["ac"]
    # per layer: two projections, their biases, the LN affine
    per_layer = 2 * mc.model_dim * ac.bottleneck_dim + 2 * mc.model_dim + ac.bottleneck_dim + mc.model_dim
    single = per_layer * 2 * mc.num_layers
    ok_single = meta_rec.trainable_params == single

    meta_ds = experiment["meta_ds"]
    subset = {d: meta_ds[d] for d in sorted(meta_ds)[:4]}
    model = build_model(mc, ac, seed=0, adapter_groups=())
    restore_params(model, experiment["backbone"])
    cfg = MetaConfig(m=2, n=4, q=0, k=1, epochs=1, seed=0, max_meta_batches=1,
                     inner=OptimizerSettings(lr=1e-3))
    artifact, _ = train_stage_one("stack_adapter", model, vocab=experiment["vocab"],
                                  datasets=subset, cfg=cfg)
    lp_count = len({(d.src_lang, d.tgt_lang) for d in subset})
    dom_count = len({d.domain for d in subset})
    rec = adapt_and_evaluate("stack_adapter", sorted(subset)[0], subset[sorted(subset)[0]],
                             mc=mc, ac=ac, vocab=experiment["vocab"],
                             backbone=experiment["backbone"],
                             trained={"stack_adapter": artifact},
                             budget=AdaptBudget(epochs=1, batch_size=8,
                                                settings=OptimizerSettings(lr=1e-3), max_steps=1),
                             run_seed=0, max_len=experiment["max_len"])
    ok_stack = rec.trainable_params == (lp_count + dom_count) * single
    _report(7, ok_ratio and ok_single and ok_stack,
            f"adapter ratio {ratio:.4f} < 0.05 at the default config; stacked count "
            f"{rec.trainable_params} == ({lp_count}+{dom_count}) x {single}")


# ---------------------------------------------------------------------------
# criterion 8: directional main-result reproduction
# ---------------------------------------------------------------------------

def test_criterion_08_directional_main_result(experiment):
    gate = experiment["dev_bleu"]
    assert gate >= 90.0, f"backbone learnability gate failed: dev BLEU {gate:.2f} < 90"
    lines = []
    ok = True
    for seed, by_strategy in experiment["records"].items():
        meta = _mean(r.bleu for r in by_strategy["meta_adapter"])
        rand = _mean(r.bleu for r in by_strategy["random_adapter"])
        zero = _mean(r.bleu for r in by_strategy["backbone"])
        ft_records = by_strategy["full_ft"]
        meta_records = by_strategy["meta_adapter"]
        ties_or_beats = sum(m.bleu >= f.bleu for m, f in zip(meta_records, ft_records))
        seed_ok = (meta > rand) and (meta > zero) and ties_or_beats * 2 >= len(ft_records)
        ok = ok and seed_ok
        lines.append(f"seed {seed}: meta {meta:.1f} vs random {rand:.1f} vs zero-shot "
                     f"{zero:.1f}, >=full_ft on {ties_or_beats}/{len(ft_records)} DLPs")
    runtime_ok = experiment["runtime"] < 1800.0
    _report(8, ok and runtime_ok,
            "; ".join(lines) + f"; runtime {experiment['runtime']:.0f}s < 1800s, "
                               f"backbone dev BLEU {gate:.1f}")


def test_invariant_adaptation_speed(experiment):
    """Meta-trained adapters reach a random-init run's best dev loss in no
    more adaptation steps, for a majority of held-out DLPs (fixed seeds)."""
    vocab, mc, ac = experiment["vocab"], experiment["mc"], experiment["ac"]
    spec = experiment["spec"]
    hl = set(spec.heldout_languages)
    heldout = {d: ds for d, ds in experiment["heldout_all"].items()
               if d.domain in spec.heldout_domains and d.src_lang in hl and d.tgt_lang in hl}
    budget = experiment["budget"]
    wins = 0
    for dlp in sorted(heldout):
        ds = heldout[dlp]
        steps_to_hit = {}
        trajectories = {}
        for init_name in ("meta", "random"):
            model = build_model(mc, ac, seed=hash_seed(1, 51), adapter_groups=("main",))
            restore_params(model, experiment["backbone"])
            if init_name == "meta":
                restore_params(model, experiment["trained"][1]["meta_adapter"]["adapter"])
            names = model.adapter_names()
            model.set_trainable(names)
            valid_batch = make_batch(ds.valid, vocab, dlp)

            def valid_loss():
                with T.no_grad():
                    return float(forward_loss(model, valid_batch).data)

            rng = np.random.default_rng(np.random.SeedSequence([77]))
            order = rng.permutation(len(ds.adapt))
            opt = AdamW({n: model.params[n] for n in names}, budget.settings)
            losses = [valid_loss()]
            for lo in range(0, len(order), budget.batch_size):
                chunk = [ds.adapt[i] for i in order[lo : lo + budget.batch_size]]
                loss = forward_loss(model, make_batch(chunk, vocab, dlp),
                                    rng=np.random.default_rng(np.random.SeedSequence([78, lo])))
                T.backward(loss)
                opt.step()
                losses.append(valid_loss())
            trajectories[init_name] = losses
        threshold = min(trajectories["random"])
        for init_name, losses in trajectories.items():
            steps_to_hit[init_name] = next(
                (i for i, v in enumerate(losses) if v <= threshold), len(losses))
        if steps_to_hit["meta"] <= steps_to_hit["random"]:
            wins += 1
    assert wins * 2 > len(heldout), f"adaptation-speed majority failed: {wins}/{len(heldout)}"
    print(f"INVARIANT adaptation-speed PASS: meta reaches the random-init dev-loss "
          f"threshold at least as fast on {wins}/{len(heldout)} held-out DLPs")


# ---------------------------------------------------------------------------
# criterion 9: domain-transfer and language-transfer analogs
# ---------------------------------------------------------------------------

def test_criterion_09_transfer_analogs(experiment):
    spec = experiment["spec"]
    heldout_all = experiment["heldout_all"]
    seen_langs = [l for l in spec.languages if l not in spec.heldout_languages]
    domain_transfer = {d: ds for d, ds in heldout_all.items()
                       if d.domain in spec.heldout_domains
                       and d.src_lang in seen_langs and d.tgt_lang in seen_langs}
    language_transfer = {d: ds for d, ds in heldout_all.items()
                         if d.domain not in spec.heldout_domains}
    domain_transfer = {d: domain_transfer[d] for d in sorted(domain_transfer)[:2]}
    language_transfer = {d: language_transfer[d] for d in sorted(language_transfer)[:2]}
    trained = experiment["trained"][1]
    out_dir = experiment["out_root"] / "transfer_reports"
    ok = True
    details = []
    for name, group in (("domain_transfer", domain_transfer),
                        ("language_transfer", language_transfer)):
        assert group, f"{name}: no DLPs in the registry"
        records = []
        for strategy in ("meta_adapter", "random_adapter"):
            for dlp in sorted(group):
                records.append(adapt_and_evaluate(
                    strategy, dlp, group[dlp], mc=experiment["mc"], ac=experiment["ac"],
                    vocab=experiment["vocab"], backbone=experiment["backbone"],
                    trained=trained, budget=experiment["budget"], run_seed=1,
                    max_len=experiment["max_len"]))
        write_records(records, out_dir / f"{name}_metrics.csv")
        table = aggregate(records, "domain", reference="random_adapter")
        write_report(table, out_dir / f"{name}_table.csv")
        meta = _mean(r.bleu for r in records if r.strategy == "meta_adapter")
        rand = _mean(r.bleu for r in records if r.strategy == "random_adapter")
        ok = ok and meta > rand
        details.append(f"{name}: meta {meta:.1f} > random {rand:.1f} over {len(group)} DLPs")
    emitted = all((out_dir / f"{n}_table.csv").exists()
                  for n in ("domain_transfer", "language_transfer"))
    _report(9, ok and emitted, "; ".join(details) + "; report tables emitted")


# ---------------------------------------------------------------------------
# criterion 10: temperature / shot sweep emission and determinism
# ---------------------------------------------------------------------------

def test_criterion_10_sweep_probe(tmp_path):
    spec = SyntheticWorldSpec(
        languages=("apa", "bel", "cor"), domains=("general", "gears", "herbs"),
        pretrain_domain="general", heldout_domains=("herbs",), heldout_languages=(),
        content_vocab_size=40, domain_vocab_size=14, neutral_len=(3, 6),
        specialist_len=(4, 8), train_size=64, adapt_size=16, valid_size=8, test_size=8,
        seed=10)
    registry = generate_world(spec, tmp_path / "world")
    vocab = Vocab.load(registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.0)
    ac = AdapterConfig(bottleneck_dim=4)
    model, _ = pretrain_backbone(registry, vocab, mc, ac, OptimizerSettings(lr=3e-3),
                                 epochs=1, batch_size=16, seed=0, max_steps=30)
    backbone = {n: model.params[n].data.copy() for n in model.params}
    meta_ds = role_datasets(registry, "meta_train")
    heldout = role_datasets(registry, "heldout")
    heldout = {d: heldout[d] for d in sorted(heldout)[:2]}
    base = MetaConfig(m=2, n=4, q=2, k=1, epochs=1, seed=6, max_meta_batches=4,
                      inner=OptimizerSettings(lr=3e-3))
    budget = AdaptBudget(epochs=1, batch_size=8, settings=OptimizerSettings(lr=3e-3),
                         max_steps=2)
    tau_grid = [{"tau": 1.0}, {"tau": 2.0}, {"tau": 5.0}, {"tau": math.inf}]
    shots_grid = [{"n": n} for n in (2, 4, 8, 16, 32)]

    outputs = []
    for repeat in range(2):
        tau_rows = hyperparam_sweep(tau_grid, base, mc=mc, ac=ac, vocab=vocab,
                                    backbone=backbone, meta_datasets=meta_ds,
                                    heldout=heldout, budget=budget, max_len=12)
        shot_rows = hyperparam_sweep(shots_grid, base, mc=mc, ac=ac, vocab=vocab,
                                     backbone=backbone, meta_datasets=meta_ds,
                                     heldout=heldout, budget=budget, max_len=12)
        tau_path = tmp_path / f"sweep_tau_{repeat}.csv"
        shots_path = tmp_path / f"sweep_shots_{repeat}.csv"
        write_sweep(tau_rows, tau_path)
        write_sweep(shot_rows, shots_path)
        outputs.append((tau_path.read_bytes(), shots_path.read_bytes()))
    deterministic = outputs[0] == outputs[1]
    tau_lines = outputs[0][0].decode().strip().split("\n")
    shot_lines = outputs[0][1].decode().strip().split("\n")
    _report(10, deterministic and len(tau_lines) == 5 and len(shot_lines) == 6,
            f"tau table ({len(tau_lines) - 1} rows) and shots table ({len(shot_lines) - 1} rows) "
            f"emitted; byte-identical across repeated runs")
