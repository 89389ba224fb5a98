"""The three workloads: set-up, timed phase, token count and checks.

Each workload drives the program through its public functions only. The
workload seed drives every sampling choice; the world itself is the
acceptance world, regenerated by every set-up. The timed phase is CHUNKS
chunks of equal size, each a call (or a few calls) into the program; its
size in rounds (meta-batches, evaluated samples, optimizer steps) is fixed
from --seconds before timing starts, so one seed and run length always do
the same work, on every commit, and the per-layer counts repeat exactly.

Import this module after `inputs.import_program()`. It binds the program's
functions at import, so the benchmark's own calls made while a traced run
has wrapped them (restoring the backbone, replaying batches) stay out of
the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks
from inputs import generate, load_backbone, model_configs
from metadapt import pipeline, training
from metadapt import tensor as T
from metadapt.model import build_model, forward_loss, get_adapter_params, hash_seed
from metadapt.optim import OptimizerSettings
from metadapt.tasks import SamplingPlan, build_episode, sample_dlps
from metadapt.training import (
    MetaConfig,
    episode_stream,
    make_mixed_batch,
    pooled_rows,
    restore_params,
    sample_stream,
)


@dataclass
class Env:
    """What a set-up builds from: configs, world spec, where to write."""

    raw: dict                  # configs/acceptance.json
    spec: object               # SyntheticWorldSpec of the world to generate
    work_dir: Path
    backbone: Callable = load_backbone   # (registry, mc, ac) -> parameter map


#: Timed chunks per run; tokens_per_s is taken over their rates (README).
CHUNKS = 8


class Workload:
    name = ""
    #: Rounds per second of the timed phase on the reference box (README),
    #: which makes a run last about --seconds there.
    rounds_per_second = 1.0

    def chunk_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.rounds_per_second / CHUNKS))

    def setup(self, env: Env, seed: int, chunk_rounds: int, world_dir: Path):
        """Build everything the timed phase needs; `state.chunks` lists the
        CHUNKS chunk specifications that run_chunk takes one at a time."""
        raise NotImplementedError

    def run_chunk(self, state, chunk) -> dict:
        raise NotImplementedError

    def finish(self, state, outputs: list[dict]) -> tuple[list[int], int, list[str]]:
        """Target tokens of each chunk, operations attempted, check failures."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# meta-train: Reptile stage one, adapter only, frozen backbone
# ---------------------------------------------------------------------------

class MetaTrain(Workload):
    """Each chunk is one `meta_train` call of chunk_rounds meta-batches with
    its own derived seed, continuing from the adapter the last one left."""

    name = "meta-train"
    rounds_per_second = 2.0

    def setup(self, env, seed, chunk_rounds, world_dir):
        registry, vocab = generate(env.spec, world_dir)
        datasets = pipeline.role_datasets(registry, "meta_train")
        mc, ac = model_configs(env.raw, len(vocab))
        model = build_model(mc, ac, seed=hash_seed(seed, 50), adapter_groups=("main",))
        restore_params(model, env.backbone(registry, mc, ac))
        meta = dict(env.raw["meta"])
        inner = OptimizerSettings(lr=meta.pop("inner_lr"))
        meta["max_meta_batches"] = chunk_rounds
        chunks = [MetaConfig(seed=hash_seed(seed, 60, k), inner=inner, **meta)
                  for k in range(CHUNKS)]
        return SimpleNamespace(vocab=vocab, datasets=datasets, model=model, chunks=chunks,
                               chunk_rounds=chunk_rounds, checksum=model.backbone_checksum(),
                               start=get_adapter_params(model))

    def run_chunk(self, state, cfg):
        snapshot, log = training.meta_train(state.model, state.vocab, state.datasets, cfg)
        return {"snapshot": snapshot.tensors,
                "steps": [entry for entry in log if "meta_batch_loss" in entry]}

    def finish(self, state, outputs):
        errors = []
        if state.model.backbone_checksum() != state.checksum:
            errors.append("backbone checksum changed during meta-training")
        errors += checks.check_moved(outputs[-1]["snapshot"], state.start, "adapter")
        if get_adapter_params(state.model).keys() != outputs[-1]["snapshot"].keys():
            errors.append("model adapter layout differs from the returned snapshot")
        losses = [s["meta_batch_loss"] for out in outputs for s in out["steps"]]
        errors += checks.check_decrease(losses, max(2, len(losses) // 4), 0.9,
                                        "meta-batch query loss")
        # Replay the documented episode streams to count the gold tokens of
        # every inner step; the tasks must match the ones the run logged.
        plan = SamplingPlan.build(state.datasets, state.chunks[0].tau)
        tokens = []
        for cfg, out in zip(state.chunks, outputs):
            if len(out["steps"]) != state.chunk_rounds:
                errors.append(f"ran {len(out['steps'])} meta-batches, "
                              f"asked for {state.chunk_rounds}")
            replace = cfg.sample_with_replacement or cfg.m > len(state.datasets)
            chunk_tokens = 0
            for entry in out["steps"]:
                step = entry["step"]
                dlps = sample_dlps(plan, cfg.m, sample_stream(cfg.seed, step), replace=replace)
                episode = build_episode(dlps, state.datasets, cfg.n, cfg.q,
                                        episode_stream(cfg.seed, step))
                if sorted(t.dlp.key() for t in episode.tasks) != sorted(entry["task_losses"]):
                    errors.append(f"meta-batch {step}: replayed tasks differ from the logged ones")
                chunk_tokens += cfg.k * sum(len(tgt.split()) + 1 for t in episode.tasks
                                            for _, tgt in t.support)
            tokens.append(chunk_tokens)
        return tokens, len(losses), errors


# ---------------------------------------------------------------------------
# translate: greedy decoding and scoring of held-out samples, no grad
# ---------------------------------------------------------------------------

class Translate(Workload):
    """Each round is one `evaluate_dlp` call on a seeded sample of one
    seeded held-out task's test split; a chunk is chunk_rounds of them."""

    name = "translate"
    rounds_per_second = 12.5
    #: Sentences per evaluated sample.
    sample_size = 32

    def setup(self, env, seed, chunk_rounds, world_dir):
        registry, vocab = generate(env.spec, world_dir)
        heldout = pipeline.role_datasets(registry, "heldout")
        mc, ac = model_configs(env.raw, len(vocab))
        model = build_model(mc, ac, seed=hash_seed(seed, 51), adapter_groups=("main",))
        restore_params(model, env.backbone(registry, mc, ac))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        ids = sorted(heldout)
        chunks = []
        for _ in range(CHUNKS):
            samples = []
            for _ in range(chunk_rounds):
                dlp = ids[int(rng.integers(len(ids)))]
                test = heldout[dlp].test
                picked = rng.choice(len(test), min(self.sample_size, len(test)), replace=False)
                samples.append((dlp, [test[i] for i in picked]))
            chunks.append(samples)
        return SimpleNamespace(vocab=vocab, model=model, chunks=chunks,
                               max_len=env.raw["eval"]["max_len"])

    def run_chunk(self, state, samples):
        decode = pipeline.greedy_decode
        hyps = []

        def keep_hypotheses(*args, **kwargs):
            out = decode(*args, **kwargs)
            hyps.append(out)
            return out

        pipeline.greedy_decode = keep_hypotheses
        try:
            records = [pipeline.evaluate_dlp(state.model, state.vocab, dlp, pairs,
                                             "random_adapter", state.max_len)
                       for dlp, pairs in samples]
        finally:
            pipeline.greedy_decode = decode
        return {"records": records, "hyps": hyps}

    def finish(self, state, outputs):
        errors = []
        tokens = []
        for samples, out in zip(state.chunks, outputs):
            if len(out["hyps"]) != len(samples):
                errors.append(f"evaluate_dlp made {len(out['hyps'])} pipeline.greedy_decode "
                              f"calls for {len(samples)} samples")
                tokens.append(0)
                continue
            chunk_tokens = 0
            for (dlp, pairs), record, hyps in zip(samples, out["records"], out["hyps"]):
                failed, emitted = checks.check_greedy(state.model, state.vocab, dlp.src_lang,
                                                      dlp.tgt_lang, [s for s, _ in pairs],
                                                      hyps, state.max_len)
                errors += failed + checks.check_scores(record, hyps, [t for _, t in pairs])
                chunk_tokens += emitted
            tokens.append(chunk_tokens)
        attempted = sum(len(pairs) for samples in state.chunks for _, pairs in samples)
        return tokens, attempted, errors


# ---------------------------------------------------------------------------
# pretrain: every parameter trained from scratch
# ---------------------------------------------------------------------------

class Pretrain(Workload):
    """Each chunk is one `pretrain_backbone` call of chunk_rounds optimizer
    steps from scratch, with its own derived seed."""

    name = "pretrain"
    rounds_per_second = 21.0
    gradient_samples = 24

    def setup(self, env, seed, chunk_rounds, world_dir):
        registry, vocab = generate(env.spec, world_dir)
        mc, ac = model_configs(env.raw, len(vocab), dropout=0.0)
        return SimpleNamespace(registry=registry, vocab=vocab, mc=mc, ac=ac,
                               chunk_rounds=chunk_rounds, pre=env.raw["pretrain"],
                               chunks=[hash_seed(seed, 61, k) for k in range(CHUNKS)])

    def run_chunk(self, state, seed):
        model, losses = pipeline.pretrain_backbone(
            state.registry, state.vocab, state.mc, state.ac,
            OptimizerSettings(lr=state.pre["lr"]), epochs=state.pre["epochs"],
            batch_size=state.pre["batch_size"], seed=seed, max_steps=state.chunk_rounds)
        return {"params": {n: p.data for n, p in model.params.items()}, "losses": losses}

    def finish(self, state, outputs):
        rows = pooled_rows(pipeline.role_datasets(state.registry, "pretrain"))
        errors = []
        tokens = []
        for seed, out in zip(state.chunks, outputs):
            losses = out["losses"]
            if len(losses) != state.chunk_rounds:
                errors.append(f"ran {len(losses)} steps, asked for {state.chunk_rounds}")
            errors += checks.check_decrease(losses, max(1, len(losses) // 5), 1.0,
                                            "pretraining loss")
            init = build_model(state.mc, state.ac, seed=seed, adapter_groups=())
            errors += checks.check_moved(out["params"],
                                         {n: p.data for n, p in init.params.items()},
                                         "backbone")
            batches = self._replay(rows, seed, state.pre["batch_size"], len(losses))
            tokens.append(sum(len(tgt.split()) + 1 for b in batches for _, (_, tgt) in b))
            # The first replayed batch must be the one the first step trained on.
            with T.no_grad():
                first = float(forward_loss(init, make_mixed_batch(batches[0], state.vocab)).data)
            if not math.isclose(first, losses[0], rel_tol=1e-9):
                errors.append(f"replayed first batch loss {first!r} != logged {losses[0]!r}")
        # Central differences against the analytic gradient on a seeded batch.
        model = build_model(state.mc, state.ac, seed=state.chunks[-1], adapter_groups=())
        restore_params(model, outputs[-1]["params"])
        rng = np.random.default_rng(np.random.SeedSequence([state.chunks[-1], 4]))
        batch = make_mixed_batch([rows[i] for i in rng.choice(len(rows), 8, replace=False)],
                                 state.vocab)
        model.set_trainable(list(model.params))
        with T.use_tape(T.Tape()):
            T.backward(forward_loss(model, batch))
        errors += checks.check_gradient(lambda: forward_loss(model, batch), model.params, rng,
                                        self.gradient_samples)
        return tokens, sum(len(out["losses"]) for out in outputs), errors

    @staticmethod
    def _replay(rows, seed: int, batch_size: int, steps: int) -> list:
        """The first `steps` batches supervised_train draws: one seeded
        permutation of the pooled rows per epoch, cut into batches."""
        batches = []
        epoch = 0
        while len(batches) < steps:
            order = np.random.default_rng(np.random.SeedSequence([seed, 31, epoch])) \
                .permutation(len(rows))
            batches += [[rows[i] for i in order[lo : lo + batch_size]]
                        for lo in range(0, len(order), batch_size)]
            epoch += 1
        return batches[:steps]


WORKLOADS = {w.name: w for w in (MetaTrain(), Translate(), Pretrain())}
