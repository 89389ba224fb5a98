"""Tests of the benchmark itself, on a tiny world; they run in seconds.

    python3 -m pytest perfbench/tests -q

They cover the printed result and its format, the traced spans firing with
counts that repeat, and the correctness checks rejecting wrong output.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run
import tracing

inputs.import_program()

from metadapt import checkpoint, metrics, pipeline, tensor, training  # noqa: E402
from metadapt.corpus import SyntheticWorldSpec, Vocab  # noqa: E402
from metadapt.model import build_model, forward_loss, greedy_decode, make_batch  # noqa: E402
from metadapt.optim import OptimizerSettings  # noqa: E402
from metadapt.tasks import DlpId  # noqa: E402
from workloads import CHUNKS, WORKLOADS, Env, model_configs  # noqa: E402

BENCHMARK = json.loads((inputs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_RAW = {
    "model": {"model_dim": 16, "num_layers": 1, "num_heads": 2, "ffn_dim": 24,
              "max_seq_len": 24, "dropout": 0.1},
    "adapter": {"bottleneck_dim": 4, "ln_epsilon": 1e-5},
    "pretrain": {"epochs": 10, "lr": 0.003, "batch_size": 8, "weight_decay": 0.0,
                 "max_steps": None},
    "meta": {"m": 2, "n": 4, "q": 4, "k": 2, "beta": 1.0, "tau": 1.0, "epochs": 10,
             "inner_lr": 0.03, "max_meta_batches": None},
    "eval": {"max_len": 10},
}

#: Workloads on which each per-layer metric must read non-zero.
MOVES = {
    "tensor.backward_s": "meta-train pretrain",
    "tensor.backward_calls": "meta-train pretrain",
    "tensor.tape_nodes": "meta-train pretrain",
    "model.forward_train_s": "meta-train pretrain",
    "model.forward_eval_s": "meta-train translate",
    "model.greedy_decode_s": "translate",
    "model.decode_logits_calls": "translate",
    "model.decoder_positions": "translate",
    "optim.step_s": "meta-train pretrain",
    "optim.steps": "meta-train pretrain",
    "tasks.episode_s": "meta-train",
    "training.inner_adapt_s": "meta-train",
    "training.reptile_step_s": "meta-train",
    "training.snapshot_restore_s": "meta-train",
    "training.supervised_train_s": "pretrain",
    "pipeline.evaluate_dlp_s": "translate",
    "metrics.score_s": "translate",
    "checkpoint.load_params_s": "meta-train translate",
}


def tiny_spec():
    return SyntheticWorldSpec(
        languages=("apa", "bel", "cor"), domains=("general", "gears", "herbs"),
        pretrain_domain="general", heldout_domains=("herbs",), heldout_languages=("cor",),
        content_vocab_size=40, domain_vocab_size=14, neutral_len=(3, 5),
        specialist_len=(5, 8), train_size=40, adapt_size=16, valid_size=8, test_size=8,
        seed=0)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")

    def backbone(registry, mc, ac):
        # A briefly pretrained backbone, so that adapters have something to
        # adapt and the meta-train loss check holds on the tiny world.
        path = root / "backbone.ckpt"
        if not path.exists():
            vocab = Vocab.load(registry.root / "vocab.json")
            mc0, _ = model_configs(TINY_RAW, len(vocab), dropout=0.0)
            model, _ = pipeline.pretrain_backbone(registry, vocab, mc0, ac,
                                                  OptimizerSettings(lr=0.01), epochs=10,
                                                  batch_size=8, seed=0, max_steps=200)
            checkpoint.save_params(path, {n: p.data for n, p in model.params.items()})
        return checkpoint.load_params(path)

    return Env(raw=TINY_RAW, spec=tiny_spec(), work_dir=root / "work", backbone=backbone)


@pytest.fixture(scope="module")
def tiny_model(env, tmp_path_factory):
    registry, vocab = inputs.generate(env.spec, tmp_path_factory.mktemp("world"))
    mc, ac = model_configs(TINY_RAW, len(vocab), dropout=0.0)
    return build_model(mc, ac, seed=3, adapter_groups=()), vocab, registry


# ---------------------------------------------------------------------------
# printout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(env, name):
    result = run.measure(WORKLOADS[name], env, seed=1, seconds=BENCHMARK["run_seconds"])
    assert result["errors"] == []
    out, lines = run.render(result, run.end_to_end(result), run.environment())
    last = json.loads(lines[-1])
    assert last == out
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= result["rounds"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for metric, body in last["metrics"].items():
        assert isinstance(body["value"], float) and body["value"] > 0
        assert any(line.startswith(f"{metric} ") for line in lines[:-1])
    assert any(line.startswith("environment ") for line in lines)


def test_run_size_follows_seconds():
    for workload in WORKLOADS.values():
        assert workload.chunk_rounds(0.001) == 1
        assert workload.chunk_rounds(BENCHMARK["run_seconds"]) \
            == round(BENCHMARK["run_seconds"] * workload.rounds_per_second / CHUNKS)


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_spans_fire_and_counts_repeat(env, name):
    originals = (tensor.matmul, tensor.backward, pipeline.greedy_decode,
                 training.forward_loss, pipeline.evaluate_dlp)
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        result = run.measure(WORKLOADS[name], env, seed=2, seconds=BENCHMARK["run_seconds"],
                             tracer=tracer)
        assert result["errors"] == []
        layer = run.per_layer(tracer, name)   # raises when a span never fired
        assert {k: unit for k, (_, unit) in layer.items()} == \
            {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for metric, (value, _) in layer.items():
            if metric.startswith("tensor.fwd") or metric.startswith("corpus.") \
                    or metric in ("tensor.matmul_gflop", "model.make_batch_s", "model.batches"):
                assert value > 0, metric
            elif metric in MOVES:
                assert (value > 0) == (name in MOVES[metric].split()), metric
        ids = {span[0] for span in tracer.spans}
        assert len(ids) == len(tracer.spans)
        assert all(parent == -1 or parent in ids for *_, parent in tracer.spans)
        assert all(start <= end for _, _, start, end, _ in tracer.spans)
        seen.append((dict(tracer.calls), dict(tracer.counts)))
    assert seen[0] == seen[1]
    assert (tensor.matmul, tensor.backward, pipeline.greedy_decode,
            training.forward_loss, pipeline.evaluate_dlp) == originals


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.total["outer"] == 5.0 and tracer.self_time["outer"] == 3.0
    assert tracer.total["inner"] == 2.0 and tracer.self_time["inner"] == 2.0
    by_name = {name: (span_id, parent) for span_id, name, _, _, parent in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]


# ---------------------------------------------------------------------------
# correctness checks reject wrong output
# ---------------------------------------------------------------------------

def _corpus(rng, n):
    words = ["a", "b", "c", "d", "ab", "ba"]
    return [" ".join(rng.choice(words, size=int(rng.integers(0, 7)))) for _ in range(n)]


def test_scores_agree_with_program_and_reject_a_wrong_record():
    rng = np.random.default_rng(0)
    for _ in range(50):
        hyps, refs = _corpus(rng, 5), _corpus(rng, 5)
        assert abs(checks.bleu(hyps, refs) - metrics.corpus_bleu(hyps, refs)) < 1e-9
        assert abs(checks.chrf(hyps, refs) - metrics.chrf(hyps, refs)) < 1e-9
    hyps, refs = ["a b c d", "b c"], ["a b c d", "b d"]
    record = metrics.MetricsRecord(dlp=DlpId("gears", "apa", "bel"), strategy="x",
                                   bleu=metrics.corpus_bleu(hyps, refs),
                                   chrf=metrics.chrf(hyps, refs), loss=1.0,
                                   trainable_params=1, trainable_ratio=1.0)
    assert checks.check_scores(record, hyps, refs) == []
    record.bleu += 1e-6
    assert checks.check_scores(record, hyps, refs)
    record.bleu -= 1e-6
    record.loss = math.inf
    assert checks.check_scores(record, hyps, refs)


def test_greedy_check_accepts_decoder_output_and_rejects_edits(tiny_model):
    model, vocab, registry = tiny_model
    ds = pipeline.role_datasets(registry, "heldout")
    dlp = sorted(ds)[0]
    sources = [s for s, _ in ds[dlp].test]
    hyps = greedy_decode(model, vocab, sources, dlp.src_lang, dlp.tgt_lang, 10)
    errors, emitted = checks.check_greedy(model, vocab, dlp.src_lang, dlp.tgt_lang,
                                          sources, hyps, 10)
    assert errors == [] and emitted >= len(hyps)
    content = [t for t in vocab.tokens if not vocab.is_special(vocab.index[t])]
    for r, hyp in enumerate(hyps):
        toks = hyp.split()
        swapped = [content[0] if toks[:1] != [content[0]] else content[1]] + toks[1:]
        edits = [" ".join(swapped), hyp + " " + content[2]]
        if toks:
            edits.append(" ".join(toks[:-1]))
        for edit in edits:
            bad = hyps[:r] + [edit] + hyps[r + 1:]
            errors, _ = checks.check_greedy(model, vocab, dlp.src_lang, dlp.tgt_lang,
                                            sources, bad, 10)
            assert errors, (hyp, edit)


def test_training_checks_reject_wrong_output():
    assert checks.check_decrease([3.0, 2.0, 1.0, 0.5], 2, 0.9, "x") == []
    assert checks.check_decrease([3.0, 3.0, 3.0, 2.9], 2, 0.9, "x")
    assert checks.check_decrease([3.0, 2.0, math.nan, math.nan], 2, 0.9, "x")
    before = {"w": np.zeros(3)}
    assert checks.check_moved({"w": np.ones(3)}, before, "x") == []
    assert checks.check_moved({"w": np.zeros(3)}, before, "x")
    assert checks.check_moved({"w": np.array([1.0, np.nan, 1.0])}, before, "x")


def test_gradient_check_rejects_a_wrong_gradient(tiny_model):
    model, vocab, registry = tiny_model
    ds = pipeline.role_datasets(registry, "pretrain")
    dlp = sorted(ds)[0]
    batch = make_batch(ds[dlp].train[:4], vocab, dlp)
    model.set_trainable(list(model.params))
    for p in model.params.values():
        p.zero_grad()
    with tensor.use_tape(tensor.Tape()):
        tensor.backward(forward_loss(model, batch))

    def loss():
        return forward_loss(model, batch)

    try:
        assert checks.check_gradient(loss, model.params, np.random.default_rng(1), 12) == []
        w1 = model.params["enc/0/ffn/w1"]
        w1.grad += 1e-3
        assert checks.check_gradient(loss, {"enc/0/ffn/w1": w1}, np.random.default_rng(1), 4)
    finally:
        model.set_trainable([])


def test_backbone_with_a_flipped_byte_is_refused(tmp_path, monkeypatch):
    bad = tmp_path / "backbone.ckpt"
    raw = bytearray(inputs.BACKBONE_CKPT.read_bytes())
    raw[len(raw) // 2] ^= 1
    bad.write_bytes(bytes(raw))
    monkeypatch.setattr(inputs, "BACKBONE_CKPT", bad)
    with pytest.raises(inputs.BenchError, match="checksum"):
        inputs.load_backbone(registry=None, mc=None, ac=None)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(inputs.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(inputs.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "translate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "src/metadapt/__init__.py not found" in proc.stderr
