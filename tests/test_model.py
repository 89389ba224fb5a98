import math

import numpy as np
import pytest

from metadapt import tensor as T
from metadapt.corpus import Vocab, load_dlp_dataset
from metadapt.errors import ConfigError, DimensionError, InputError, StateError
from metadapt.gradcheck import grad_check
from metadapt.model import (
    AdapterConfig,
    Batch,
    ModelConfig,
    adapter_forward,
    adapter_param_count,
    build_model,
    forward_loss,
    get_adapter_params,
    greedy_decode,
    make_batch,
    restore_params,
)
from metadapt.optim import AdamW, OptimizerSettings
from metadapt.tasks import DlpId
from metadapt.tensor import Tensor


def tiny_mc(vocab_size=23):
    return ModelConfig(vocab_size=vocab_size, model_dim=16, num_layers=1,
                       num_heads=2, ffn_dim=24, max_seq_len=16, dropout=0.0)


def tiny_ac():
    return AdapterConfig(bottleneck_dim=4)


def random_batch(mc, rng, batch=3, ts=5, tt=4):
    src = rng.integers(4, mc.vocab_size, size=(batch, ts))
    gold = rng.integers(4, mc.vocab_size, size=(batch, tt))
    dec_in = np.concatenate([np.ones((batch, 1), dtype=np.int64), gold[:, :-1]], axis=1)
    return Batch(src=src.astype(np.int64), src_mask=np.ones((batch, ts)),
                 dec_in=dec_in, gold=gold.astype(np.int64), gold_mask=np.ones((batch, tt)))


# --- configs and partition ---------------------------------------------------

def test_invalid_dims_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, model_dim=10, num_heads=3)
    with pytest.raises(ConfigError):
        AdapterConfig(bottleneck_dim=64).validate(model_dim=64)


def test_partition_total_and_disjoint():
    model = build_model(tiny_mc(), tiny_ac(), seed=0)
    backbone, adapters = model.backbone_names(), model.adapter_names()
    assert set(backbone) | set(adapters) == set(model.params)
    assert not set(backbone) & set(adapters)
    assert all("/adapter/" in n for n in adapters)


def test_adapter_param_count_closed_form_vs_enumeration():
    mc, ac = tiny_mc(), tiny_ac()
    model = build_model(mc, ac, seed=1)
    per_layer = adapter_param_count(mc.model_dim, ac.bottleneck_dim)
    assert per_layer == 2 * mc.model_dim * ac.bottleneck_dim + 2 * mc.model_dim + ac.bottleneck_dim + mc.model_dim
    enumerated = sum(model.params[n].size for n in model.adapter_names())
    assert enumerated == per_layer * 2 * mc.num_layers  # encoder + decoder stacks


def test_same_seed_bitwise_identical_parameters():
    a = build_model(tiny_mc(), tiny_ac(), seed=7)
    b = build_model(tiny_mc(), tiny_ac(), seed=7)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_identity_at_insertion_exact():
    rng = np.random.default_rng(0)
    mc, ac = tiny_mc(), tiny_ac()
    plain = build_model(mc, ac, seed=3, adapter_groups=())
    adapted = build_model(mc, ac, seed=3, adapter_groups=("main",))
    for _ in range(10):
        batch = random_batch(mc, rng)
        with T.no_grad():
            la = plain.forward_logits(batch)
            lb = adapted.forward_logits(batch)
        assert np.array_equal(la.data, lb.data)


# --- adapter forward ---------------------------------------------------------

def _adapter_params(z, d, down, up):
    return {
        "ln_g": Tensor(np.ones(z)), "ln_b": Tensor(np.zeros(z)),
        "down_w": Tensor(down), "down_b": Tensor(np.zeros(d)),
        "up_w": Tensor(up), "up_b": Tensor(np.zeros(z)),
    }


def test_adapter_forward_identity_when_up_is_zero():
    rng = np.random.default_rng(1)
    h = Tensor(rng.normal(size=(2, 3, 6)))
    params = _adapter_params(6, 2, rng.normal(size=(6, 2)), np.zeros((2, 6)))
    out = adapter_forward(h, params)
    assert np.array_equal(out.data, h.data)


def test_adapter_forward_hand_evaluation():
    # h=[1,-1]; LN with tiny epsilon ~ identity here; identity projections
    h = Tensor(np.array([[1.0, -1.0]]))
    params = _adapter_params(2, 2, np.eye(2), np.eye(2))
    out = adapter_forward(h, params, ln_epsilon=1e-12)
    np.testing.assert_allclose(out.data, [[2.0, -1.0]], atol=1e-6)


def test_adapter_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    z, d = 6, 3
    h = rng.normal(size=(2, 4, z))
    params = _adapter_params(z, d, rng.uniform(-0.3, 0.3, size=(z, d)), rng.uniform(-0.3, 0.3, size=(d, z)))
    for p in params.values():
        p.set_requires_grad(True)
    weights = rng.normal(size=(2, 4, z))

    def f():
        return T.tensor_sum(T.mul(adapter_forward(Tensor(h), params), Tensor(weights)))

    report = grad_check(f, {k: v for k, v in params.items()}, tol=1e-4)
    assert report.passed, report


def test_adapter_shape_mismatch():
    params = _adapter_params(4, 2, np.zeros((4, 2)), np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        adapter_forward(Tensor(np.zeros((1, 5))), params)


# --- loss and decoding --------------------------------------------------------

def test_forward_loss_uniform_logits_is_log_vocab():
    mc = tiny_mc()
    model = build_model(mc, tiny_ac(), seed=2)
    model.params["embed/tok"].data[:] = 0.0  # zero embeddings -> uniform logits
    batch = random_batch(mc, np.random.default_rng(3))
    loss = forward_loss(model, batch)
    assert float(loss.data) == pytest.approx(math.log(mc.vocab_size), rel=1e-9)


def test_forward_loss_reproducible_bitwise():
    mc = tiny_mc()
    batch = random_batch(mc, np.random.default_rng(4))
    losses = []
    for _ in range(2):
        model = build_model(mc, tiny_ac(), seed=11)
        losses.append(forward_loss(model, batch).data.copy())
    assert np.array_equal(losses[0], losses[1])


def _fit_single_pair(model, vocab, dlp, pair, steps=220, lr=3e-3):
    batch = make_batch([pair], vocab, dlp)
    model.set_trainable(list(model.params))
    opt = AdamW(dict(model.params), OptimizerSettings(lr=lr))
    for _ in range(steps):
        loss = forward_loss(model, batch)
        T.backward(loss)
        opt.step()
    return float(loss.data)


def test_greedy_decode_reproduces_memorized_pair(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    dlp = DlpId("gears", "apa", "bel")
    pair = load_dlp_dataset(tiny_registry, dlp).train[0]
    mc = ModelConfig(vocab_size=len(vocab), model_dim=32, num_layers=1, num_heads=2,
                     ffn_dim=48, max_seq_len=24, dropout=0.0)
    model = build_model(mc, tiny_ac(), seed=0)
    final_loss = _fit_single_pair(model, vocab, dlp, pair)
    assert final_loss < 0.05
    hyp = greedy_decode(model, vocab, [pair[0]], "apa", "bel", max_len=20)[0]
    assert hyp == pair[1]


def test_greedy_decode_invariant_to_source_padding(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.0)
    model = build_model(mc, tiny_ac(), seed=6)
    ds = load_dlp_dataset(tiny_registry, DlpId("gears", "apa", "bel"))
    short = ds.train[0][0]
    long = max((s for s, _ in ds.train), key=lambda s: len(s.split()))
    alone = greedy_decode(model, vocab, [short], "apa", "bel", max_len=8)
    padded = greedy_decode(model, vocab, [short, long], "apa", "bel", max_len=8)
    assert alone[0] == padded[0]


def test_greedy_decode_respects_max_len(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.0)
    model = build_model(mc, tiny_ac(), seed=8)
    for max_len in (1, 3, 6):
        hyps = greedy_decode(model, vocab, ["w001 w002"], "apa", "bel", max_len=max_len)
        assert len(hyps[0].split()) <= max_len


def test_greedy_decode_unknown_language_tag(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = build_model(ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=1,
                                    num_heads=2, ffn_dim=24, max_seq_len=24), tiny_ac(), seed=0)
    with pytest.raises(InputError):
        greedy_decode(model, vocab, ["w001"], "apa", "nolang", max_len=4)


def _cache_model(vocab, max_seq_len=24):
    """Two decoder layers, two adapter groups moved off the identity point."""
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=2, num_heads=2,
                     ffn_dim=24, max_seq_len=max_seq_len, dropout=0.0)
    model = build_model(mc, tiny_ac(), seed=14, adapter_groups=("main", "extra"))
    rng = np.random.default_rng(15)
    for name in model.adapter_names():
        model.params[name].data += rng.normal(0.0, 0.1, size=model.params[name].shape)
    return model


def _domain_tagged_sources(vocab, sources):
    """Padded source batch as greedy_decode builds it, with the gears domain tag."""
    from metadapt.corpus import tokenize

    tags = [vocab.domain_tag("gears"), vocab.lang_tag("apa"), vocab.lang_tag("bel")]
    rows = [tags + tokenize(s, vocab) + [vocab.eos_id] for s in sources]
    src = np.full((len(rows), max(map(len, rows))), vocab.pad_id, dtype=np.int64)
    src_mask = np.zeros(src.shape)
    for r, row in enumerate(rows):
        src[r, : len(row)] = row
        src_mask[r, : len(row)] = 1.0
    return src, src_mask


def test_decoder_cache_step_logits_match_full_prefix(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = _cache_model(vocab)
    sources = [s for s, _ in load_dlp_dataset(tiny_registry, DlpId("gears", "apa", "bel")).train[:5]]
    src, src_mask = _domain_tagged_sources(vocab, sources)
    with T.no_grad():
        enc = model.encode(src, src_mask)
        cache = model.decoder_cache(enc)
        prefix = np.full((len(sources), 1), vocab.bos_id, dtype=np.int64)
        for _ in range(12):
            step = model.decode_logits(enc, src_mask, prefix[:, -1:], np.ones((len(sources), 1)),
                                       cache=cache).data
            full = model.decode_logits(enc, src_mask, prefix, np.ones(prefix.shape)).data
            assert step.shape == (len(sources), 1, len(vocab))
            np.testing.assert_allclose(step[:, 0], full[:, -1], rtol=0.0, atol=1e-9)
            prefix = np.concatenate([prefix, full[:, -1].argmax(axis=-1)[:, None]], axis=1)
    with pytest.raises(StateError):
        model.decode_logits(enc, src_mask, prefix[:, -1:], np.ones((len(sources), 1)),
                            cache=model.decoder_cache(enc))


def test_greedy_decode_matches_full_prefix_reference(tiny_registry):
    from metadapt.corpus import detokenize

    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = _cache_model(vocab)
    sources = [s for s, _ in load_dlp_dataset(tiny_registry, DlpId("gears", "apa", "bel")).train[:8]]
    max_len = 14
    src, src_mask = _domain_tagged_sources(vocab, sources)
    # reference: re-run the decoder over the whole prefix at every step
    with T.no_grad():
        enc = model.encode(src, src_mask)
        out = np.full((len(sources), 1), vocab.bos_id, dtype=np.int64)
        done = np.zeros(len(sources), dtype=bool)
        for _ in range(max_len):
            logits = model.decode_logits(enc, src_mask, out, np.ones(out.shape))
            nxt = logits.data[:, -1, :].argmax(axis=-1).astype(np.int64)
            nxt[done] = vocab.pad_id
            out = np.concatenate([out, nxt[:, None]], axis=1)
            done |= nxt == vocab.eos_id
            if done.all():
                break
    expected = []
    for row in out[:, 1:]:
        ids = []
        for tok in row:
            if tok in (vocab.eos_id, vocab.pad_id):
                break
            ids.append(int(tok))
        expected.append(detokenize(ids, vocab))
    assert greedy_decode(model, vocab, sources, "apa", "bel", max_len, domain="gears") == expected


@pytest.mark.parametrize("with_domain_tag", [False, True])
def test_evaluate_dlp_shared_encoder_matches_separate_calls(tiny_registry, monkeypatch,
                                                            with_domain_tag):
    """evaluate_dlp encodes the sources once for decoding and the test loss;
    its hypotheses, BLEU, chrF and loss equal, bitwise, those of separate
    calls that each encode them."""
    from metadapt import pipeline
    from metadapt.metrics import chrf, corpus_bleu

    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = _cache_model(vocab)
    dlp = DlpId("gears", "apa", "bel")
    pairs = load_dlp_dataset(tiny_registry, dlp).train[:8]
    sources = [s for s, _ in pairs]
    refs = [t for _, t in pairs]
    domain = dlp.domain if with_domain_tag else None
    hyps = greedy_decode(model, vocab, sources, "apa", "bel", 12, domain=domain)
    batch = make_batch(pairs, vocab, dlp, with_domain_tag=with_domain_tag)
    with T.no_grad():
        loss = float(forward_loss(model, batch).data)
        enc = model.encode(batch.src, batch.src_mask)
    decoded = []

    def keep_hypotheses(*args, **kwargs):
        decoded.append(greedy_decode(*args, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(pipeline, "greedy_decode", keep_hypotheses)
    record = pipeline.evaluate_dlp(model, vocab, dlp, pairs, "s", 12,
                                   with_domain_tag=with_domain_tag)
    assert decoded == [hyps]
    assert (record.bleu, record.chrf, record.loss) == (corpus_bleu(hyps, refs),
                                                       chrf(hyps, refs), loss)
    assert greedy_decode(model, vocab, sources, "apa", "bel", 12, domain=domain, enc=enc) == hyps
    for wrong in (enc.data[:-1], enc.data[:, :-1], enc.data[..., :-1]):
        with pytest.raises(DimensionError):
            greedy_decode(model, vocab, sources, "apa", "bel", 12, domain=domain,
                          enc=Tensor(wrong))
        with pytest.raises(DimensionError):
            forward_loss(model, batch, enc=Tensor(wrong))


def test_greedy_decode_past_max_seq_len_is_dimension_error(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = _cache_model(vocab, max_seq_len=6)
    model.params["embed/tok"].data[vocab.eos_id] = 0.0  # eos logit pinned at 0: no early stop
    with pytest.raises(DimensionError):
        greedy_decode(model, vocab, ["w001 w002"], "apa", "bel", max_len=10)
    hyp = greedy_decode(model, vocab, ["w001 w002"], "apa", "bel", max_len=6)[0]
    assert len(hyp.split()) <= 6


# --- adapter snapshots ---------------------------------------------------------

def test_snapshot_round_trip_bitwise():
    model = build_model(tiny_mc(), tiny_ac(), seed=9)
    snap = get_adapter_params(model)
    for k in snap:
        snap[k] = snap[k] + 0.5
    restore_params(model, snap)
    again = get_adapter_params(model)
    assert set(again) == set(snap)
    for k in snap:
        assert np.array_equal(again[k], snap[k])


def test_snapshot_set_leaves_backbone_untouched():
    model = build_model(tiny_mc(), tiny_ac(), seed=10)
    checksum = model.backbone_checksum()
    snap = {k: v + 1.0 for k, v in get_adapter_params(model).items()}
    restore_params(model, snap)
    assert model.backbone_checksum() == checksum


def test_snapshots_interchangeable_across_same_config_models():
    a = build_model(tiny_mc(), tiny_ac(), seed=1)
    b = build_model(tiny_mc(), tiny_ac(), seed=2)
    restore_params(b, get_adapter_params(a))
    for name in a.adapter_names():
        assert np.array_equal(a.params[name].data, b.params[name].data)


# --- full-model gradient fidelity ----------------------------------------------

def test_full_model_gradients_match_finite_differences():
    mc = ModelConfig(vocab_size=11, model_dim=8, num_layers=1, num_heads=2,
                     ffn_dim=10, max_seq_len=8, dropout=0.0)
    ac = AdapterConfig(bottleneck_dim=3)
    model = build_model(mc, ac, seed=12)
    rng = np.random.default_rng(13)
    # move adapters off the identity point so their gradients are generic
    for name in model.adapter_names():
        model.params[name].data += rng.uniform(-0.05, 0.05, size=model.params[name].shape)
    batch = random_batch(mc, rng, batch=2, ts=4, tt=3)
    checked = {n: model.params[n] for n in
               ["embed/tok", "enc/0/attn/wq", "enc/0/ffn/w1", "dec/0/xattn/wv",
                "enc/0/adapter/main/down_w", "dec/0/adapter/main/up_w", "dec/ln_f/g"]}
    for p in checked.values():
        p.set_requires_grad(True)

    report = grad_check(lambda: forward_loss(model, batch), checked, tol=1e-4)
    assert report.passed, report


def test_adapter_only_backward_equals_adapter_slice_of_full_backward(tiny_registry):
    """Skipping the frozen backbone's gradients moves no adapter gradient
    bit: a training step's adapter gradients with only the adapter trainable
    equal those with every parameter trainable."""
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    dlp = DlpId("gears", "apa", "bel")
    batch = make_batch(load_dlp_dataset(tiny_registry, dlp).train[:6], vocab, dlp)
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=2, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.1)
    model = build_model(mc, tiny_ac(), seed=4)
    rng = np.random.default_rng(5)
    restore_params(model, {n: rng.normal(0.0, 0.1, size=v.shape)
                           for n, v in get_adapter_params(model).items()})

    def adapter_grads(trainable):
        model.set_trainable(trainable)
        for p in model.params.values():
            p.zero_grad()
        with T.use_tape(T.Tape()):
            T.backward(forward_loss(model, batch, rng=np.random.default_rng(9)))
        return {n: model.params[n].grad.tobytes() for n in model.adapter_names()}

    only = adapter_grads(model.adapter_names())
    assert all(np.frombuffer(g).any() for g in only.values())
    assert only == adapter_grads(list(model.params))
