"""Miniature transformer encoder-decoder with bottleneck adapter slots.

Pre-norm layers, tied input/output embeddings, sinusoidal positions. One
adapter sits after the feed-forward sublayer of every encoder and decoder
layer; a model may carry several adapter *groups* applied in sequence (used
by the stacked-adapter baseline), or none at all (plain backbone).

Parameter names containing "/adapter/" form the adapter set; every other
parameter belongs to the backbone, so the two sets split the model. Only this
module builds adapter names, and it owns every copy of named parameter values
into and out of a model; a restore writes into each parameter's own array.

Teacher-forced batches (`make_batch` for one DLP, `make_mixed_batch` for rows
of several) and greedy decoding lay out every source row the same way,
control tags then tokens then eos, and pad rows with one helper, so one
encoder output of a batch's sources serves both (`enc`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import Vocab, detokenize, tokenize
from .errors import ConfigError, DimensionError, InputError, StateError
from .rules import Rule, check
from .tasks import DlpId, SentencePair
from .tensor import Tensor

NEG_MASK = -1e9  # additive attention mask; finite so forward values stay finite


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    model_dim: int = 64
    num_layers: int = 2          # per stack: encoder and decoder each
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 64
    dropout: float = 0.1

    RULES = {**dict.fromkeys(("vocab_size", "model_dim", "num_layers", "num_heads", "ffn_dim",
                              "max_seq_len"), Rule("a whole number", "at least 1")),
             "dropout": Rule("a number", "in [0, 1)")}

    def __post_init__(self):
        check(self.RULES, vars(self), "model config: {}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError("model config: model_dim must be divisible by num_heads")


@dataclass(frozen=True)
class AdapterConfig:
    """Bottleneck adapter: gain/bias layer norm, down-projection, ReLU,
    up-projection, residual. Inserted after each feed-forward sublayer."""

    bottleneck_dim: int = 16
    ln_epsilon: float = 1e-5

    RULES = {"bottleneck_dim": Rule("a whole number", "at least 1"),
             "ln_epsilon": Rule("a number", "positive")}

    def __post_init__(self):
        check(self.RULES, vars(self), "adapter config: {}")

    def validate(self, model_dim: int) -> None:
        if self.bottleneck_dim >= model_dim:
            raise ConfigError(f"adapter config: bottleneck_dim must be below model_dim "
                              f"{model_dim}, got {self.bottleneck_dim}")


@dataclass
class Batch:
    """Teacher-forced batch. Sources start with their control tag tokens and
    end with end-of-sequence; gold rows are the shifted targets plus eos."""

    src: np.ndarray          # (B, Ts) int64
    src_mask: np.ndarray     # (B, Ts) float64, 1.0 at real positions
    dec_in: np.ndarray       # (B, Tt) int64, begins with bos
    gold: np.ndarray         # (B, Tt) int64, ends with eos before padding
    gold_mask: np.ndarray    # (B, Tt) float64


@dataclass
class DecoderCache:
    """What incremental decoding carries from one `decode_logits` call to the
    next: the padding mask of every decoder position fed so far, each decoder
    layer's self-attention keys and values over those positions, and each
    layer's cross-attention keys and values, computed from the encoder output
    once. Keys and values are head-split, (B, heads, T, head_dim)."""

    key_mask: np.ndarray                                  # (B, positions fed)
    cross: dict[str, tuple[Tensor, Tensor]]               # "dec/i/xattn" -> (K, V)
    past: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)  # "dec/i/attn"


def adapter_param_count(model_dim: int, bottleneck_dim: int) -> int:
    """Per-layer adapter parameters: two projections, their biases, LN affine."""
    return 2 * model_dim * bottleneck_dim + 2 * model_dim + bottleneck_dim + model_dim


def _sinusoid_table(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


class TranslationModel:
    """Parameter container plus forward passes; single-writer by convention."""

    def __init__(self, mc: ModelConfig, ac: AdapterConfig,
                 params: dict[str, Tensor], adapter_groups: list[str]):
        self.mc = mc
        self.ac = ac
        self.params = params
        self.adapter_groups = list(adapter_groups)
        self._pos = _sinusoid_table(mc.max_seq_len, mc.model_dim)

    # -- partition ----------------------------------------------------------

    def backbone_names(self) -> list[str]:
        return [n for n in self.params if "/adapter/" not in n]

    def adapter_names(self, group: str | None = None) -> list[str]:
        if group is None:
            return [n for n in self.params if "/adapter/" in n]
        return [n for n in self.params if f"/adapter/{group}/" in n]

    def set_trainable(self, names: list[str]) -> None:
        wanted = set(names)
        for name, p in self.params.items():
            p.set_requires_grad(name in wanted)

    def backbone_checksum(self) -> str:
        return backbone_checksum({n: self.params[n].data for n in self.backbone_names()})

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    # -- forward ------------------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _maybe_dropout(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        """x with dropout when given an rng, the one switch of a training pass."""
        if rng is None or self.mc.dropout == 0.0:
            return x
        return T.dropout(x, self.mc.dropout, rng)

    def _heads(self, x: Tensor) -> Tensor:
        """(B, T, model_dim) -> (B, heads, T, head_dim)."""
        mc = self.mc
        x = T.reshape(x, (x.shape[0], x.shape[1], mc.num_heads, mc.model_dim // mc.num_heads))
        return T.swapaxes(x, 1, 2)

    def _kv(self, prefix: str, kv_in: Tensor) -> tuple[Tensor, Tensor]:
        k = self._heads(T.linear(kv_in, self._p(f"{prefix}/wk"), self._p(f"{prefix}/bk")))
        v = self._heads(T.linear(kv_in, self._p(f"{prefix}/wv"), self._p(f"{prefix}/bv")))
        return k, v

    def _attention(self, prefix: str, q_in: Tensor, kv_in: Tensor, add_mask: np.ndarray,
                   cache: DecoderCache | None = None) -> Tensor:
        """Multi-head attention of q_in over kv_in. With a cache, a
        cross-attention prefix reads its keys and values from it instead of
        projecting kv_in, and a self-attention prefix appends kv_in's keys
        and values to the cached ones."""
        mc = self.mc
        dh = mc.model_dim // mc.num_heads
        q = self._heads(T.linear(q_in, self._p(f"{prefix}/wq"), self._p(f"{prefix}/bq")))
        if cache is not None and prefix in cache.cross:
            k, v = cache.cross[prefix]
        else:
            k, v = self._kv(prefix, kv_in)
            if cache is not None:
                if prefix in cache.past:
                    k, v = (Tensor(np.concatenate([old.data, new.data], axis=2))
                            for old, new in zip(cache.past[prefix], (k, v)))
                cache.past[prefix] = (k, v)
        scores = T.scale(T.matmul(q, T.swapaxes(k, 2, 3)), 1.0 / np.sqrt(dh))
        attn = T.softmax(scores + Tensor(add_mask))
        ctx = T.swapaxes(T.matmul(attn, v), 1, 2)
        ctx = T.reshape(ctx, (q_in.shape[0], q_in.shape[1], mc.model_dim))
        return T.linear(ctx, self._p(f"{prefix}/wo"), self._p(f"{prefix}/bo"))

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        h = T.relu(T.linear(x, self._p(f"{prefix}/w1"), self._p(f"{prefix}/b1")))
        return T.linear(h, self._p(f"{prefix}/w2"), self._p(f"{prefix}/b2"))

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return T.layer_norm(x, self._p(f"{prefix}/g"), self._p(f"{prefix}/b"))

    def _adapters(self, side: str, layer: int, x: Tensor) -> Tensor:
        for group in self.adapter_groups:
            x = adapter_forward(x, self._adapter_tensors(side, layer, group), self.ac.ln_epsilon)
        return x

    def _adapter_tensors(self, side: str, layer: int, group: str) -> dict[str, Tensor]:
        base = f"{side}/{layer}/adapter/{group}"
        return {k: self._p(f"{base}/{k}") for k in ("ln_g", "ln_b", "down_w", "down_b", "up_w", "up_b")}

    def _embed(self, ids: np.ndarray, rng, start: int = 0) -> Tensor:
        """Embeddings of ids at positions start, start + 1, ..."""
        end = start + ids.shape[1]
        if end > self.mc.max_seq_len:
            raise DimensionError(f"sequence length {end} exceeds max_seq_len {self.mc.max_seq_len}")
        x = T.scale(T.embedding_lookup(self._p("embed/tok"), ids), np.sqrt(self.mc.model_dim))
        x = x + Tensor(self._pos[start:end])
        return self._maybe_dropout(x, rng)

    def encode(self, src: np.ndarray, src_mask: np.ndarray,
               rng: np.random.Generator | None = None) -> Tensor:
        x = self._embed(src, rng)
        key_mask = NEG_MASK * (1.0 - src_mask)[:, None, None, :]
        for i in range(self.mc.num_layers):
            p = f"enc/{i}"
            ln1 = self._ln(f"{p}/ln1", x)
            x = x + self._maybe_dropout(self._attention(f"{p}/attn", ln1, ln1, key_mask), rng)
            x = x + self._maybe_dropout(self._ffn(f"{p}/ffn", self._ln(f"{p}/ln2", x)), rng)
            x = self._adapters("enc", i, x)
        return self._ln("enc/ln_f", x)

    def encoder_output(self, src: np.ndarray, src_mask: np.ndarray, enc: Tensor | None = None,
                       rng: np.random.Generator | None = None) -> Tensor:
        """`enc`, an encoder output the caller already holds for `src`, or
        src encoded now. An `enc` of another shape than src's encoder output
        is a DimensionError."""
        if enc is None:
            return self.encode(src, src_mask, rng)
        if enc.shape != (*src.shape, self.mc.model_dim):
            raise DimensionError(f"encoder output of shape {enc.shape} given for sources "
                                 f"of shape {src.shape}")
        return enc

    def decoder_cache(self, enc_out: Tensor) -> DecoderCache:
        """Empty incremental-decoding cache over `enc_out`, holding every decoder
        layer's cross-attention keys and values."""
        cross = {f"dec/{i}/xattn": self._kv(f"dec/{i}/xattn", enc_out)
                 for i in range(self.mc.num_layers)}
        return DecoderCache(key_mask=np.zeros((enc_out.shape[0], 0)), cross=cross)

    def decode_logits(self, enc_out: Tensor, src_mask: np.ndarray, dec_in: np.ndarray,
                      dec_mask: np.ndarray, rng: np.random.Generator | None = None,
                      cache: DecoderCache | None = None) -> Tensor:
        """Decoder logits at every position of dec_in. Without a cache dec_in
        starts at position 0 (teacher forcing). With one, it continues after
        the positions the cache holds, attends to them as well, and the cache
        grows by dec_in's positions; that needs no_grad, because cached keys
        and values are not on the tape."""
        if cache is not None and T.grad_enabled():
            raise StateError("decode_logits: a decoder cache is for no_grad decoding only")
        start = 0 if cache is None else cache.key_mask.shape[1]
        x = self._embed(dec_in, rng, start)
        key_mask = dec_mask
        if cache is not None:
            key_mask = cache.key_mask = np.concatenate([cache.key_mask, dec_mask], axis=1)
        tt = dec_in.shape[1]
        causal = np.triu(np.full((tt, start + tt), NEG_MASK), k=1 + start)[None, None, :, :]
        self_mask = causal + NEG_MASK * (1.0 - key_mask)[:, None, None, :]
        cross_mask = NEG_MASK * (1.0 - src_mask)[:, None, None, :]
        for i in range(self.mc.num_layers):
            p = f"dec/{i}"
            ln1 = self._ln(f"{p}/ln1", x)
            x = x + self._maybe_dropout(self._attention(f"{p}/attn", ln1, ln1, self_mask, cache), rng)
            x = x + self._maybe_dropout(self._attention(f"{p}/xattn", self._ln(f"{p}/ln2", x), enc_out, cross_mask, cache), rng)
            x = x + self._maybe_dropout(self._ffn(f"{p}/ffn", self._ln(f"{p}/ln3", x)), rng)
            x = self._adapters("dec", i, x)
        x = self._ln("dec/ln_f", x)
        return T.matmul(x, T.swapaxes(self._p("embed/tok"), 0, 1))

    def forward_logits(self, batch: Batch, rng: np.random.Generator | None = None,
                       enc: Tensor | None = None) -> Tensor:
        enc = self.encoder_output(batch.src, batch.src_mask, enc, rng)
        return self.decode_logits(enc, batch.src_mask, batch.dec_in, batch.gold_mask, rng)


def backbone_checksum(params: dict[str, np.ndarray]) -> str:
    """SHA-256 over the backbone (non-adapter) entries of a parameter map,
    names and float64 bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(n for n in params if "/adapter/" not in n):
        h.update(name.encode("utf-8"))
        h.update(np.asarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def adapter_forward(h: Tensor, params: dict[str, Tensor], ln_epsilon: float = 1e-5) -> Tensor:
    """Position-wise bottleneck adapter: up(relu(down(LN(h)))) + h."""
    if h.shape[-1] != params["down_w"].shape[0]:
        raise DimensionError("adapter_forward: hidden size does not match down-projection")
    x = T.layer_norm(h, params["ln_g"], params["ln_b"], ln_epsilon)
    x = T.relu(T.linear(x, params["down_w"], params["down_b"]))
    return T.linear(x, params["up_w"], params["up_b"]) + h


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_model(mc: ModelConfig, ac: AdapterConfig, seed: int,
                adapter_groups: tuple[str, ...] = ("main",)) -> TranslationModel:
    """Deterministic build. Backbone init depends only on (mc, seed), so the
    same seed yields an identical backbone regardless of adapter groups.
    Adapters start near-identity: up-projection (and all biases) at zero."""
    ac.validate(mc.model_dim)
    params: dict[str, Tensor] = {}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def add_param(name: str, value: np.ndarray) -> None:
        params[name] = Tensor(value, requires_grad=False)

    z, f = mc.model_dim, mc.ffn_dim
    add_param("embed/tok", rng.normal(0.0, 0.02, size=(mc.vocab_size, z)))

    def attn_block(prefix: str) -> None:
        for w in ("wq", "wk", "wv", "wo"):
            add_param(f"{prefix}/{w}", glorot(z, z))
        for b in ("bq", "bk", "bv", "bo"):
            add_param(f"{prefix}/{b}", np.zeros(z))

    def ln_block(prefix: str) -> None:
        add_param(f"{prefix}/g", np.ones(z))
        add_param(f"{prefix}/b", np.zeros(z))

    def ffn_block(prefix: str) -> None:
        add_param(f"{prefix}/w1", glorot(z, f))
        add_param(f"{prefix}/b1", np.zeros(f))
        add_param(f"{prefix}/w2", glorot(f, z))
        add_param(f"{prefix}/b2", np.zeros(z))

    for i in range(mc.num_layers):
        ln_block(f"enc/{i}/ln1")
        attn_block(f"enc/{i}/attn")
        ln_block(f"enc/{i}/ln2")
        ffn_block(f"enc/{i}/ffn")
    ln_block("enc/ln_f")
    for i in range(mc.num_layers):
        ln_block(f"dec/{i}/ln1")
        attn_block(f"dec/{i}/attn")
        ln_block(f"dec/{i}/ln2")
        attn_block(f"dec/{i}/xattn")
        ln_block(f"dec/{i}/ln3")
        ffn_block(f"dec/{i}/ffn")
    ln_block("dec/ln_f")

    model = TranslationModel(mc, ac, params, adapter_groups=[])
    for g_idx, group in enumerate(adapter_groups):
        add_adapter_group(model, group, seed=hash_seed(seed, 1, g_idx))
    return model


def hash_seed(*parts: int) -> int:
    """Stable derived seed for independent rng streams (63-bit, nestable)."""
    blob = b"".join(int(p).to_bytes(16, "little", signed=True) for p in parts)
    h = hashlib.sha256(blob).digest()
    return int.from_bytes(h[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def add_adapter_group(model: TranslationModel, group: str, seed: int) -> None:
    """Insert a near-identity adapter group after every layer's FFN sublayer."""
    if group in model.adapter_groups:
        raise StateError(f"adapter group '{group}' already inserted")
    z, d = model.mc.model_dim, model.ac.bottleneck_dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for side in ("enc", "dec"):
        for i in range(model.mc.num_layers):
            base = f"{side}/{i}/adapter/{group}"
            model.params[f"{base}/ln_g"] = Tensor(np.ones(z))
            model.params[f"{base}/ln_b"] = Tensor(np.zeros(z))
            model.params[f"{base}/down_w"] = Tensor(rng.uniform(-1e-2, 1e-2, size=(z, d)))
            model.params[f"{base}/down_b"] = Tensor(np.zeros(d))
            model.params[f"{base}/up_w"] = Tensor(np.zeros((d, z)))
            model.params[f"{base}/up_b"] = Tensor(np.zeros(z))
    model.adapter_groups.append(group)


def remove_adapter_group(model: TranslationModel, group: str) -> None:
    if group not in model.adapter_groups:
        raise StateError(f"adapter group '{group}' not present")
    for name in model.adapter_names(group):
        del model.params[name]
    model.adapter_groups.remove(group)


# ---------------------------------------------------------------------------
# parameter snapshots and restores
# ---------------------------------------------------------------------------

def snapshot_params(model: TranslationModel, names: list[str]) -> dict[str, np.ndarray]:
    """Copy of the named parameters' values, in `names` order."""
    return {n: model.params[n].data.copy() for n in names}


def restore_params(model: TranslationModel, values: dict[str, np.ndarray]) -> None:
    """Copy each value into its parameter's existing array. Every entry is
    checked first, so a name the model lacks or a shape it does not have
    raises StateError with nothing written."""
    for name, value in values.items():
        if name not in model.params or model.params[name].data.shape != value.shape:
            raise StateError(f"restore_params: layout mismatch at '{name}'")
    for name, value in values.items():
        model.params[name].data[...] = value


def get_adapter_params(model: TranslationModel) -> dict[str, np.ndarray]:
    """Copy of every adapter tensor, keyed by parameter path."""
    return snapshot_params(model, model.adapter_names())


def read_adapter_group(model: TranslationModel, group: str) -> dict[str, np.ndarray]:
    """Copy of one adapter group's tensors, keyed group-agnostically as
    "<side>/<layer>/<param>", so any group of the same model config can load
    it with `load_adapter_group`."""
    return {n.replace(f"/adapter/{group}/", "/"): v
            for n, v in snapshot_params(model, model.adapter_names(group)).items()}


def load_adapter_group(model: TranslationModel, group: str,
                       values: dict[str, np.ndarray]) -> None:
    """Write a group-agnostic map, as `read_adapter_group` returns, into one
    adapter group, with `restore_params`' checks."""
    named = {}
    for key, value in values.items():
        layer, _, param = key.rpartition("/")
        named[f"{layer}/adapter/{group}/{param}"] = value
    restore_params(model, named)


# ---------------------------------------------------------------------------
# batching and loss
# ---------------------------------------------------------------------------

def make_batch(pairs: list[SentencePair], vocab: Vocab, dlp: DlpId,
               with_domain_tag: bool = False) -> Batch:
    """Tokenize pairs of one DLP into a padded teacher-forced batch; source
    rows are laid out by `_source_row`."""
    if not pairs:
        raise InputError("make_batch: empty pair list")
    return _teacher_forced([(dlp, pair) for pair in pairs], vocab, with_domain_tag)


def make_mixed_batch(rows: list[tuple[DlpId, SentencePair]], vocab: Vocab,
                     with_domain_tag: bool = False) -> Batch:
    """Batch whose rows may come from different DLPs; tags are per row."""
    if not rows:
        raise InputError("make_mixed_batch: empty row list")
    return _teacher_forced(rows, vocab, with_domain_tag)


def _teacher_forced(rows: list[tuple[DlpId, SentencePair]], vocab: Vocab,
                    with_domain_tag: bool) -> Batch:
    src_rows = [_source_row(vocab, src, d.src_lang, d.tgt_lang,
                            d.domain if with_domain_tag else None)
                for d, (src, _) in rows]
    tgt_rows = [tokenize(tgt, vocab) for _, (_, tgt) in rows]
    src, src_mask = _pad_rows(src_rows, vocab.pad_id)
    dec_in, _ = _pad_rows([[vocab.bos_id] + t for t in tgt_rows], vocab.pad_id)
    gold, gold_mask = _pad_rows([t + [vocab.eos_id] for t in tgt_rows], vocab.pad_id)
    return Batch(src=src, src_mask=src_mask, dec_in=dec_in, gold=gold, gold_mask=gold_mask)


def _source_row(vocab: Vocab, text: str, src_lang: str, tgt_lang: str,
                domain: str | None = None) -> list[int]:
    """Token ids of one source sentence: [<dom:..>]? <lang:src> <lang:tgt>
    tokens... <eos>. The source-language tag is required because content
    surface forms are shared across languages, so the text alone does not
    identify its language. An unknown tag is an InputError."""
    prefix = [] if domain is None else [vocab.domain_tag(domain)]
    prefix += [vocab.lang_tag(src_lang), vocab.lang_tag(tgt_lang)]
    return prefix + tokenize(text, vocab) + [vocab.eos_id]


def _pad_rows(rows: list[list[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Id rows padded with pad_id to the longest one, (B, T) int64, and the
    (B, T) float64 mask that is 1.0 at real positions."""
    ids = np.full((len(rows), max(len(r) for r in rows)), pad_id, dtype=np.int64)
    mask = np.zeros(ids.shape)
    for r, row in enumerate(rows):
        ids[r, : len(row)] = row
        mask[r, : len(row)] = 1.0
    return ids, mask


def forward_loss(model: TranslationModel, batch: Batch,
                 rng: np.random.Generator | None = None, enc: Tensor | None = None) -> Tensor:
    """Mean token cross-entropy over non-padding gold positions; `enc` is
    the encoder output of batch.src, if the caller already holds it."""
    logits = model.forward_logits(batch, rng=rng, enc=enc)
    return T.cross_entropy(logits, batch.gold, batch.gold_mask)


def greedy_decode(model: TranslationModel, vocab: Vocab, sources: list[str],
                  src_lang: str, tgt_lang: str, max_len: int,
                  domain: str | None = None, enc: Tensor | None = None) -> list[str]:
    """Deterministic argmax decoding until eos or max_len; returns detokenized
    hypothesis text (special tokens stripped). Incremental: each step feeds
    only the newest token through the decoder, against a DecoderCache. `enc`
    is the encoder output of the padded source rows, if the caller already
    holds it (a teacher-forced batch of the same sources has the same rows)."""
    if max_len < 1:
        raise InputError("greedy_decode: max_len must be >= 1")
    rows = [_source_row(vocab, s, src_lang, tgt_lang, domain) for s in sources]
    src, src_mask = _pad_rows(rows, vocab.pad_id)
    b = len(rows)
    with T.no_grad():
        enc = model.encoder_output(src, src_mask, enc)
        cache = model.decoder_cache(enc)
        out = np.full((b, 1), vocab.bos_id, dtype=np.int64)
        step_mask = np.ones((b, 1))
        done = np.zeros(b, dtype=bool)
        for _ in range(max_len):
            logits = model.decode_logits(enc, src_mask, out[:, -1:], step_mask, cache=cache)
            nxt = logits.data[:, -1, :].argmax(axis=-1).astype(np.int64)
            nxt[done] = vocab.pad_id
            out = np.concatenate([out, nxt[:, None]], axis=1)
            done |= nxt == vocab.eos_id
            if done.all():
                break
    hyps = []
    for r in range(b):
        ids = []
        for tok in out[r, 1:]:
            if tok == vocab.eos_id or tok == vocab.pad_id:
                break
            ids.append(int(tok))
        hyps.append(detokenize(ids, vocab))
    return hyps
