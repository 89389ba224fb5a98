"""Deterministic synthetic multi-domain multilingual parallel corpora.

World model
-----------
Sentences are born as *latent* token sequences over a shared inventory:

* content words ``w000..wNNN`` plus one exclusive signature word per domain,
* function slots ``f0..f9``.

Each language realizes a latent sentence through an invertible transformation:
content words keep their surface form (a shared vocabulary across languages,
the analog of shared subwords), function slots map to language-specific
surface tokens ``<lang>.fK``, and adjacent token pairs are swapped for
odd-class languages (language-index parity). Translation between any two
languages is therefore nontrivial (function words must be mapped, order must
be rewritten) yet exactly solvable.

Domains differ in which content words they use and how often (distinct
unigram distributions, checked at generation time), in their function-word
profiles, and in their sentence shapes. The designated "pretrain" domain is
template-free - every sentence draws a fresh slot pattern over a near-uniform
distribution of the full inventory - so a backbone trained on it must learn
compositional translation; it covers every language of the world. The
remaining "specialist" domains each use a small fixed set of phrase templates
and a skewed distribution led by their signature word, a stylistic rather
than structural shift away from the pretraining distribution.

Splits per DLP are pairwise disjoint by construction (latent sentences are
deduplicated before realization, and the realization map is injective).
"""

from __future__ import annotations

import json
import string
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write, read_json, read_text, write_json
from .errors import ConfigError, DataIntegrityError, InputError
from .forkpool import ForkPool
from .rules import NAMES, Rule, check
from .tasks import DlpDataset, DlpId, SentencePair

MAX_SENTENCE_TOKENS = 175
PUNCTUATION_RATIO_LIMIT = 0.5
#: Fixed inventory for the punctuation-ratio filter: a token counts as
#: punctuation when every character belongs to this ASCII class.
PUNCTUATION_CHARS = frozenset(string.punctuation)

N_FUNCTION_WORDS = 10


# ---------------------------------------------------------------------------
# world configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticWorldSpec:
    """Generator configuration; a pure function of this spec plus its seed."""

    languages: tuple[str, ...]
    domains: tuple[str, ...]                 # includes the pretrain domain
    pretrain_domain: str
    heldout_domains: tuple[str, ...] = ()
    heldout_languages: tuple[str, ...] = ()
    content_vocab_size: int = 120
    domain_vocab_size: int = 30
    neutral_len: tuple[int, int] = (3, 7)    # sentence length range, pretrain domain
    specialist_len: tuple[int, int] = (5, 11)
    templates_per_domain: int = 8
    train_size: int = 5000
    adapt_size: int = 500
    valid_size: int = 500
    test_size: int = 500
    pretrain_train_size: int | None = None   # train-split override for the pretrain domain
    min_domain_tv: float = 0.3
    seed: int = 0

    RULES = {**dict.fromkeys(("languages", "domains"),
                             Rule(NAMES, "two or more, distinct")),
             **dict.fromkeys(("heldout_domains", "heldout_languages"), Rule(NAMES)),
             "pretrain_domain": Rule("a string"),
             **dict.fromkeys(("content_vocab_size", "domain_vocab_size", "templates_per_domain"),
                             Rule("a whole number", "at least 1")),
             **dict.fromkeys(("neutral_len", "specialist_len"),
                             # length L gives sentences of L tokens: past the cap, none pass
                             Rule("two whole numbers",
                                  f"1 <= first <= second <= {MAX_SENTENCE_TOKENS}")),
             **dict.fromkeys(("train_size", "adapt_size", "valid_size", "test_size", "seed"),
                             Rule("a whole number", "non-negative")),
             "pretrain_train_size": Rule("a whole number", "non-negative", null=True),
             "min_domain_tv": Rule("a number", "in [0, 1]")}

    def __post_init__(self):
        check(self.RULES, vars(self), "world spec: {}")
        if self.pretrain_domain not in self.domains:
            raise ConfigError("world spec: pretrain_domain must be listed in domains")
        for d in self.heldout_domains:
            if d not in self.domains:
                raise ConfigError(f"world spec: held-out domain '{d}' not in domains")
        for l in self.heldout_languages:
            if l not in self.languages:
                raise ConfigError(f"world spec: held-out language '{l}' not in languages")
        if self.pretrain_domain in self.heldout_domains:
            raise ConfigError("world spec: the pretrain domain cannot be held out")
        if self.domain_vocab_size > self.content_vocab_size:
            raise ConfigError("world spec: domain_vocab_size exceeds content inventory")

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "SyntheticWorldSpec":
        """Spec from a JSON table, whose lists become tuples (the table
        itself is left as it is); `where` names the table in errors."""
        if not isinstance(raw, dict):
            raise ConfigError(f"world spec {where}: not a table")
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
        except TypeError as exc:
            raise ConfigError(f"world spec {where}: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticWorldSpec":
        return cls.from_dict(read_json(path), str(path))


# ---------------------------------------------------------------------------
# language transformations
# ---------------------------------------------------------------------------

def _rotation(spec: SyntheticWorldSpec, lang: str) -> int:
    return spec.languages.index(lang) % 2


def _reorder(tokens: Iterable[str], r: int) -> list[str]:
    """Swap each adjacent token pair when r is odd (odd-class languages),
    leaving a trailing odd token in place: each block of two rotated left by
    r. Its own inverse."""
    out = list(tokens)
    if r % 2:
        even = len(out) - len(out) % 2
        out[0:even:2], out[1:even:2] = out[1:even:2], out[0:even:2]
    return out


def _surface_token(token: str, lang: str) -> str:
    """The one rule of how `lang` writes a latent token: a function slot
    ``fK`` becomes ``<lang>.fK``, every other token keeps its form."""
    return f"{lang}.{token}" if token.startswith("f") else token


def realize(spec: SyntheticWorldSpec, latent: list[str], lang: str) -> list[str]:
    """Latent sentence -> surface sentence in `lang` (deterministic, invertible)."""
    if lang not in spec.languages:
        raise InputError(f"realize: unknown language '{lang}'")
    return _reorder([_surface_token(t, lang) for t in latent], _rotation(spec, lang))


def to_latent(spec: SyntheticWorldSpec, surface: list[str], lang: str) -> list[str]:
    """Inverse of realize(); round-trips exactly."""
    if lang not in spec.languages:
        raise InputError(f"to_latent: unknown language '{lang}'")
    ordered = _reorder(list(surface), -_rotation(spec, lang))
    prefix = f"{lang}."
    out = []
    for t in ordered:
        out.append(t[len(prefix):] if t.startswith(prefix) else t)
    return out


def translate(spec: SyntheticWorldSpec, surface: list[str], src_lang: str, tgt_lang: str) -> list[str]:
    """Gold translation: invert the source transformation, apply the target one."""
    return realize(spec, to_latent(spec, surface, src_lang), tgt_lang)


# ---------------------------------------------------------------------------
# domain machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DomainModel:
    name: str
    words: tuple[str, ...]
    weights: tuple[float, ...]
    length_range: tuple[int, int]
    function_profile: tuple[float, ...]
    # fixed phrase templates (slots: 'C' or 'f<k>'); None means every sentence
    # draws a fresh pattern, the template-free regime of the pretrain domain
    templates: tuple[tuple[str, ...], ...] | None
    # _cdf tables of `weights` and `function_profile`, built once per model
    word_cdf: np.ndarray = field(repr=False, compare=False)
    function_cdf: np.ndarray = field(repr=False, compare=False)


#: Tolerance of the sum-to-one check, as in ``Generator.choice``.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _cdf(p, what: str) -> np.ndarray:
    """Cumulative table for drawing index i with probability p[i].

    Checked and built exactly as ``Generator.choice(len(p), p=p)`` does on
    every call, so `_draw` on this table returns the index that call would
    return, from the same single double of the stream."""
    p = np.asarray(p, dtype=np.float64)
    if (p.ndim != 1 or p.size == 0 or not np.isfinite(p).all() or (p < 0).any()
            or abs(p.sum() - 1.0) > _P_ATOL):
        raise ConfigError(f"world spec: {what} is not a probability vector")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


def _content_inventory(spec: SyntheticWorldSpec) -> list[str]:
    width = len(str(max(spec.content_vocab_size - 1, 1)))
    return [f"w{i:0{width}d}" for i in range(spec.content_vocab_size)]


def _domain_models(spec: SyntheticWorldSpec) -> dict[str, _DomainModel]:
    """Per-domain sentence models drawn from one shared grammar family.

    The pretrain domain covers the whole inventory (every token embedding gets
    trained) with a near-uniform distribution and short sentences. Specialist
    domains use a skewed distribution over a domain subset led by an exclusive
    signature word, a domain-specific function-word profile, and somewhat
    longer sentences, so the shift away from the pretraining distribution is
    stylistic rather than structural.
    """
    inventory = _content_inventory(spec)
    models: dict[str, _DomainModel] = {}
    specialist = [d for d in spec.domains if d != spec.pretrain_domain]
    markers = {d: f"mk.{d}" for d in specialist}

    all_words = tuple(inventory + [markers[d] for d in specialist])
    uniform = tuple(np.full(len(all_words), 1.0 / len(all_words)).tolist())
    neutral_profile = tuple(np.full(N_FUNCTION_WORDS, 1.0 / N_FUNCTION_WORDS).tolist())
    models[spec.pretrain_domain] = _DomainModel(
        name=spec.pretrain_domain,
        words=all_words,
        weights=uniform,
        length_range=spec.neutral_len,
        function_profile=neutral_profile,
        templates=None,
        word_cdf=_cdf(uniform, f"domain '{spec.pretrain_domain}' word weights"),
        function_cdf=_cdf(neutral_profile, f"domain '{spec.pretrain_domain}' function profile"),
    )

    for idx, dom in enumerate(specialist):
        drng = np.random.default_rng(np.random.SeedSequence([spec.seed, 202, idx]))
        chosen = drng.choice(len(inventory), size=spec.domain_vocab_size, replace=False)
        words = [markers[dom]] + [inventory[i] for i in sorted(chosen.tolist())]
        order = drng.permutation(len(words) - 1)
        ranks = np.empty(len(words), dtype=np.int64)
        ranks[0] = 0  # the signature word takes the top rank
        ranks[1:][order] = np.arange(1, len(words))
        raw = 1.0 / (ranks + 1.0) ** 1.1
        weights = tuple((raw / raw.sum()).tolist())
        f_perm = drng.permutation(N_FUNCTION_WORDS)
        f_ranks = np.empty(N_FUNCTION_WORDS)
        f_ranks[f_perm] = np.arange(N_FUNCTION_WORDS)
        f_raw = 1.0 / (f_ranks + 2.0)
        profile = tuple((f_raw / f_raw.sum()).tolist())
        function_cdf = _cdf(profile, f"domain '{dom}' function profile")
        models[dom] = _DomainModel(
            name=dom,
            words=tuple(words),
            weights=weights,
            length_range=spec.specialist_len,
            function_profile=profile,
            templates=_make_templates(drng, spec.templates_per_domain,
                                      spec.specialist_len, function_cdf),
            word_cdf=_cdf(weights, f"domain '{dom}' word weights"),
            function_cdf=function_cdf,
        )
    return models


def _surface_table(model: _DomainModel, lang: str) -> dict[str, str]:
    """`_surface_token` of every latent token `model` can draw: its words and
    the function slots, so a sentence realizes by lookups alone."""
    inventory = model.words + tuple(f"f{k}" for k in range(N_FUNCTION_WORDS))
    return {t: _surface_token(t, lang) for t in inventory}


def _pattern(rng: np.random.Generator, length_range: tuple[int, int],
             function_cdf: np.ndarray) -> tuple[str, ...]:
    lo, hi = length_range
    length = int(rng.integers(lo, hi + 1))
    slots: list[str] = []
    while len(slots) < length:
        if rng.random() < 0.35:
            slots.append(f"f{_draw(function_cdf, rng)}")
        else:
            slots.append("C")
    return tuple(slots)


def _make_templates(rng: np.random.Generator, count: int, length_range: tuple[int, int],
                    function_cdf: np.ndarray) -> tuple[tuple[str, ...], ...]:
    return tuple(_pattern(rng, length_range, function_cdf) for _ in range(count))


def _latent_sentence(model: _DomainModel, rng: np.random.Generator) -> list[str]:
    """One sentence: its template (or fresh pattern), then one word per 'C'
    slot, drawn left to right. `rng.random(k)` yields the k doubles that k
    `_draw` calls would, so the words are theirs."""
    if model.templates is None:
        template = _pattern(rng, model.length_range, model.function_cdf)
    else:
        template = model.templates[int(rng.integers(0, len(model.templates)))]
    drawn = model.word_cdf.searchsorted(rng.random(template.count("C")), side="right")
    words = iter(map(model.words.__getitem__, drawn.tolist()))
    return [next(words) if slot == "C" else slot for slot in template]


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

def _is_punct_token(token: str) -> bool:
    return bool(token) and PUNCTUATION_CHARS.issuperset(token)


def filter_corpus(pairs: list[SentencePair]) -> list[SentencePair]:
    """Length cap (175 tokens), punctuation-ratio cap (> 50% dropped), exact dedup.

    Order of surviving pairs is preserved; the operation is idempotent. Each
    distinct token is judged punctuation or not once, and only an input that
    holds punctuation has its sides split a second time to count it.
    """
    distinct: set[str] = set()
    lengths = []  # not the split sides: for a whole DLP they would cost ~0.5 MiB
    for src, tgt in pairs:
        src_tokens, tgt_tokens = src.split(), tgt.split()
        distinct.update(src_tokens)
        distinct.update(tgt_tokens)
        lengths.append((len(src_tokens), len(tgt_tokens)))
    punct = set(filter(_is_punct_token, distinct))

    def side_ok(text: str, n: int) -> bool:
        if not 0 < n <= MAX_SENTENCE_TOKENS:
            return False
        return (not punct
                or sum(map(punct.__contains__, text.split())) / n <= PUNCTUATION_RATIO_LIMIT)

    seen: set[SentencePair] = set()
    out = []
    for pair, (src_n, tgt_n) in zip(pairs, lengths):
        if side_ok(pair[0], src_n) and side_ok(pair[1], tgt_n) and pair not in seen:
            seen.add(pair)
            out.append(pair)
    return out


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"


class Vocab:
    """Closed token<->id map with specials, language tags, and domain tags."""

    def __init__(self, tokens: list[str], languages: list[str], domains: list[str]):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataIntegrityError("vocab: duplicate tokens")
        self.languages = list(languages)
        self.domains = list(domains)
        self.pad_id = self.index[PAD]
        self.bos_id = self.index[BOS]
        self.eos_id = self.index[EOS]
        self.unk_id = self.index[UNK]
        self._special_ids = {self.pad_id, self.bos_id, self.eos_id, self.unk_id} | {
            self.index[t] for t in self.tokens if t.startswith("<lang:") or t.startswith("<dom:")
        }

    def __len__(self) -> int:
        return len(self.tokens)

    def lang_tag(self, lang: str) -> int:
        tag = f"<lang:{lang}>"
        if tag not in self.index:
            raise InputError(f"vocab: unknown language tag '{lang}'")
        return self.index[tag]

    def domain_tag(self, domain: str) -> int:
        tag = f"<dom:{domain}>"
        if tag not in self.index:
            raise InputError(f"vocab: unknown domain tag '{domain}'")
        return self.index[tag]

    def is_special(self, token_id: int) -> bool:
        return token_id in self._special_ids

    @classmethod
    def build(cls, token_counts: Counter, languages: list[str], domains: list[str]) -> "Vocab":
        """Specials first, then tags, then content by frequency desc / token asc."""
        specials = [PAD, BOS, EOS, UNK]
        tags = [f"<lang:{l}>" for l in languages] + [f"<dom:{d}>" for d in domains]
        content = sorted(token_counts, key=lambda t: (-token_counts[t], t))
        return cls(specials + tags + content, languages, domains)

    def save(self, path: str | Path) -> None:
        payload = {"languages": self.languages, "domains": self.domains, "tokens": self.tokens}
        with atomic_write(path) as fh:
            fh.write(json.dumps(payload, indent=0, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        raw = read_json(path)
        try:
            return cls(raw["tokens"], raw["languages"], raw["domains"])
        except (KeyError, TypeError) as exc:
            raise DataIntegrityError(f"{path}: not a vocabulary file ({exc!r})") from exc


def tokenize(text: str, vocab: Vocab) -> list[int]:
    return [vocab.index.get(tok, vocab.unk_id) for tok in text.split()]


def detokenize(ids: list[int], vocab: Vocab) -> str:
    return " ".join(vocab.tokens[i] for i in ids if not vocab.is_special(i))


# ---------------------------------------------------------------------------
# generation and registry
# ---------------------------------------------------------------------------

SPLITS = ("train", "adapt", "valid", "test")


@dataclass(frozen=True)
class RegistryRow:
    dlp: DlpId
    role: str  # pretrain | meta_train | heldout
    sizes: dict[str, int] = field(hash=False)

    def path(self, root: Path, split: str) -> Path:
        return root / self.dlp.domain / f"{self.dlp.src_lang}-{self.dlp.tgt_lang}" / f"{split}.tsv"


@dataclass
class Registry:
    root: Path
    spec: SyntheticWorldSpec
    rows: list[RegistryRow]

    def by_role(self, role: str) -> list[RegistryRow]:
        return [r for r in self.rows if r.role == role]

    def row(self, dlp: DlpId) -> RegistryRow:
        for r in self.rows:
            if r.dlp == dlp:
                return r
        raise InputError(f"registry: unknown DLP {dlp.key()}")


def _dlp_role(spec: SyntheticWorldSpec, dlp: DlpId) -> str:
    if dlp.domain == spec.pretrain_domain:
        return "pretrain"
    if (dlp.domain in spec.heldout_domains
            or dlp.src_lang in spec.heldout_languages
            or dlp.tgt_lang in spec.heldout_languages):
        return "heldout"
    return "meta_train"


def _write_dlp(spec: SyntheticWorldSpec, models: dict[str, _DomainModel], root: Path,
               job: tuple[int, int, int]) -> tuple[RegistryRow, Counter, Counter]:
    """Draw one DLP's distinct sentences from its own rng stream and write its
    four split files; returns its registry row, the token counts of both
    sides and the latent unigram counts."""
    d_idx, s_idx, t_idx = job
    dlp = DlpId(spec.domains[d_idx], spec.languages[s_idx], spec.languages[t_idx])
    sizes = {"train": spec.train_size, "adapt": spec.adapt_size,
             "valid": spec.valid_size, "test": spec.test_size}
    if dlp.domain == spec.pretrain_domain and spec.pretrain_train_size is not None:
        sizes["train"] = spec.pretrain_train_size
    total = sum(sizes.values())
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7, d_idx, s_idx, t_idx]))
    latents: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    while len(latents) < total:
        attempts += 1
        if attempts > 50 * total + 1000:
            raise ConfigError(
                f"generate_world: {dlp.key()} cannot supply {total} distinct sentences; "
                "enlarge the vocabulary or length ranges")
        latent = _latent_sentence(models[dlp.domain], rng)
        key = tuple(latent)
        if key in seen:
            continue
        seen.add(key)
        latents.append(latent)
    # realize through one table per side, and count through them below: a
    # realization renames and permutes tokens, so it keeps the latent counts
    src, tgt = (_surface_table(models[dlp.domain], lang) for lang in (dlp.src_lang, dlp.tgt_lang))
    src_r, tgt_r = _rotation(spec, dlp.src_lang), _rotation(spec, dlp.tgt_lang)
    pairs = filter_corpus([(" ".join(_reorder(map(src.__getitem__, latent), src_r)),
                            " ".join(_reorder(map(tgt.__getitem__, latent), tgt_r)))
                           for latent in latents])
    if len(pairs) != total:
        raise DataIntegrityError(f"generate_world: filters dropped pairs in {dlp.key()}")
    row = RegistryRow(dlp=dlp, role=_dlp_role(spec, dlp), sizes=sizes)
    row.path(root, SPLITS[0]).parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    for split in SPLITS:
        chunk = pairs[offset : offset + sizes[split]]
        offset += sizes[split]
        row.path(root, split).write_text("".join(f"{s}\t{t}\n" for s, t in chunk),
                                         encoding="utf-8")
    latent_counts = Counter(chain.from_iterable(latents))
    tokens: Counter = Counter()
    for t, c in latent_counts.items():
        tokens[src[t]] += c
        tokens[tgt[t]] += c
    return row, tokens, latent_counts


def generate_world(spec: SyntheticWorldSpec, out_dir: str | Path) -> Registry:
    """Write the full corpus tree, registry manifest, vocab, and world spec.

    Deterministic: the same spec produces a byte-identical tree, on any
    number of CPUs. Each DLP is one job with its own rng stream, run on up
    to min(DLPs, available CPUs) processes; the results are merged in DLP
    order, so the first failing DLP's error is the one raised. Raises
    ConfigError when the generated domain unigram distributions are closer
    than the configured minimum pairwise total-variation distance.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    models = _domain_models(spec)
    jobs = [(d_idx, s_idx, t_idx) for d_idx in range(len(spec.domains))
            for s_idx in range(len(spec.languages))
            for t_idx in range(len(spec.languages)) if s_idx != t_idx]
    with ForkPool(_write_dlp, len(jobs), "generate_world: DLP") as pool:
        results = pool.map((spec, models, root), jobs)
    token_counts: Counter = Counter()
    unigrams: dict[str, Counter] = {d: Counter() for d in spec.domains}
    for row, tokens, latent_counts in results:
        token_counts.update(tokens)
        unigrams[row.dlp.domain].update(latent_counts)

    _assert_domain_separation(spec, unigrams)
    vocab = Vocab.build(token_counts, list(spec.languages), list(spec.domains))
    vocab.save(root / "vocab.json")
    write_json(root / "world.json", asdict(spec))
    registry = Registry(root=root, spec=spec, rows=[row for row, _, _ in results])
    _write_manifest(registry)
    return registry


def _assert_domain_separation(spec: SyntheticWorldSpec, unigrams: dict[str, Counter]) -> None:
    domains = list(spec.domains)
    dists = {}
    for d in domains:
        total = sum(unigrams[d].values())
        dists[d] = {t: c / total for t, c in unigrams[d].items()}
    for i, a in enumerate(domains):
        for b in domains[i + 1 :]:
            tokens = set(dists[a]) | set(dists[b])
            tv = 0.5 * sum(abs(dists[a].get(t, 0.0) - dists[b].get(t, 0.0)) for t in tokens)
            if tv < spec.min_domain_tv:
                raise ConfigError(
                    f"generate_world: domains '{a}' and '{b}' are too similar "
                    f"(TV {tv:.3f} < {spec.min_domain_tv})")


MANIFEST_COLUMNS = ["domain", "src_lang", "tgt_lang", "role",
                    "train_path", "adapt_path", "valid_path", "test_path",
                    "train_size", "adapt_size", "valid_size", "test_size"]


def _write_manifest(registry: Registry) -> None:
    lines = ["\t".join(MANIFEST_COLUMNS)]
    for row in sorted(registry.rows, key=lambda r: r.dlp):
        rel = {s: row.path(Path("."), s).as_posix() for s in SPLITS}
        lines.append("\t".join([
            row.dlp.domain, row.dlp.src_lang, row.dlp.tgt_lang, row.role,
            rel["train"], rel["adapt"], rel["valid"], rel["test"],
            str(row.sizes["train"]), str(row.sizes["adapt"]),
            str(row.sizes["valid"]), str(row.sizes["test"]),
        ]))
    with atomic_write(registry.root / "registry.tsv") as fh:
        fh.write("\n".join(lines) + "\n")


def load_registry(root: str | Path) -> Registry:
    root = Path(root)
    manifest = root / "registry.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"registry manifest not found: {manifest}")
    try:
        spec = SyntheticWorldSpec.from_json(root / "world.json")
    except ConfigError as exc:  # JSON, but not the spec generate_world wrote
        raise DataIntegrityError(f"{root / 'world.json'}: not a world spec ({exc})") from exc
    text = read_text(manifest)
    if not text.endswith("\n"):  # _write_manifest ends every file with one
        raise DataIntegrityError(f"{manifest}: truncated (no newline at the end)")
    lines = text.strip().split("\n")
    if lines[0].split("\t") != MANIFEST_COLUMNS:
        raise DataIntegrityError("registry.tsv: unexpected column order")
    # every DLP of the spec's grid once, in the role the spec gives it: a row
    # that says otherwise would move data between training and scoring
    unlisted = {(d, s, t): DlpId(d, s, t) for d in spec.domains for s in spec.languages
                for t in spec.languages if s != t}
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(MANIFEST_COLUMNS) or not all(c.isdecimal() for c in cells[8:]):
            raise DataIntegrityError(f"{manifest}: malformed row on line {number}")
        dlp = unlisted.pop(tuple(cells[:3]), None)
        if dlp is None:
            raise DataIntegrityError(f"{manifest}: line {number} lists {cells[0]}/{cells[1]}-"
                                     f"{cells[2]}, not a DLP of world.json or listed twice")
        role = _dlp_role(spec, dlp)
        if cells[3] != role:
            raise DataIntegrityError(f"{manifest}: line {number} gives {dlp.key()} the role "
                                     f"{cells[3]!r}; world.json gives it {role!r}")
        sizes = {s: int(cells[8 + i]) for i, s in enumerate(SPLITS)}
        rows.append(RegistryRow(dlp=dlp, role=role, sizes=sizes))
    if unlisted:
        raise DataIntegrityError(f"{manifest}: lists {len(rows)} of the "
                                 f"{len(rows) + len(unlisted)} DLPs of world.json; "
                                 f"{min(unlisted.values()).key()} has no line")
    return Registry(root=root, spec=spec, rows=rows)


def load_dlp_dataset(registry: Registry, dlp: DlpId, caps: dict[str, int] | None = None) -> DlpDataset:
    """Load one DLP's splits, check each split's line count against the
    registry, enforce caps (head-of-file truncation), and assert pairwise
    cross-split disjointness."""
    row = registry.row(dlp)
    splits: dict[str, list[SentencePair]] = {}
    for split in SPLITS:
        path = row.path(registry.root, split)
        if not path.exists():
            raise FileNotFoundError(f"missing split file: {path}")
        lines = read_text(path).splitlines()
        if len(lines) != row.sizes[split]:
            raise DataIntegrityError(
                f"{path}: {len(lines)} lines, registry.tsv lists {row.sizes[split]}")
        pairs: list[SentencePair] = []
        for line in lines:
            src, _, tgt = line.partition("\t")
            if not tgt:
                raise DataIntegrityError(f"{path}: malformed line without tab separator")
            pairs.append((src, tgt))
        cap = (caps or {}).get(split)
        if cap is not None:
            pairs = pairs[:cap]
        splits[split] = pairs
    for i, a in enumerate(SPLITS):
        for b in SPLITS[i + 1 :]:
            overlap = set(splits[a]) & set(splits[b])
            if overlap:
                raise DataIntegrityError(
                    f"{dlp.key()}: splits '{a}' and '{b}' overlap on {len(overlap)} pairs")
    return DlpDataset(id=dlp, **splits)


def load_datasets(registry: Registry, dlps: list[DlpId], caps: dict[str, int] | None = None) -> dict[DlpId, DlpDataset]:
    return {dlp: load_dlp_dataset(registry, dlp, caps) for dlp in dlps}
