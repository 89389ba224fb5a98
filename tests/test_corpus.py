import dataclasses
import hashlib
import multiprocessing
import shutil
from collections import Counter
from multiprocessing.context import ForkProcess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt.corpus import (
    MAX_SENTENCE_TOKENS,
    PUNCTUATION_CHARS,
    PUNCTUATION_RATIO_LIMIT,
    SyntheticWorldSpec,
    Vocab,
    _cdf,
    _domain_models,
    _draw,
    _is_punct_token,
    _latent_sentence,
    _pattern,
    _registry_row,
    _reorder,
    _rotation,
    _surface_table,
    _write_dlp,
    detokenize,
    filter_corpus,
    generate_world,
    load_dlp_dataset,
    load_registry,
    realize,
    to_latent,
    tokenize,
    translate,
)
from metadapt.errors import ConfigError, DataIntegrityError
from metadapt.tasks import DlpId

from conftest import on_cpus, tiny_world_spec


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_language_transform_round_trip(tiny_registry):
    spec = tiny_registry.spec
    latent = ["mk.gears", "w003", "f2", "w010", "f7", "w001"]
    for lang in spec.languages:
        surface = realize(spec, latent, lang)
        assert to_latent(spec, surface, lang) == latent


def test_generated_pairs_are_exact_translations(tiny_registry):
    spec = tiny_registry.spec
    dlp = DlpId("gears", "apa", "bel")
    ds = load_dlp_dataset(tiny_registry, dlp)
    for src, tgt in ds.train[:20]:
        assert " ".join(translate(spec, src.split(), "apa", "bel")) == tgt


def test_same_seed_gives_byte_identical_tree(tmp_path):
    spec = tiny_world_spec(seed=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_world(spec, a)
    generate_world(spec, b)
    assert _tree_bytes(a) == _tree_bytes(b)


def test_domain_unigram_distributions_differ(tiny_registry):
    # counting oracle over the generated corpora, independent of the
    # generation-time assertion
    spec = tiny_registry.spec
    counts = {}
    for domain in spec.domains:
        c = Counter()
        ds = load_dlp_dataset(tiny_registry, DlpId(domain, "apa", "bel"))
        for src, _ in ds.train:
            c.update(to_latent(spec, src.split(), "apa"))
        counts[domain] = c
    domains = list(spec.domains)
    for i, a in enumerate(domains):
        for b in domains[i + 1:]:
            pa = {t: v / sum(counts[a].values()) for t, v in counts[a].items()}
            pb = {t: v / sum(counts[b].values()) for t, v in counts[b].items()}
            tv = 0.5 * sum(abs(pa.get(t, 0) - pb.get(t, 0)) for t in set(pa) | set(pb))
            assert tv >= 0.3, (a, b, tv)


def test_too_similar_domains_rejected(tmp_path):
    spec = tiny_world_spec(min_domain_tv=0.999)
    with pytest.raises(ConfigError):
        generate_world(spec, tmp_path / "w")


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("templates_per_domain", 2.5), ("train_size", 60.5), ("test_size", True),
    ("content_vocab_size", "40"), ("pretrain_train_size", 30.0), ("min_domain_tv", "x"),
    ("neutral_len", (3.5, 6)), ("specialist_len", (5,)), ("neutral_len", 4),
    ("train_size", -5), ("valid_size", -1), ("pretrain_train_size", -3),
    ("templates_per_domain", 0), ("content_vocab_size", -3), ("domain_vocab_size", -1),
    ("domain_vocab_size", 0), ("seed", -1),
    # a sentence as long as its template: past the filter's cap, none would pass
    ("specialist_len", (200, 200)), ("neutral_len", (176, 180)),
    # a name that is not one token and one path component
    ("languages", ("apa", "b c", "cor")), ("domains", ("general", "ge/ars", "herbs")),
    ("domains", ("general", "../esc", "herbs")), ("heldout_domains", ("",)),
    ("heldout_languages", ("co\tr",)), ("languages", ("apa", "bél", "cor")),
])
def test_world_spec_field_of_the_wrong_type_raises(field, value):
    with pytest.raises(ConfigError, match=f"world spec: {field} must be"):
        tiny_world_spec(**{field: value})


def test_filter_drops_long_sentences():
    long_side = " ".join(["tok"] * 176)
    ok_side = " ".join(["tok"] * 175)
    assert filter_corpus([(long_side, "a"), ("a", long_side), (ok_side, "b")]) == [(ok_side, "b")]


def test_filter_punctuation_ratio_strictly_greater():
    assert filter_corpus([("!!! ???", "x")]) == []          # 100% punctuation
    assert filter_corpus([("hello !", "x")]) == [("hello !", "x")]  # exactly 50% kept


def test_filter_dedup_keeps_first_occurrence():
    pairs = [("a", "b"), ("c", "d"), ("a", "b")]
    assert filter_corpus(pairs) == [("a", "b"), ("c", "d")]


def test_filter_idempotent_on_random_corpora():
    pairs = [("a a", "b"), ("! !", "x"), ("a a", "b"), ("q w e", "r t")]
    once = filter_corpus(pairs)
    assert filter_corpus(once) == once


def test_vocab_round_trip(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    ds = load_dlp_dataset(tiny_registry, DlpId("gears", "apa", "cor"))
    for src, tgt in ds.train[:10]:
        assert detokenize(tokenize(src, vocab), vocab) == src
        assert detokenize(tokenize(tgt, vocab), vocab) == tgt


def test_vocab_unknown_token_maps_to_unk(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    assert tokenize("never-seen-token", vocab) == [vocab.unk_id]


def test_vocab_build_order_insensitive():
    counts = Counter({"b": 3, "a": 3, "c": 1})
    v1 = Vocab.build(counts, ["x", "y"], ["d"])
    v2 = Vocab.build(Counter(dict(reversed(list(counts.items())))), ["x", "y"], ["d"])
    assert v1.tokens == v2.tokens
    assert v1.tokens.index("a") < v1.tokens.index("b")  # frequency tie -> lexicographic


def test_vocab_ids_dense_and_specials_disjoint(tiny_registry):
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    assert sorted(vocab.index.values()) == list(range(len(vocab)))
    assert vocab.pad_id == 0 and vocab.bos_id == 1 and vocab.eos_id == 2 and vocab.unk_id == 3


def test_load_dataset_sizes_match_generator_contract(tiny_registry):
    ds = load_dlp_dataset(tiny_registry, DlpId("gears", "apa", "bel"))
    spec = tiny_registry.spec
    assert (len(ds.train), len(ds.adapt), len(ds.valid), len(ds.test)) == (
        spec.train_size, spec.adapt_size, spec.valid_size, spec.test_size)


def test_splits_pairwise_disjoint_everywhere(tiny_registry):
    for row in tiny_registry.rows:
        ds = load_dlp_dataset(tiny_registry, row.dlp)
        splits = [ds.train, ds.adapt, ds.valid, ds.test]
        for i in range(len(splits)):
            for j in range(i + 1, len(splits)):
                assert not set(splits[i]) & set(splits[j])


def test_injected_overlap_raises(tmp_path):
    spec = tiny_world_spec(seed=9)
    reg = generate_world(spec, tmp_path / "w")
    row = reg.rows[0]
    adapt_path = row.path(reg.root, "adapt")
    test_path = row.path(reg.root, "test")
    test_lines = test_path.read_text().splitlines()
    broken = adapt_path.read_text().splitlines()
    broken[0] = test_lines[0]
    adapt_path.write_text("\n".join(broken) + "\n")
    with pytest.raises(DataIntegrityError):
        load_dlp_dataset(reg, row.dlp)


def test_registry_round_trip(tiny_registry):
    """load_registry gives the rows generate_world returned, in sorted DLP
    order."""
    root = tiny_registry.root
    reloaded = load_registry(root)
    assert reloaded.rows == tiny_registry.rows
    assert [r.dlp for r in reloaded.rows] == sorted(r.dlp for r in reloaded.rows)


def test_corpus_without_registry_tsv_loads_the_same_registry(tiny_registry, tmp_path):
    """The program reads world.json and writes no registry.tsv; a copied
    corpus loads the same registry and datasets."""
    root = tmp_path / "copy"
    shutil.copytree(tiny_registry.root, root)
    assert not (root / "registry.tsv").exists()
    reloaded = load_registry(root)
    assert reloaded.spec == tiny_registry.spec and reloaded.rows == tiny_registry.rows
    row = reloaded.row(DlpId("gears", "apa", "bel"))
    assert load_dlp_dataset(reloaded, row.dlp) == load_dlp_dataset(tiny_registry, row.dlp)


def test_registry_roles(tiny_registry):
    roles = {r.dlp: r.role for r in tiny_registry.rows}
    assert roles[DlpId("general", "apa", "bel")] == "pretrain"
    assert roles[DlpId("gears", "apa", "bel")] == "meta_train"
    assert roles[DlpId("herbs", "apa", "bel")] == "heldout"       # held-out domain
    assert roles[DlpId("gears", "apa", "cor")] == "heldout"       # held-out language
    assert roles[DlpId("general", "apa", "cor")] == "pretrain"    # pretraining covers all languages


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.text("ab !", min_size=1, max_size=8),
                          st.text("ab !", min_size=1, max_size=8)), max_size=12))
def test_filter_idempotence_property(pairs):
    once = filter_corpus(pairs)
    assert filter_corpus(once) == once


ACCEPTANCE_WORLD = Path(__file__).resolve().parent.parent / "configs" / "acceptance_world.json"
#: SHA-256 over each file's relative path and then its bytes, in sorted
#: rglob order, of the tree written for configs/acceptance_world.json by the
#: generator that drew with ``Generator.choice(..., p=...)`` on every draw,
#: less the registry.tsv that generator also wrote.
ACCEPTANCE_WORLD_SHA256 = "8f3a59a0cfd6290f2750e5bc04db0adb1039162151de796a4c9c4b92904928a9"


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _acceptance_tables():
    models = _domain_models(SyntheticWorldSpec.from_json(ACCEPTANCE_WORLD))
    for model in models.values():
        yield model.weights, model.word_cdf
        yield model.function_profile, model.function_cdf
    rng = np.random.default_rng(11)
    for size in (1, 2, 10, 31, 150):
        w = rng.random(size) ** 3
        w[rng.random(size) < 0.2] = 0.0  # zero-weight entries are never drawn
        if not w.any():
            w[0] = 1.0
        w /= w.sum()
        yield tuple(w.tolist()), _cdf(w, "random weights")


def test_cdf_draw_equals_generator_choice():
    for seed, (weights, cdf) in enumerate(_acceptance_tables()):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        drawn = [_draw(cdf, ours) for _ in range(10_000)]
        expected = [int(theirs.choice(len(weights), p=weights)) for _ in range(10_000)]
        assert drawn == expected, seed
        assert ours.random() == theirs.random()  # same number of doubles consumed


class _FixedDouble:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("u,expected", [(0.0, 1), (0.5, 3), (0.999, 3)])
def test_cdf_draw_on_a_boundary_skips_zero_weight_entries(u, expected):
    # Generator.choice searches its table with side="right": a double equal to
    # a boundary (0.0 is a possible draw) never lands on a zero-weight index
    cdf = _cdf([0.0, 0.5, 0.0, 0.5], "test weights")
    assert _draw(cdf, _FixedDouble(u)) == expected


@pytest.mark.parametrize("token,expected", [
    ("", False), ("...", True), ("a.", False), ("apa.f3", False), ("!", True), ("w012", False)])
def test_is_punct_token_matches_per_character_rule(token, expected):
    assert _is_punct_token(token) is expected
    assert expected == (bool(token) and all(c in PUNCTUATION_CHARS for c in token))


@pytest.mark.parametrize("weights", [
    [0.6, -0.1, 0.5], [0.5, float("nan"), 0.5], [0.5, float("inf")], [0.3, 0.3],
    [[0.5, 0.5]], []])
def test_bad_weight_table_raises_config_error(weights):
    with pytest.raises(ConfigError):
        _cdf(weights, "test weights")


def test_acceptance_world_tree_is_pinned(tmp_path):
    spec = SyntheticWorldSpec.from_json(ACCEPTANCE_WORLD)
    generate_world(spec, tmp_path / "w")
    assert _tree_sha256(tmp_path / "w") == ACCEPTANCE_WORLD_SHA256


def test_split_line_count_differing_from_registry_raises(tmp_path):
    reg = generate_world(tiny_world_spec(seed=9), tmp_path / "w")
    row = reg.rows[0]
    path = row.path(reg.root, "valid")
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(DataIntegrityError, match="world.json gives"):
        load_dlp_dataset(reg, row.dlp)


# --- the per-sentence helpers against the code they replaced --------------------------

def _latent_sentence_per_slot(model, rng):
    """One `_draw` per 'C' slot, left to right."""
    if model.templates is None:
        template = _pattern(rng, model.length_range, model.function_cdf)
    else:
        template = model.templates[int(rng.integers(0, len(model.templates)))]
    return [model.words[_draw(model.word_cdf, rng)] if slot == "C" else slot
            for slot in template]


def test_latent_sentence_equals_per_slot_draws():
    models = list(_domain_models(SyntheticWorldSpec.from_json(ACCEPTANCE_WORLD)).values())
    # a template without content slots draws no word and consumes no double
    models.append(dataclasses.replace(models[-1], templates=(("f0", "f3"), ("C", "f1", "C"))))
    for model in models:
        for seed in range(4):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            drawn = [_latent_sentence(model, ours) for _ in range(300)]
            assert drawn == [_latent_sentence_per_slot(model, theirs) for _ in range(300)]
            assert ours.random() == theirs.random(), (model.name, seed)


def _rotate_blocks(tokens, r, block=2):
    out = []
    for start in range(0, len(tokens), block):
        part = tokens[start : start + block]
        k = r % len(part)
        out.extend(part[k:] + part[:k])
    return out


@pytest.mark.parametrize("r", [-1, 0, 1])
def test_reorder_equals_block_rotation(r):
    for length in range(13):
        tokens = [f"t{i}" for i in range(length)]
        assert _reorder(tokens, r) == _rotate_blocks(tokens, r), length
        assert tokens == [f"t{i}" for i in range(length)]  # the input is left as it was


def _filter_per_token(pairs):
    seen, out = set(), []
    for pair in pairs:
        sides = [side.split() for side in pair]
        if all(tokens and len(tokens) <= MAX_SENTENCE_TOKENS
               and sum(map(_is_punct_token, tokens)) / len(tokens) <= PUNCTUATION_RATIO_LIMIT
               for tokens in sides) and pair not in seen:
            seen.add(pair)
            out.append(pair)
    return out


_TOKENS = st.sampled_from(["!", "...", "?!", "a.", "apa.f3", "w012", "-", "x", "(", "mk.gears"])
_SIDES = st.one_of(st.lists(_TOKENS, max_size=8).map(" ".join),
                   st.text("a.! \t", max_size=10))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_SIDES, _SIDES), max_size=10))
def test_filter_equals_per_token_rule(pairs):
    assert filter_corpus(pairs) == _filter_per_token(pairs)


# --- realizing, counting and filtering through per-DLP tables --------------------------

class _CountingChars(frozenset):
    """The punctuation set, recording each token it is asked about."""

    def issuperset(self, token):
        self.calls.append(token)
        return super().issuperset(token)


def test_filter_judges_each_distinct_token_once(monkeypatch):
    chars = _CountingChars(PUNCTUATION_CHARS)
    chars.calls = []
    monkeypatch.setattr("metadapt.corpus.PUNCTUATION_CHARS", chars)
    pairs = [("a ! a", "b b"), ("a ! a", "b b"), ("! ! a", "? b")]
    assert filter_corpus(pairs) == [("a ! a", "b b")]
    assert sorted(chars.calls) == ["!", "?", "a", "b"]


def test_surface_table_entry_is_realize_of_its_token():
    spec = SyntheticWorldSpec.from_json(ACCEPTANCE_WORLD)
    for model in _domain_models(spec).values():
        for lang in spec.languages:
            table = _surface_table(model, lang)
            assert set(table) == set(model.words) | {f"f{k}" for k in range(10)}
            for token, surface in table.items():
                assert realize(spec, [token], lang) == [surface], (model.name, lang, token)


def test_table_realization_equals_realize_and_inverts():
    spec = SyntheticWorldSpec.from_json(ACCEPTANCE_WORLD)
    for seed, model in enumerate(_domain_models(spec).values()):
        rng = np.random.default_rng(seed)
        latents = [_latent_sentence(model, rng) for _ in range(200)]
        for lang in spec.languages:
            surface_of = _surface_table(model, lang).__getitem__
            for latent in latents:
                surface = _reorder(list(map(surface_of, latent)), _rotation(spec, lang))
                assert surface == realize(spec, latent, lang)
                assert to_latent(spec, surface, lang) == latent


def test_write_dlp_counts_equal_a_recount_of_its_files(tmp_path):
    """The surface counts _write_dlp derives from its latent counts equal a
    recount of every token of both sides it wrote, and its latent counts
    equal a recount of the source sides mapped back to latent form."""
    spec = tiny_world_spec(seed=4)
    models = _domain_models(spec)
    for job in [(0, 0, 1), (1, 1, 0), (2, 2, 1), (1, 0, 2)]:
        tokens, latent_counts = _write_dlp(spec, models, tmp_path, job)
        d_idx, s_idx, t_idx = job
        row = _registry_row(spec, DlpId(spec.domains[d_idx], spec.languages[s_idx],
                                        spec.languages[t_idx]))
        surface, latent = Counter(), Counter()
        for split in ("train", "adapt", "valid", "test"):
            for line in row.path(tmp_path, split).read_text(encoding="utf-8").splitlines():
                src, tgt = line.split("\t")
                surface.update(src.split() + tgt.split())
                latent.update(to_latent(spec, src.split(), row.dlp.src_lang))
        assert tokens == surface and latent_counts == latent, job


# --- world generation across processes ------------------------------------------------

def _count_starts(monkeypatch, allowed: bool) -> list:
    """Record each started process; on one CPU, forbid starting any."""
    started = []
    real = ForkProcess.start

    def start(self):
        if not allowed:
            raise AssertionError("generate_world started a process on one CPU")
        started.append(self)
        real(self)

    monkeypatch.setattr(ForkProcess, "start", start)
    return started


def test_world_same_bytes_on_any_cpu_count(tmp_path, monkeypatch):
    """18 DLPs written by this process alone on one CPU, and by this process
    and two workers on three, give the same tree byte for byte."""
    trees = []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            on_cpus(patch, cpus)
            started = _count_starts(patch, allowed=cpus > 1)
            generate_world(tiny_world_spec(seed=3), tmp_path / str(cpus))
        assert len(started) == cpus - 1
        assert multiprocessing.active_children() == []
        trees.append(_tree_bytes(tmp_path / str(cpus)))
    assert trees[0] == trees[1]


def test_world_raises_the_first_failing_dlp_on_any_cpu_count(tmp_path, monkeypatch):
    """Every specialist DLP fails (one-slot templates over two words); the
    error names the first in DLP order, however the DLPs were split."""
    spec = tiny_world_spec(domain_vocab_size=1, templates_per_domain=1, specialist_len=(1, 1))
    messages = []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            on_cpus(patch, cpus)
            _count_starts(patch, allowed=cpus > 1)
            with pytest.raises(ConfigError) as caught:
                generate_world(spec, tmp_path / str(cpus))
        assert multiprocessing.active_children() == []
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("generate_world: gears/apa-bel cannot supply 72 distinct")
