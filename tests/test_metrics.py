import math
import random

import pytest

from metadapt.errors import InputError
from metadapt.metrics import (
    MetricsRecord,
    aggregate,
    chrf,
    corpus_bleu,
    read_records,
    write_records,
)
from metadapt.tasks import DlpId


# --- brute-force oracles (independent of the implementation) -----------------

def oracle_chrf_single(hyp: str, ref: str, order=6, beta=2.0) -> float:
    hyp = hyp.replace(" ", "")
    ref = ref.replace(" ", "")
    precisions, recalls = [], []
    for n in range(1, order + 1):
        hyp_grams = [hyp[i:i + n] for i in range(len(hyp) - n + 1)]
        ref_grams = [ref[i:i + n] for i in range(len(ref) - n + 1)]
        if not hyp_grams or not ref_grams:
            continue
        matched = 0
        pool = list(ref_grams)
        for g in hyp_grams:
            if g in pool:
                pool.remove(g)
                matched += 1
        precisions.append(matched / len(hyp_grams))
        recalls.append(matched / len(ref_grams))
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0:
        return 0.0
    return 100.0 * (1 + beta * beta) * p * r / (beta * beta * p + r)


def _oracle_clipped_matches(hyp_grams: list, ref_grams: list) -> int:
    """Match each hypothesis n-gram against a still-unused reference copy."""
    matched = 0
    pool = list(ref_grams)
    for g in hyp_grams:
        if g in pool:
            pool.remove(g)
            matched += 1
    return matched


def oracle_bleu(hyps: list[str], refs: list[str], order=4) -> float:
    """Corpus BLEU by enumeration: clipped n-gram matches and hypothesis
    n-gram counts summed over the corpus, precisions over the leading orders
    with any hypothesis n-gram, brevity penalty from the summed lengths."""
    correct, total = [0] * order, [0] * order
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h, r = hyp.split(), ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, order + 1):
            hyp_grams = [h[i:i + n] for i in range(len(h) - n + 1)]
            ref_grams = [r[i:i + n] for i in range(len(r) - n + 1)]
            correct[n - 1] += _oracle_clipped_matches(hyp_grams, ref_grams)
            total[n - 1] += len(hyp_grams)
    used = 0
    while used < order and total[used] > 0:
        used += 1
    if used == 0 or hyp_len == 0 or 0 in correct[:used]:
        return 0.0
    log_mean = sum(math.log(correct[i] / total[i]) for i in range(used)) / used
    return 100.0 * math.exp(min(0.0, 1.0 - ref_len / hyp_len)) * math.exp(log_mean)


def oracle_chrf(hyps: list[str], refs: list[str], order=6, beta=2.0) -> float:
    """Corpus chrF by enumeration: per-order counts summed over the corpus
    before precision and recall are taken."""
    matched, hyp_total, ref_total = [0] * order, [0] * order, [0] * order
    for hyp, ref in zip(hyps, refs):
        h, r = hyp.replace(" ", ""), ref.replace(" ", "")
        for n in range(1, order + 1):
            hyp_grams = [h[i:i + n] for i in range(len(h) - n + 1)]
            ref_grams = [r[i:i + n] for i in range(len(r) - n + 1)]
            matched[n - 1] += _oracle_clipped_matches(hyp_grams, ref_grams)
            hyp_total[n - 1] += len(hyp_grams)
            ref_total[n - 1] += len(ref_grams)
    used = [i for i in range(order) if hyp_total[i] and ref_total[i]]
    if not used:
        return 0.0
    p = sum(matched[i] / hyp_total[i] for i in used) / len(used)
    r = sum(matched[i] / ref_total[i] for i in used) / len(used)
    if p + r == 0:
        return 0.0
    return 100.0 * (1 + beta * beta) * p * r / (beta * beta * p + r)


# --- BLEU ---------------------------------------------------------------------

def test_bleu_perfect_match_is_100():
    refs = ["a b c d", "x y z w q"]
    assert corpus_bleu(refs, refs) == pytest.approx(100.0)


def test_bleu_zero_fourgram_precision_gives_zero():
    # precisions 3/4, 2/3, 1/2, 0 -> unsmoothed score is exactly 0
    assert corpus_bleu(["a b c e"], ["a b c d"]) == 0.0


def test_bleu_short_hypothesis_effective_order():
    # p1 = p2 = 1, no 3-grams or 4-grams exist; BP = exp(1 - 4/2)
    score = corpus_bleu(["a b"], ["a b c d"])
    assert score == pytest.approx(100.0 * math.exp(-1.0), abs=1e-6)
    assert score == pytest.approx(36.79, abs=0.01)


def test_bleu_hand_counted_two_segment_corpus():
    # segment 1: hyp "a b c", ref "a b c"; segment 2: hyp "a b x y", ref "a b y y"
    # 1-grams: correct (3 + 3)/ (3+4); 2-grams: (2 + 1)/(2+3); 3-grams: (1+0)/(1+2); 4-grams: 0/1 -> 0.0
    hyps = ["a b c", "a b x y"]
    refs = ["a b c", "a b y y"]
    assert corpus_bleu(hyps, refs) == 0.0


def test_bleu_brevity_penalty_only_when_shorter():
    # same unigram content; longer hypothesis gets no BP (min(0, .) clamp)
    long_hyp = corpus_bleu(["a b c d e"], ["a b c d"])
    assert long_hyp > 0.0
    short_hyp = corpus_bleu(["a b c"], ["a b c d"])
    assert short_hyp < corpus_bleu(["a b c d"], ["a b c d"])


def test_bleu_pair_order_permutation_invariant():
    hyps = ["a b c", "d e f g", "a a b"]
    refs = ["a b d", "d e f f", "a b b"]
    base = corpus_bleu(hyps, refs)
    perm = [2, 0, 1]
    assert corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == pytest.approx(base, abs=1e-12)


def test_bleu_input_validation():
    with pytest.raises(InputError):
        corpus_bleu([], [])
    with pytest.raises(InputError):
        corpus_bleu(["a"], ["a", "b"])


def test_bleu_case_sensitive():
    assert corpus_bleu(["A b"], ["a b"]) < corpus_bleu(["a b"], ["a b"])


def test_bleu_appending_correct_pair_never_hurts_regression():
    hyps = ["a b c e"]
    refs = ["a b c d"]
    before = corpus_bleu(hyps, refs)
    after = corpus_bleu(hyps + ["p q r s t"], refs + ["p q r s t"])
    assert after >= before


# --- chrF ----------------------------------------------------------------------

def test_chrf_perfect_match_is_100():
    refs = ["abc def", "ghij"]
    assert chrf(refs, refs) == pytest.approx(100.0)


def test_chrf_disjoint_characters_is_zero():
    assert chrf(["aaa"], ["bbb"]) == 0.0


def test_chrf_single_pair_matches_bruteforce_oracle():
    # frozen value: exhaustive n-gram enumeration gives mean P = mean R = 7/18
    got = chrf(["abc"], ["abd"])
    assert got == pytest.approx(oracle_chrf_single("abc", "abd"), abs=1e-9)
    assert got == pytest.approx(100.0 * 7.0 / 18.0, abs=1e-9)


def test_chrf_random_single_pairs_match_bruteforce_oracle():
    rng = random.Random(0)
    alphabet = "abcd "
    for _ in range(25):
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))).strip() or "a"
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))).strip() or "b"
        assert chrf([hyp], [ref]) == pytest.approx(oracle_chrf_single(hyp, ref), abs=1e-9)


def test_random_corpora_match_bruteforce_oracles():
    """Multi-pair corpora over two- and three-word alphabets repeat words and
    characters within and across sentences, so both metrics' clipping and
    their corpus-level sums are checked against enumeration."""
    rng = random.Random(1)
    for _ in range(200):
        words = ["a", "b", "ab", "ba", "c"][: rng.randint(2, 3)]
        pairs = rng.randint(2, 5)

        def sentence(min_len):
            return " ".join(rng.choice(words) for _ in range(rng.randint(min_len, 9)))

        hyps = [sentence(0) for _ in range(pairs)]
        refs = [sentence(1) for _ in range(pairs)]
        assert corpus_bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)
        assert chrf(hyps, refs) == pytest.approx(oracle_chrf(hyps, refs), abs=1e-9)


EDGE_CORPORA = [
    # the repeated "a b" of the first hypothesis is held once by its own
    # reference and once by the other pair's: clipping is per pair
    pytest.param(["a b c d a b", "e f g h"], ["a b c d e f", "e f g h a b"], id="clip-per-pair"),
    pytest.param(["", "a b c d"], ["a b", "a b c d"], id="empty-hypothesis"),
    pytest.param([""], ["a b"], id="only-empty-hypothesis"),
    pytest.param(["a b"], ["a b c"], id="fewer-tokens-than-order"),
    pytest.param(["a"], ["a"], id="one-character"),
    pytest.param(["é 𝔸é", "𝔸𝔸 é"], ["é 𝔸e", "𝔸𝔹 é"], id="non-ascii-and-astral"),
]


@pytest.mark.parametrize("hyps, refs", EDGE_CORPORA)
def test_edge_corpora_match_bruteforce_oracles(hyps, refs):
    assert corpus_bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)
    assert chrf(hyps, refs) == pytest.approx(oracle_chrf(hyps, refs), abs=1e-9)


def test_chrf_whitespace_removed_before_ngrams():
    assert chrf(["ab cd"], ["abcd"]) == pytest.approx(100.0)


def test_chrf_pair_order_permutation_invariant():
    hyps = ["abc", "defg", "aab"]
    refs = ["abd", "deff", "abb"]
    base = chrf(hyps, refs)
    perm = [1, 2, 0]
    assert chrf([hyps[i] for i in perm], [refs[i] for i in perm]) == pytest.approx(base, abs=1e-12)


# --- aggregation -----------------------------------------------------------------

def _record(domain, src, tgt, strategy, bleu, chrf_score=50.0, loss=1.0):
    return MetricsRecord(dlp=DlpId(domain, src, tgt), strategy=strategy, bleu=bleu,
                         chrf=chrf_score, loss=loss, trainable_params=10, trainable_ratio=0.5)


def test_aggregate_single_record_degenerate():
    rec = _record("d", "a", "b", "base", 42.0)
    rows = aggregate([rec], "domain", reference="base")
    assert len(rows) == 1
    row = rows[0]
    assert row.mean_bleu == 42.0 and row.delta_bleu == 0.0 and row.count == 1


def test_aggregate_reference_delta_zero():
    recs = [_record("d", "a", "b", "base", 40.0), _record("d", "a", "b", "new", 45.0)]
    rows = aggregate(recs, "domain", reference="base")
    deltas = {r.strategy: r.delta_bleu for r in rows}
    assert deltas["base"] == 0.0
    assert deltas["new"] == pytest.approx(5.0)


def test_aggregate_mean_and_reorder_consistency():
    recs = [_record("d", "a", "b", "s", 20.0), _record("d", "b", "a", "s", 30.0),
            _record("d", "a", "b", "ref", 10.0), _record("d", "b", "a", "ref", 10.0)]
    t1 = aggregate(recs, "domain", reference="ref")
    t2 = aggregate(list(reversed(recs)), "domain", reference="ref")
    row1 = next(r for r in t1 if r.strategy == "s")
    row2 = next(r for r in t2 if r.strategy == "s")
    assert row1.mean_bleu == pytest.approx(25.0)
    assert row1.delta_bleu == pytest.approx(15.0)
    assert (row1.mean_bleu, row1.delta_bleu) == (row2.mean_bleu, row2.delta_bleu)


def test_aggregate_missing_reference():
    with pytest.raises(InputError):
        aggregate([_record("d", "a", "b", "s", 1.0)], "domain", reference="absent")


def test_records_csv_round_trip(tmp_path):
    recs = [_record("d", "a", "b", "s", 33.3333), _record("e", "b", "a", "t", 12.5)]
    path = tmp_path / "metrics.csv"
    write_records(recs, path)
    back = read_records(path)
    assert [(r.dlp, r.strategy) for r in back] == [(r.dlp, r.strategy) for r in recs]
    assert back[0].bleu == pytest.approx(33.3333, abs=1e-4)
