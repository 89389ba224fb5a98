"""Corpus-level BLEU and chrF, plus metrics records and report aggregation.

BLEU
    Corpus BLEU-4 without smoothing: geometric mean of modified n-gram
    precisions (n = 1..4) times the brevity penalty exp(min(0, 1 - r/c)),
    case-sensitive, over whitespace tokens of the detokenized text. Orders
    whose total hypothesis n-gram count is zero across the corpus are
    excluded and the geometric mean runs over the remaining leading orders
    (relevant when every hypothesis is shorter than 4 tokens); a zero
    precision at a used order makes the score exactly 0.

chrF
    Character n-gram F-score, n = 1..6, beta = 2 (recall weighted twice as
    much as precision). Whitespace is removed before n-gram extraction.
    Counts are summed over the corpus, precision/recall averaged over the
    orders where both sides produced n-grams.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_text, write_csv
from .errors import DataIntegrityError, InputError
from .tasks import DlpId

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0


def _ngram_matches(hyp_ids: np.ndarray, hyp_lens: list[int], ref_ids: np.ndarray,
                   ref_lens: list[int], order: int) -> tuple[list[int], list[int], list[int]]:
    """Corpus n-gram counts of integer sequences, given concatenated with
    their lengths, hypothesis i paired with reference i. Per order n =
    1..order: the clipped matches (within each pair, every hypothesis n-gram
    counts at most as often as its reference holds it, summed over pairs)
    and the hypothesis and reference n-gram totals.

    Every n-gram is keyed by its pair and ranked among the distinct keys of
    the corpus, order by order from the (n-1)-gram's rank and its last id,
    so keys stay below (pairs + ids) squared whatever the ids are."""
    ids = np.concatenate([hyp_ids, ref_ids])
    lens = np.array(hyp_lens + ref_lens, dtype=np.int64)
    # before order 1, the rank of a position's key is its pair's index
    ranks = np.repeat(np.concatenate([np.arange(len(hyp_lens)), np.arange(len(ref_lens))]), lens)
    left = np.repeat(np.cumsum(lens), lens) - np.arange(len(ids))  # ids up to sentence end
    alphabet, tokens = np.unique(ids, return_inverse=True)
    matched, hyp_total, ref_total = [], [], []
    for n in range(1, order + 1):
        starts = np.flatnonzero(left >= n)
        keys, rank = np.unique(ranks[starts] * len(alphabet) + tokens[starts + n - 1],
                               return_inverse=True)
        ranks[starts] = rank
        split = int(np.searchsorted(starts, len(hyp_ids)))  # hypothesis n-grams come first
        matched.append(int(np.minimum(np.bincount(rank[:split], minlength=len(keys)),
                                      np.bincount(rank[split:], minlength=len(keys))).sum()))
        hyp_total.append(split)
        ref_total.append(len(starts) - split)
    return matched, hyp_total, ref_total


def _check_corpus(hypotheses: list[str], references: list[str], op: str) -> None:
    if not hypotheses or not references:
        raise InputError(f"{op}: empty corpus")
    if len(hypotheses) != len(references):
        raise InputError(f"{op}: {len(hypotheses)} hypotheses vs {len(references)} references")


def _word_ids(texts: list[str], word_ids: dict[str, int]) -> tuple[np.ndarray, list[int]]:
    """Ids of the texts' whitespace tokens, concatenated, with new words
    numbered into `word_ids` as they appear, and each text's count of them."""
    words = [text.split() for text in texts]
    ids = [word_ids.setdefault(word, len(word_ids)) for line in words for word in line]
    return np.array(ids, dtype=np.int64), [len(line) for line in words]


def corpus_bleu(hypotheses: list[str], references: list[str]) -> float:
    _check_corpus(hypotheses, references, "corpus_bleu")
    word_ids: dict[str, int] = {}
    correct, total, ref_total = _ngram_matches(*_word_ids(hypotheses, word_ids),
                                               *_word_ids(references, word_ids), BLEU_ORDER)
    hyp_len, ref_len = total[0], ref_total[0]
    effective_order = 0
    for n in range(1, BLEU_ORDER + 1):
        if total[n - 1] == 0:
            break
        effective_order = n
    if effective_order == 0 or hyp_len == 0:
        return 0.0
    precisions = [correct[i] / total[i] for i in range(effective_order)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    log_mean = sum(math.log(p) for p in precisions) / effective_order
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_mean)


def _code_points(texts: list[str]) -> tuple[np.ndarray, list[int]]:
    """Code points of the texts without whitespace, concatenated, and each
    text's count of them."""
    chars = ["".join(text.split()) for text in texts]
    joined = "".join(chars).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(joined, dtype="<u4"), [len(c) for c in chars]


def chrf(hypotheses: list[str], references: list[str]) -> float:
    _check_corpus(hypotheses, references, "chrf")
    matched, hyp_total, ref_total = _ngram_matches(*_code_points(hypotheses),
                                                   *_code_points(references), CHRF_ORDER)
    precision = 0.0
    recall = 0.0
    used = 0
    for i in range(CHRF_ORDER):
        if hyp_total[i] > 0 and ref_total[i] > 0:
            precision += matched[i] / hyp_total[i]
            recall += matched[i] / ref_total[i]
            used += 1
    if used == 0:
        return 0.0
    precision /= used
    recall /= used
    if precision + recall == 0.0:
        return 0.0
    beta_sq = CHRF_BETA ** 2
    return 100.0 * (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


# ---------------------------------------------------------------------------
# records and aggregation
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    """One evaluation row: a (DLP, strategy) pair and its scores."""

    dlp: DlpId
    strategy: str
    bleu: float
    chrf: float
    loss: float
    trainable_params: int
    trainable_ratio: float
    wall_time: float = 0.0
    note: str = ""

    def validate(self) -> None:
        if not 0.0 <= self.bleu <= 100.0 or not 0.0 <= self.chrf <= 100.0:
            raise InputError("metrics record: scores must lie in [0, 100]")
        if not 0.0 < self.trainable_ratio <= 1.0:
            raise InputError("metrics record: trainable ratio must lie in (0, 1]")


RECORD_COLUMNS = ["domain", "src_lang", "tgt_lang", "strategy", "bleu", "chrf",
                  "loss", "trainable_params", "trainable_ratio", "wall_time", "note"]


def write_records(records: list[MetricsRecord], path: str | Path) -> None:
    write_csv(path, RECORD_COLUMNS, ([
        r.dlp.domain, r.dlp.src_lang, r.dlp.tgt_lang, r.strategy,
        f"{r.bleu:.4f}", f"{r.chrf:.4f}", f"{r.loss:.6f}",
        r.trainable_params, f"{r.trainable_ratio:.6f}",
        f"{r.wall_time:.3f}", r.note,
    ] for r in records))


def read_records(path: str | Path) -> list[MetricsRecord]:
    """Records of a metrics file; wrong columns or a value that does not
    parse or is out of range, such as an invalid DLP or a BLEU above 100, are
    a DataIntegrityError naming the file."""
    out = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if reader.fieldnames != RECORD_COLUMNS:
        raise DataIntegrityError(f"{path}: unexpected metrics columns {reader.fieldnames}")
    for row in reader:
        try:
            record = MetricsRecord(
                dlp=DlpId(row["domain"], row["src_lang"], row["tgt_lang"]),
                strategy=row["strategy"],
                bleu=float(row["bleu"]),
                chrf=float(row["chrf"]),
                loss=float(row["loss"]),
                trainable_params=int(row["trainable_params"]),
                trainable_ratio=float(row["trainable_ratio"]),
                wall_time=float(row["wall_time"]),
                note=row["note"],
            )
            record.validate()
        except (TypeError, ValueError, InputError) as exc:  # a short row reads None
            raise DataIntegrityError(
                f"{path}: bad value on line {reader.line_num} ({exc})") from exc
        out.append(record)
    return out


@dataclass
class ReportRow:
    group: str
    strategy: str
    mean_bleu: float
    mean_chrf: float
    mean_loss: float
    count: int
    delta_bleu: float


def _group_key(record: MetricsRecord, grouping: str) -> str:
    if grouping == "domain":
        return record.dlp.domain
    if grouping == "language_pair":
        return f"{record.dlp.src_lang}-{record.dlp.tgt_lang}"
    if grouping == "strategy":
        return "all"
    raise InputError(f"aggregate: unknown grouping '{grouping}'")


def aggregate(records: list[MetricsRecord], grouping: str, reference: str) -> list[ReportRow]:
    """Unweighted per-group means per strategy, with BLEU deltas vs the
    reference strategy in the same group."""
    if not records:
        raise InputError("aggregate: no records")
    strategies = {r.strategy for r in records}
    if reference not in strategies:
        raise InputError(f"aggregate: reference strategy '{reference}' absent from records")
    buckets: dict[tuple[str, str], list[MetricsRecord]] = {}
    for r in records:
        buckets.setdefault((_group_key(r, grouping), r.strategy), []).append(r)
    means = {}
    for (group, strategy), rows in buckets.items():
        means[(group, strategy)] = (
            sum(x.bleu for x in rows) / len(rows),
            sum(x.chrf for x in rows) / len(rows),
            sum(x.loss for x in rows) / len(rows),
            len(rows),
        )
    out = []
    for (group, strategy) in sorted(means):
        bleu, chrf_score, loss, count = means[(group, strategy)]
        ref_bleu = means.get((group, reference), (bleu,))[0]
        out.append(ReportRow(group=group, strategy=strategy, mean_bleu=bleu,
                             mean_chrf=chrf_score, mean_loss=loss, count=count,
                             delta_bleu=bleu - ref_bleu))
    return out


REPORT_COLUMNS = ["group", "strategy", "mean_bleu", "mean_chrf", "mean_loss", "count", "delta_bleu"]


def write_report(rows: list[ReportRow], path: str | Path) -> None:
    write_csv(path, REPORT_COLUMNS, ([r.group, r.strategy, f"{r.mean_bleu:.4f}",
                                      f"{r.mean_chrf:.4f}", f"{r.mean_loss:.6f}", r.count,
                                      f"{r.delta_bleu:.4f}"] for r in rows))

