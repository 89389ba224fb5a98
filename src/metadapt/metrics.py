"""Corpus-level BLEU and chrF, plus trainable-parameter accounting and
report aggregation.

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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .checkpoint import read_text, write_csv
from .errors import DataIntegrityError, InputError
from .tasks import DlpId

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0


def _ngram_matches(hyp: str | tuple[str, ...], ref: str | tuple[str, ...],
                   n: int) -> tuple[int, int, int]:
    """For the order-n n-grams of one hypothesis and its reference (a string
    gives character n-grams, a tuple word n-grams): the clipped matches, each
    hypothesis n-gram counted at most as often as the reference holds it, and
    the hypothesis and reference n-gram counts."""
    hyp_ngrams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
    ref_ngrams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
    return (sum((hyp_ngrams & ref_ngrams).values()),
            max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0))


def _check_corpus(hypotheses: list[str], references: list[str], op: str) -> None:
    if not hypotheses or not references:
        raise InputError(f"{op}: empty corpus")
    if len(hypotheses) != len(references):
        raise InputError(f"{op}: {len(hypotheses)} hypotheses vs {len(references)} references")


def corpus_bleu(hypotheses: list[str], references: list[str]) -> float:
    _check_corpus(hypotheses, references, "corpus_bleu")
    correct = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_toks = tuple(hyp.split())
        ref_toks = tuple(ref.split())
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, BLEU_ORDER + 1):
            matched, hyp_count, _ = _ngram_matches(hyp_toks, ref_toks, n)
            correct[n - 1] += matched
            total[n - 1] += hyp_count
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


def chrf(hypotheses: list[str], references: list[str]) -> float:
    _check_corpus(hypotheses, references, "chrf")
    hyp_total = [0] * CHRF_ORDER
    ref_total = [0] * CHRF_ORDER
    matched = [0] * CHRF_ORDER
    for hyp, ref in zip(hypotheses, references):
        hyp_chars = "".join(hyp.split())
        ref_chars = "".join(ref.split())
        for n in range(1, CHRF_ORDER + 1):
            matches, hyp_count, ref_count = _ngram_matches(hyp_chars, ref_chars, n)
            matched[n - 1] += matches
            hyp_total[n - 1] += hyp_count
            ref_total[n - 1] += ref_count
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
    parse are a DataIntegrityError naming the file."""
    out = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if reader.fieldnames != RECORD_COLUMNS:
        raise DataIntegrityError(f"{path}: unexpected metrics columns {reader.fieldnames}")
    for row in reader:
        try:
            out.append(MetricsRecord(
                dlp=DlpId(row["domain"], row["src_lang"], row["tgt_lang"]),
                strategy=row["strategy"],
                bleu=float(row["bleu"]),
                chrf=float(row["chrf"]),
                loss=float(row["loss"]),
                trainable_params=int(row["trainable_params"]),
                trainable_ratio=float(row["trainable_ratio"]),
                wall_time=float(row["wall_time"]),
                note=row["note"],
            ))
        except (TypeError, ValueError) as exc:  # a short row reads None
            raise DataIntegrityError(
                f"{path}: bad value on line {reader.line_num} ({exc})") from exc
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


@dataclass
class ReportTable:
    grouping: str        # domain | language_pair | strategy
    reference: str
    rows: list[ReportRow]


def _group_key(record: MetricsRecord, grouping: str) -> str:
    if grouping == "domain":
        return record.dlp.domain
    if grouping == "language_pair":
        return f"{record.dlp.src_lang}-{record.dlp.tgt_lang}"
    if grouping == "strategy":
        return "all"
    raise InputError(f"aggregate: unknown grouping '{grouping}'")


def aggregate(records: list[MetricsRecord], grouping: str, reference: str) -> ReportTable:
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
    return ReportTable(grouping=grouping, reference=reference, rows=out)


REPORT_COLUMNS = ["group", "strategy", "mean_bleu", "mean_chrf", "mean_loss", "count", "delta_bleu"]


def write_report(table: ReportTable, path: str | Path) -> None:
    write_csv(path, REPORT_COLUMNS, ([r.group, r.strategy, f"{r.mean_bleu:.4f}",
                                      f"{r.mean_chrf:.4f}", f"{r.mean_loss:.6f}", r.count,
                                      f"{r.delta_bleu:.4f}"] for r in table.rows))


# ---------------------------------------------------------------------------
# efficiency accounting
# ---------------------------------------------------------------------------

def count_trainable(model, adapter_sets: int | None = None) -> tuple[int, float]:
    """Trainable-parameter count and its share of the total parameter count.

    With `adapter_sets`, the count is that many adapter sets the size of one
    of the model's adapter groups (the stacked-adapter strategy trains one
    set per language pair and one per domain, but installs only two), and
    the share is of the backbone plus those sets.
    """
    if adapter_sets is not None:
        per_set = model.param_count(model.adapter_names()) // max(len(model.adapter_groups), 1)
        count = adapter_sets * per_set
        return count, count / (model.param_count(model.backbone_names()) + count)
    count = model.param_count(model.trainable_names())
    return count, count / model.param_count()
