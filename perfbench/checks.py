"""Correctness checks run after each workload's timed phase.

Each check tests a property of the program's output or recomputes it
independently; none compares against a stored copy of earlier output. Every
check returns a list of failure messages, empty when the output is correct.
BLEU and chrF here are a second implementation written from the
definitions in perfbench/README.md, not calls into `metadapt.metrics`.
"""

from __future__ import annotations

import math

import numpy as np

#: Logit gaps below this count as ties when checking greedy argmax choices.
TIE = 1e-9
#: Allowed disagreement between the two BLEU / chrF implementations.
SCORE_TOL = 1e-9


# ---------------------------------------------------------------------------
# BLEU and chrF
# ---------------------------------------------------------------------------

def _ngram_counts(seq, n: int) -> dict:
    counts: dict = {}
    for i in range(len(seq) - n + 1):
        key = tuple(seq[i : i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


def bleu(hyps: list[str], refs: list[str]) -> float:
    """Corpus BLEU-4, no smoothing, whitespace tokens, brevity penalty."""
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    c = r = 0
    for hyp, ref in zip(hyps, refs, strict=True):
        h, g = hyp.split(), ref.split()
        c += len(h)
        r += len(g)
        for n in range(1, 5):
            hc, gc = _ngram_counts(h, n), _ngram_counts(g, n)
            totals[n - 1] += sum(hc.values())
            matches[n - 1] += sum(min(k, gc.get(key, 0)) for key, k in hc.items())
    orders = 0
    while orders < 4 and totals[orders] > 0:
        orders += 1
    if orders == 0 or c == 0 or any(matches[i] == 0 for i in range(orders)):
        return 0.0
    log_p = sum(math.log(matches[i] / totals[i]) for i in range(orders)) / orders
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_p)


def chrf(hyps: list[str], refs: list[str], beta: float = 2.0) -> float:
    """Corpus chrF: character 1..6-grams without whitespace, F-beta."""
    hyp_n = [0] * 6
    ref_n = [0] * 6
    hit = [0] * 6
    for hyp, ref in zip(hyps, refs, strict=True):
        h, g = "".join(hyp.split()), "".join(ref.split())
        for n in range(1, 7):
            hc, gc = _ngram_counts(h, n), _ngram_counts(g, n)
            hyp_n[n - 1] += sum(hc.values())
            ref_n[n - 1] += sum(gc.values())
            hit[n - 1] += sum(min(k, gc.get(key, 0)) for key, k in hc.items())
    used = [i for i in range(6) if hyp_n[i] and ref_n[i]]
    if not used:
        return 0.0
    p = sum(hit[i] / hyp_n[i] for i in used) / len(used)
    rc = sum(hit[i] / ref_n[i] for i in used) / len(used)
    if p + rc == 0.0:
        return 0.0
    return 100.0 * (1 + beta * beta) * p * rc / (beta * beta * p + rc)


def check_scores(record, hyps: list[str], refs: list[str]) -> list[str]:
    errors = []
    for name, mine, theirs in (("BLEU", bleu(hyps, refs), record.bleu),
                               ("chrF", chrf(hyps, refs), record.chrf)):
        if abs(mine - theirs) > SCORE_TOL:
            errors.append(f"{record.dlp.key()}: {name} {theirs!r} != recomputed {mine!r}")
    if not math.isfinite(record.loss):
        errors.append(f"{record.dlp.key()}: test loss {record.loss!r} is not finite")
    return errors


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------

def check_greedy(model, vocab, src_lang: str, tgt_lang: str, sources: list[str],
                 hyps: list[str], max_len: int) -> tuple[list[str], int]:
    """Teacher-forced passes over the hypotheses must reproduce them.

    At every position the hypothesis token must be the argmax of the
    decoder's logits given the source and the hypothesis prefix, and after
    the last token the argmax must be the end token unless the hypothesis
    already has max_len tokens. Logits within TIE of the maximum count as
    ties. Hypothesis text omits special tokens, so where the argmax is a
    special token other than end or padding, it is put back into the prefix
    and the row is passed again. Any correct greedy decoder, cached or not,
    passes. Returns the failures and the tokens emitted, end tokens included.
    """
    unk = [tok for hyp in hyps for tok in hyp.split() if tok not in vocab.index]
    if unk:
        return [f"hypothesis tokens outside the vocabulary: {unk[:5]}"], 0
    tags = [vocab.lang_tag(src_lang), vocab.lang_tag(tgt_lang)]
    src_rows = [tags + [vocab.index[t] for t in s.split()] + [vocab.eos_id] for s in sources]
    rows = [[vocab.index[t] for t in h.split()] for h in hyps]
    errors = [f"hypothesis {r} has more than max_len {max_len} tokens"
              for r, row in enumerate(rows) if len(row) > max_len]
    pending = [r for r, row in enumerate(rows) if len(row) <= max_len]
    while pending:
        logits = _teacher_forced(model, vocab, [src_rows[r] for r in pending],
                                 [rows[r] for r in pending])
        again = []
        for i, r in enumerate(pending):
            row = rows[r]
            expected = row + ([vocab.eos_id] if len(row) < max_len else [])
            for j, tok in enumerate(expected):
                scores = logits[i, j]
                if scores[tok] >= scores.max() - TIE:
                    continue
                best = int(scores.argmax())
                if (vocab.is_special(best) and best not in (vocab.eos_id, vocab.pad_id)
                        and len(row) < max_len):
                    row.insert(j, best)
                    again.append(r)
                else:
                    errors.append(f"hypothesis {r} position {j}: token {vocab.tokens[tok]} "
                                  f"is not the argmax {vocab.tokens[best]}")
                break
        pending = again
    return errors, sum(min(len(row) + 1, max_len) for row in rows)


def _teacher_forced(model, vocab, src_rows: list[list[int]], hyp_rows: list[list[int]]):
    """Decoder logits for [bos] + each hypothesis row, given its source row."""
    from metadapt import tensor as T

    b = len(src_rows)
    ts = max(len(row) for row in src_rows)
    tt = max(len(row) for row in hyp_rows) + 1
    src = np.full((b, ts), vocab.pad_id, dtype=np.int64)
    src_mask = np.zeros((b, ts))
    dec_in = np.full((b, tt), vocab.pad_id, dtype=np.int64)
    dec_mask = np.zeros((b, tt))
    for r, (s_row, h_row) in enumerate(zip(src_rows, hyp_rows)):
        src[r, : len(s_row)] = s_row
        src_mask[r, : len(s_row)] = 1.0
        dec_in[r, : len(h_row) + 1] = [vocab.bos_id] + h_row
        dec_mask[r, : len(h_row) + 1] = 1.0
    with T.no_grad():
        return model.decode_logits(model.encode(src, src_mask), src_mask, dec_in, dec_mask).data


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_decrease(losses: list[float], window: int, factor: float, what: str) -> list[str]:
    """Mean of the last `window` losses below `factor` times the first's."""
    if len(losses) < 2 * window:
        return [f"{what}: {len(losses)} losses, need at least {2 * window}"]
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    if not (math.isfinite(last) and last < factor * first):
        return [f"{what}: last-window mean {last:.4f} not below {factor} x "
                f"first-window mean {first:.4f}"]
    return []


def check_moved(after: dict, before: dict, what: str) -> list[str]:
    """Every tensor finite and different from its starting value."""
    errors = []
    if set(after) != set(before):
        return [f"{what}: parameter names changed"]
    for name in sorted(after):
        if not np.all(np.isfinite(after[name])):
            errors.append(f"{what}: {name} has non-finite values")
        elif np.array_equal(after[name], before[name]):
            errors.append(f"{what}: {name} did not move")
    return errors


def check_gradient(loss_fn, params: dict, rng: np.random.Generator, samples: int,
                   h: float = 1e-6) -> list[str]:
    """Central differences against the analytic gradient at sampled
    coordinates. `loss_fn()` returns the scalar loss Tensor; the caller has
    populated every param's `.grad` for the current values."""
    from metadapt import tensor as T

    errors = []
    names = sorted(params)
    for _ in range(samples):
        name = names[int(rng.integers(len(names)))]
        p = params[name]
        idx = int(rng.integers(p.data.size))
        flat = p.data.reshape(-1)
        keep = flat[idx]
        with T.no_grad():
            flat[idx] = keep + h
            up = float(loss_fn().data)
            flat[idx] = keep - h
            down = float(loss_fn().data)
        flat[idx] = keep
        numeric = (up - down) / (2 * h)
        analytic = float(p.grad.reshape(-1)[idx])
        if abs(numeric - analytic) > 1e-7 + 1e-5 * max(abs(numeric), abs(analytic)):
            errors.append(f"gradient of {name}[{idx}]: analytic {analytic:.9g} "
                          f"vs central difference {numeric:.9g}")
    return errors
