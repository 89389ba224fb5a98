"""Translation-task bookkeeping: DLP identifiers, dataset shares, temperature
sampling, and m-way-n-shot episode construction.

A DLP (domain-language-pair) is one translation task: a textual domain plus an
ordered source->target language pair.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import _digest, read_split
from .errors import DataIntegrityError, InputError

log = logging.getLogger(__name__)

SentencePair = tuple[str, str]


@dataclass(frozen=True, order=True)
class DlpId:
    domain: str
    src_lang: str
    tgt_lang: str

    def __post_init__(self):
        if not (self.domain and self.src_lang and self.tgt_lang):
            raise InputError("DlpId: domain and language codes must be non-empty")
        if self.src_lang == self.tgt_lang:
            raise InputError("DlpId: source and target language must differ")

    def key(self) -> str:
        return f"{self.domain}/{self.src_lang}-{self.tgt_lang}"


def parse_pairs(text: str) -> list[SentencePair]:
    """A split file's pairs in file order: each line's source, then its
    target after the line's first tab."""
    pairs = []
    for line in text.splitlines():
        src, _, tgt = line.partition("\t")
        pairs.append((src, tgt))
    return pairs


@dataclass(frozen=True, slots=True)
class SplitFile:
    """A split file as `load_dlp_dataset` checked it: its path and the size
    and SHA-256 (`checkpoint._digest`) of the bytes those checks read."""

    path: Path
    digest: dict

    def pairs(self) -> list[SentencePair]:
        """The file's pairs (`parse_pairs`), once its bytes are still the
        checked ones: a file changed since is a DataIntegrityError naming it."""
        data = read_split(self.path)
        if _digest(data) != self.digest:
            raise DataIntegrityError(f"{self.path}: size or SHA-256 changed since the split "
                                     "was loaded and checked")
        return parse_pairs(data.decode("utf-8"))


class _Split:
    """One split of a DlpDataset, given as its pairs, as a split file's text
    (parsed at once) or as a `SplitFile`, which the first read turns into
    its pairs and keeps them in its place, so a split nothing reads is never
    read again after its load."""

    def __set_name__(self, owner, name):
        self._slot = "_" + name

    def __get__(self, ds, owner=None):
        if ds is None:
            return ""  # the default: an empty file's text
        value = ds.__dict__[self._slot]
        if isinstance(value, SplitFile):
            value = ds.__dict__[self._slot] = value.pairs()
        return value

    def __set__(self, ds, value):
        ds.__dict__[self._slot] = parse_pairs(value) if isinstance(value, str) else value


@dataclass
class DlpDataset:
    """Parallel corpus splits for one DLP. Each split is a list of pairs
    when read; it may be given as its file's text (`parse_pairs`) or as a
    checked `SplitFile`, read when first read."""

    id: DlpId
    train: list[SentencePair] = _Split()
    adapt: list[SentencePair] = _Split()
    valid: list[SentencePair] = _Split()
    test: list[SentencePair] = _Split()

    @property
    def size(self) -> int:
        return len(self.train)


def compute_shares(sizes: list[int]) -> list[float]:
    """Per-DLP dataset share: size_i / sum(sizes)."""
    if any(s < 0 for s in sizes):
        raise InputError("compute_shares: sizes must be non-negative")
    total = sum(sizes)
    if total <= 0:
        raise InputError("compute_shares: at least one dataset must be non-empty")
    return [s / total for s in sizes]


def sampling_probs(shares: list[float], tau: float) -> list[float]:
    """Temperature-scaled sampling distribution share_i^(1/tau) / sum(...).

    tau=1 reproduces the shares; tau=inf is exactly uniform over the DLPs
    with positive share. Zero-share DLPs keep probability zero at any tau.
    """
    if tau <= 0:
        raise InputError("sampling_probs: temperature must be positive")
    if math.isinf(tau):
        support = [1.0 if s > 0 else 0.0 for s in shares]
        k = sum(support)
        return [v / k for v in support]
    powered = [s ** (1.0 / tau) for s in shares]
    z = sum(powered)
    if z == 0.0:  # every power underflowed; relative to the largest share, that one stays 1
        top = max(shares)
        powered = [(s / top) ** (1.0 / tau) for s in shares]
        z = sum(powered)
    return [p / z for p in powered]


@dataclass(frozen=True)
class SamplingPlan:
    """Immutable DLP sampling distribution for one meta-training run."""

    dlp_ids: tuple[DlpId, ...]
    probs: tuple[float, ...]

    @classmethod
    def build(cls, datasets: dict[DlpId, DlpDataset] | dict[DlpId, int], tau: float) -> "SamplingPlan":
        ids = tuple(sorted(datasets))
        sizes = [datasets[i].size if isinstance(datasets[i], DlpDataset) else int(datasets[i]) for i in ids]
        shares = compute_shares(sizes)
        return cls(dlp_ids=ids, probs=tuple(sampling_probs(shares, tau)))


def sample_dlps(plan: SamplingPlan, m: int, rng: np.random.Generator, replace: bool = False) -> list[DlpId]:
    """Draw m DLPs from the plan's multinomial.

    Draws are without replacement by default (m distinct tasks per
    meta-batch); pass replace=True when m exceeds the number of DLPs.
    """
    if m < 1:
        raise InputError("sample_dlps: m must be >= 1")
    support = sum(1 for p in plan.probs if p > 0)
    if not replace and m > support:
        raise InputError(f"sample_dlps: m={m} exceeds {support} sampleable DLPs without replacement")
    idx = rng.choice(len(plan.dlp_ids), size=m, replace=replace, p=np.asarray(plan.probs))
    return [plan.dlp_ids[i] for i in idx]


@dataclass(frozen=True)
class EpisodeTask:
    dlp: DlpId
    support: tuple[SentencePair, ...]
    query: tuple[SentencePair, ...]
    support_with_replacement: bool = False


@dataclass(frozen=True)
class Episode:
    tasks: tuple[EpisodeTask, ...]


def build_episode(
    dlps: list[DlpId],
    datasets: dict[DlpId, DlpDataset],
    n: int,
    q: int,
    rng: np.random.Generator,
) -> Episode:
    """Assemble one m-way-n-shot episode: n support and q query pairs per task.

    Support and query are disjoint. When a train split is smaller than n+q,
    the query is drawn first without replacement and the support falls back
    to with-replacement draws from the remaining pairs (logged).
    """
    if n < 1 or q < 0:
        raise InputError("build_episode: need n >= 1 and q >= 0")
    tasks = []
    for dlp in dlps:
        pool = datasets[dlp].train
        if not pool:
            raise InputError(f"build_episode: {dlp.key()} has an empty train split")
        if len(pool) >= n + q:
            idx = rng.choice(len(pool), size=n + q, replace=False)
            support = tuple(pool[i] for i in idx[:n])
            query = tuple(pool[i] for i in idx[n:])
            fallback = False
        else:
            if q >= len(pool):
                raise InputError(f"build_episode: {dlp.key()} cannot supply {q} query pairs plus support")
            q_idx = set(rng.choice(len(pool), size=q, replace=False).tolist())
            remaining = [i for i in range(len(pool)) if i not in q_idx]
            s_idx = rng.choice(len(remaining), size=n, replace=True)
            support = tuple(pool[remaining[i]] for i in s_idx)
            query = tuple(pool[i] for i in sorted(q_idx))
            fallback = True
            log.info("episode support for %s drawn with replacement (train size %d < n+q=%d)",
                     dlp.key(), len(pool), n + q)
        tasks.append(EpisodeTask(dlp=dlp, support=support, query=query, support_with_replacement=fallback))
    return Episode(tasks=tuple(tasks))
