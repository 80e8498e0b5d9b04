"""Ranking metrics and the positive/negative interference analysis.

NDCG uses raw integer grades as gains and a ``log2(rank + 1)`` discount.
Pairwise accuracy follows the counterfactual protocol: a pair counts only
when *both* of its queries rank their own relevant document strictly above
the other one's; ties fail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .compose import OP_DIFFERENCE, CompositionalQuery
from .errors import UndefinedMetricError, ZeroNormError
from .sparse import _positive_int, cosine

DEFAULT_BINS = 4


class Qrels:
    """Relevance judgments: nonnegative integer grade per (qid, doc name)."""

    def __init__(self):
        self._by_qid: dict[str, dict[str, int]] = {}

    def set(self, qid: str, doc: str, grade: int) -> None:
        """Judge *doc* for *qid*: *grade* is an ``int`` or numpy integer of at least 0, never a ``bool``."""
        if isinstance(grade, bool) or not isinstance(grade, (int, np.integer)) or grade < 0:
            raise ValueError(f"relevance grades must be nonnegative integers, got {grade!r}")
        self._by_qid.setdefault(qid, {})[doc] = int(grade)

    def grade(self, qid: str, doc: str) -> int:
        return self._by_qid.get(qid, {}).get(doc, 0)

    def judged(self, qid: str) -> dict[str, int]:
        return dict(self._by_qid.get(qid, {}))

    def relevant(self, qid: str) -> set[str]:
        return {doc for doc, g in self._by_qid.get(qid, {}).items() if g > 0}

    def __len__(self) -> int:
        return sum(len(docs) for docs in self._by_qid.values())


def _positive_grades(qrels: Qrels, qid: str) -> dict[str, int]:
    judged = qrels.judged(qid)
    if not any(g > 0 for g in judged.values()):
        raise UndefinedMetricError(f"query {qid!r} has no positively judged documents")
    return judged


def ndcg_at_k(ranking: Sequence[str], qrels: Qrels, qid: str, k: int) -> float:
    """Normalized DCG over the top *k* of *ranking*."""
    k = _positive_int(k, "k")
    judged = _positive_grades(qrels, qid)
    dcg = 0.0
    for rank, doc in enumerate(ranking[:k], start=1):
        grade = judged.get(doc, 0)
        if grade:
            dcg += grade / math.log2(rank + 1)
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1) if g)
    return dcg / idcg


def recall_at_k(ranking: Sequence[str], qrels: Qrels, qid: str, k: int) -> float:
    """Fraction of relevant documents found in the top *k*."""
    k = _positive_int(k, "k")
    _positive_grades(qrels, qid)
    relevant = qrels.relevant(qid)
    hits = sum(1 for doc in ranking[:k] if doc in relevant)
    return hits / len(relevant)


@dataclass(frozen=True)
class PairedQueries:
    """Two counterfactual queries over two minimally contrasting documents.

    ``doc_a`` is relevant to ``qid_a`` and is the irrelevant counterpart for
    ``qid_b``; ``doc_b`` the other way around.
    """

    qid_a: str
    qid_b: str
    doc_a: str
    doc_b: str


def pairwise_accuracy(
    pairs: Sequence[PairedQueries], scorer: Callable[[str, str], float]
) -> float:
    """Fraction of pairs where both queries prefer their own relevant doc.

    Either comparison tying counts as a failure for the pair.
    """
    if not pairs:
        raise UndefinedMetricError("pairwise accuracy needs at least one pair")
    both = 0
    for p in pairs:
        first = scorer(p.qid_a, p.doc_a) > scorer(p.qid_a, p.doc_b)
        second = scorer(p.qid_b, p.doc_b) > scorer(p.qid_b, p.doc_a)
        if first and second:
            both += 1
    return both / len(pairs)


@dataclass(frozen=True)
class InterferenceBin:
    low: float
    high: float
    mean_metric: float
    count: int


def _similarity(q: CompositionalQuery) -> float:
    try:
        return cosine(q.a, q.b)
    except ZeroNormError as exc:
        raise ZeroNormError(f"query {q.qid!r}: {exc}") from exc


def interference_bins(
    queries: Iterable[CompositionalQuery],
    per_query_metric: Callable[[str], float],
    n_bins: int = DEFAULT_BINS,
) -> list[InterferenceBin]:
    """Bin difference queries by cosine(a, b) and average a metric per bin.

    Bins are equal-population over the similarity order; with fewer queries
    than bins the bin count shrinks (with a warning), and adjacent bins whose
    similarity ranges coincide are merged.
    """
    n_bins = _positive_int(n_bins, "n_bins")
    queries = list(queries)
    if not queries:
        raise UndefinedMetricError("no difference queries to bin")
    for q in queries:
        if q.operator != OP_DIFFERENCE:
            raise ValueError(f"query {q.qid!r} is not a difference query")
    rows = sorted(
        ((_similarity(q), q.qid, per_query_metric(q.qid)) for q in queries),
        key=lambda row: (row[0], row[1]),
    )
    effective = min(n_bins, len(rows))
    if effective < n_bins:
        warnings.warn(
            f"only {len(rows)} queries for {n_bins} bins; using {effective}",
            stacklevel=2,
        )
    bins: list[InterferenceBin] = []
    for chunk in np.array_split(np.arange(len(rows)), effective):
        sims = [rows[i][0] for i in chunk]
        metrics = [rows[i][2] for i in chunk]
        low, high = sims[0], sims[-1]
        if bins and bins[-1].low == low and bins[-1].high == high:
            merged_count = bins[-1].count + len(chunk)
            merged_mean = (
                bins[-1].mean_metric * bins[-1].count + sum(metrics)
            ) / merged_count
            bins[-1] = InterferenceBin(low, high, merged_mean, merged_count)
        else:
            bins.append(InterferenceBin(low, high, sum(metrics) / len(metrics), len(chunk)))
    return bins
