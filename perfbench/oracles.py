"""Independent output checks: dense numpy replays of what setvec computes.

Nothing here imports setvec.  The replays return the expected output, and
the caller compares it with the files the CLI wrote.  Scores are compared
exactly (as the run file prints them): setvec accumulates a document's score
term by term in ascending term-id order, and ``np.bincount`` over postings
laid out term-major adds in that same order.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

NEAR_ZERO = 1e-12  # setvec drops composed weights with |w| below this
BM25_K1 = 0.9
BM25_B = 0.4


# ---- ingest ----------------------------------------------------------------

def bm25_stats(corpus) -> tuple[np.ndarray, float]:
    """(idf per word rank, average document length) of a generated text corpus."""
    n = len(corpus.ids)
    doc_of = np.repeat(np.arange(n), np.diff(corpus.indptr))
    pairs = np.unique(doc_of * len(corpus.words) + corpus.tokens)
    df = np.bincount(pairs % len(corpus.words), minlength=len(corpus.words))
    return np.log(1.0 + (n - df + 0.5) / (df + 0.5)), corpus.tokens.size / n


def bm25_doc_weights(corpus, stats, doc: int) -> dict[str, float]:
    """Okapi BM25 impacts of one generated doc, from the generator's tokens."""
    idf, avgdl = stats
    tokens = corpus.tokens[corpus.indptr[doc] : corpus.indptr[doc + 1]]
    terms, tf = np.unique(tokens, return_counts=True)
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * tokens.size / avgdl)
    w = idf[terms] * tf * (BM25_K1 + 1.0) / (tf + norm)
    return {corpus.words[t]: float(x) for t, x in zip(terms, w)}


def same_weights(got: dict[str, float], want: dict[str, float], rel: float = 1e-12) -> bool:
    """Equal term sets and weights within *rel* (log() may differ in the last bit)."""
    return got.keys() == want.keys() and all(
        math.isclose(got[t], want[t], rel_tol=rel, abs_tol=0.0) for t in want
    )


# ---- query workloads --------------------------------------------------------

def dense(side: dict[str, float], term_ids: dict[str, int], n_terms: int) -> np.ndarray:
    v = np.zeros(n_terms, dtype=np.float64)
    for term, w in side.items():
        v[term_ids[term]] = w
    return v


def _seq_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product summed left to right in ascending term order."""
    total = 0.0
    for t in np.flatnonzero((a != 0.0) & (b != 0.0)):
        total += float(a[t]) * float(b[t])
    return total


def _drop_near_zero(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    v[np.abs(v) < NEAR_ZERO] = 0.0
    return v


def compose_signed(method: str, a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Dense composed query for the difference and union methods."""
    if method == "subtract":
        q = a - b
    elif method == "disentangled":
        q = a - np.where(a != 0.0, 0.0, b)
    elif method == "orthogonal":
        q = a - _drop_near_zero(b * (_seq_dot(a, b) / _seq_dot(b, b)))
    elif method == "nrf":
        q = a - _drop_near_zero(b * lam)
    elif method == "add":
        q = a + b
    elif method == "maxpool":
        q = np.maximum(a, b)
    else:
        raise ValueError(f"no oracle for method {method!r}")
    return _drop_near_zero(q)


def _accumulate(q: np.ndarray, postings, n_docs: int, fn=None):
    """Scores and touched mask over every doc, term-major like the index."""
    terms = np.flatnonzero(q)
    if terms.size == 0:
        return np.zeros(n_docs), np.zeros(n_docs, dtype=bool)
    docs = np.concatenate([postings.docs_of(t) for t in terms])
    contrib = np.concatenate(
        [(fn or np.multiply)(float(q[t]), postings.weights_of(t)) for t in terms]
    )
    return (
        np.bincount(docs, weights=contrib, minlength=n_docs),
        np.bincount(docs, minlength=n_docs) > 0,
    )


def _top(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    order = np.lexsort((candidates, -scores[candidates]))[:k]
    return candidates[order]


def topk(q: np.ndarray, postings, n_docs: int, k: int) -> list[tuple[int, float]]:
    """Exact top-k: every touched doc competes, zero or negative score included,
    ties broken by ascending doc id."""
    scores, touched = _accumulate(q, postings, n_docs)
    top = _top(scores, np.flatnonzero(touched), k)
    return [(int(d), float(scores[d])) for d in top]


def _top_m(v: np.ndarray, m: int) -> np.ndarray:
    ids = np.flatnonzero(v)
    keep = ids[np.lexsort((ids, -v[ids]))[:m]]
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out


def cpt_topk(a, b, m: int, pool: int, postings, n_docs: int, k: int) -> list[tuple[int, float]]:
    """Two-stage pseudo-term retrieval replayed densely.

    Stage 1 pools the top *pool* docs for ``max(a, b)``; stage 2 rescores the
    pool with ``(sum_i sqrt(a_i d_i)) * (sum_j sqrt(b_j d_j))`` over the top-m
    terms of each side.
    """
    scores, touched = _accumulate(np.maximum(a, b), postings, n_docs)
    cand = _top(scores, np.flatnonzero(touched), pool)

    def sqrt_mul(qw, w):
        return np.sqrt(qw * w)

    fa, _ = _accumulate(_top_m(a, m), postings, n_docs, sqrt_mul)
    fb, _ = _accumulate(_top_m(b, m), postings, n_docs, sqrt_mul)
    rescored = fa[cand] * fb[cand]
    order = np.lexsort((cand, -rescored))[:k]
    return [(int(cand[i]), float(rescored[i])) for i in order]


# ---- files -------------------------------------------------------------------

def read_run(path) -> dict[str, list[tuple[str, str]]]:
    """qid -> [(doc, score as printed)] in rank order; ranks must run 1..n."""
    runs: dict[str, list[tuple[str, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc, rank, score, _ = line.split()
            hits = runs.setdefault(qid, [])
            if int(rank) != len(hits) + 1:
                raise ValueError(f"{path}: rank {rank} out of order for {qid}")
            hits.append((doc, score))
    return runs


def printed(hits) -> list[tuple[str, str]]:
    return [(doc, f"{score:.6f}") for doc, score in hits]


def ndcg_recall(ranking: list[str], relevant: set[str], k_ndcg: int, k_recall: int):
    """Binary-grade nDCG@k and recall@k."""
    dcg = sum(1.0 / math.log2(r + 1) for r, d in enumerate(ranking[:k_ndcg], 1) if d in relevant)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(relevant), k_ndcg) + 1))
    recall = sum(1 for d in ranking[:k_recall] if d in relevant) / len(relevant)
    return dcg / idcg, recall


def read_vectors(path) -> list[tuple[str, dict[str, float]]]:
    with open(path, encoding="utf-8") as fh:
        return [(r["id"], r["vector"]) for r in map(json.loads, fh)]


def canonical_vectors_digest(vectors: list[tuple[str, dict[str, float]]]) -> str:
    """sha256 of the vectors with each vector's terms sorted: independent of
    the order in which the encoder happened to emit them."""
    h = hashlib.sha256()
    for rec_id, vec in vectors:
        h.update(json.dumps([rec_id, sorted(vec.items())]).encode())
    return h.hexdigest()


def canonical_index_digest(idx) -> str:
    """sha256 of an index's content keyed by term string, not term id."""
    h = hashlib.sha256()
    h.update(json.dumps(list(idx.doc_names)).encode())
    terms = idx.vocab.terms
    for tid in sorted(range(len(terms)), key=terms.__getitem__):
        entry = idx.postings(tid)
        if entry is not None:
            h.update(terms[tid].encode() + b"\0")
            h.update(entry[0].astype("<u4").tobytes())
            h.update(entry[1].astype("<f8").tobytes())
    return h.hexdigest()
