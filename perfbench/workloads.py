"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and scale: the same seed gives
byte-identical files.  The program under test only ever sees the files.

Run directly to write one workload's inputs and print their shape:

    python3 perfbench/workloads.py --workload query_signed --seed 1 --out /tmp/x
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

# ingest: Zipf text.
TEXT_DOCS = 20_000
TEXT_VOCAB = 20_000
TEXT_ZIPF = 1.0
TEXT_LEN = (20, 120)

# query workloads: nonnegative numeric corpus.
NUM_DOCS = 100_000
NUM_TERMS = 30_000
NUM_ZIPF = 0.9
NUM_DRAWS = 40  # draws per doc; duplicates collapse, so nnz is a little lower
NUM_QUERIES = 300
TOPIC_TERMS = 5  # mid-frequency terms that define a query side
TOPIC_RANKS = (200, 5000)
HEAD_RANKS = (0, 6)  # shared head terms make most of the corpus touched
RELEVANT_PER_QUERY = 5
DISTRACTORS_PER_QUERY = 5
CPT_M = 5
NRF_LAMBDA = 0.5

SIGNED_MIX = (
    ("difference", "subtract"),
    ("difference", "disentangled"),
    ("difference", "orthogonal"),
    ("difference", "nrf"),
    ("union", "add"),
    ("union", "maxpool"),
)
CPT_MIX = (("intersection", "cpt"),)


def _zipf_p(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def _word(rank: int) -> str:
    """Distinct lowercase pseudo-word for a frequency rank (bijective base 26)."""
    n = rank + 27  # at least two letters
    out = []
    while n:
        n, r = divmod(n - 1, 26)
        out.append(chr(ord("a") + r))
    return "".join(reversed(out))


@dataclass
class TextCorpus:
    ids: list[str]
    words: list[str]  # word of each vocabulary rank
    indptr: np.ndarray  # token offsets per doc
    tokens: np.ndarray  # word ranks in document order


def text_corpus(seed: int, scale: float = 1.0) -> TextCorpus:
    rng = np.random.default_rng([seed, 1])
    n_docs = max(10, int(TEXT_DOCS * scale))
    lengths = rng.integers(TEXT_LEN[0], TEXT_LEN[1] + 1, size=n_docs)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    tokens = rng.choice(TEXT_VOCAB, size=int(indptr[-1]), p=_zipf_p(TEXT_VOCAB, TEXT_ZIPF))
    return TextCorpus(
        ids=[f"t{i:06d}" for i in range(n_docs)],
        words=[_word(r) for r in range(TEXT_VOCAB)],
        indptr=indptr,
        tokens=tokens,
    )


def write_texts(corpus: TextCorpus, path: str) -> None:
    """Text JSONL; sentences start capitalized and end with a period, which
    the tokenizer must strip back to the generator's tokens."""
    words = np.asarray(corpus.words, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec_id in enumerate(corpus.ids):
            toks = words[corpus.tokens[corpus.indptr[i] : corpus.indptr[i + 1]]].tolist()
            toks[0] = toks[0].capitalize()
            text = " ".join(toks) + "."
            fh.write(json.dumps({"id": rec_id, "text": text}) + "\n")


@dataclass
class NumericCorpus:
    """Nonnegative doc-term matrix in CSR form plus planted queries."""

    names: list[str]
    terms: list[str]
    indptr: np.ndarray
    indices: np.ndarray  # term ids, ascending within a row
    data: np.ndarray
    queries: list[dict]  # query records as written to the query JSONL
    qrels: list[tuple[str, str, int]]


def _weights(rng, lo: float, hi: float, size) -> np.ndarray:
    """Multiples of 1/16 in [lo, hi]: sums of their products are exact, so
    many documents tie and the doc-id tie-break decides real rankings."""
    return rng.integers(round(lo * 16), round(hi * 16) + 1, size=size) / 16.0


def _side(rng, topic, head) -> dict[int, float]:
    side = {int(t): float(w) for t, w in zip(topic, _weights(rng, 1.0, 3.0, len(topic)))}
    for t, w in zip(head, _weights(rng, 0.1875, 0.75, len(head))):
        side.setdefault(int(t), float(w))
    return side


def numeric_corpus(seed: int, mix, scale: float = 1.0) -> NumericCorpus:
    rng = np.random.default_rng([seed, 2])
    n_docs = max(200, int(NUM_DOCS * scale))
    n_queries = max(2 * len(mix), int(NUM_QUERIES * scale))
    rank_to_term = rng.permutation(NUM_TERMS)  # frequent terms spread over the id space

    draws = rank_to_term[
        rng.choice(NUM_TERMS, size=(n_docs, NUM_DRAWS), p=_zipf_p(NUM_TERMS, NUM_ZIPF))
    ]
    draws.sort(axis=1)
    keep = np.ones_like(draws, dtype=bool)
    keep[:, 1:] = draws[:, 1:] != draws[:, :-1]
    rows = [draws[i][keep[i]] for i in range(n_docs)]
    weights = [_weights(rng, 0.0625, 2.0, r.size) for r in rows]

    planted = rng.choice(n_docs, size=n_queries * (RELEVANT_PER_QUERY + DISTRACTORS_PER_QUERY), replace=False)
    names = [f"d{i:06d}" for i in range(n_docs)]
    queries, qrels = [], []
    cursor = 0
    for qn in range(n_queries):
        operator, method = mix[qn % len(mix)]
        qid = f"q{qn:04d}"
        topic = rank_to_term[rng.choice(np.arange(*TOPIC_RANKS), size=2 * TOPIC_TERMS, replace=False)]
        topic_a, topic_b = topic[:TOPIC_TERMS], topic[TOPIC_TERMS:]
        shared = rank_to_term[rng.choice(np.arange(*HEAD_RANKS), size=2, replace=False)]
        a = _side(rng, topic_a, np.append(shared, rank_to_term[rng.integers(0, 60)]))
        b = _side(rng, topic_b, np.append(shared, rank_to_term[rng.integers(0, 60)]))

        # Which topic sides each planted doc carries, relevant docs first.
        if operator == "difference":
            layout = [("a",)] * RELEVANT_PER_QUERY + [("a", "b")] * DISTRACTORS_PER_QUERY
        elif operator == "union":
            layout = [("a",), ("b",)] * RELEVANT_PER_QUERY
        else:
            layout = [("a", "b")] * RELEVANT_PER_QUERY + [("a",), ("b",)] * (DISTRACTORS_PER_QUERY // 2)
            layout += [("a",)] * (DISTRACTORS_PER_QUERY % 2)
        n_rel = len(layout) if operator == "union" else RELEVANT_PER_QUERY
        docs = planted[cursor : cursor + len(layout)]
        cursor += len(layout)
        for pos, (doc, sides) in enumerate(zip(docs, layout)):
            # Each planted doc carries 2..all of a side's topic terms, so
            # rankings among planted docs are not trivially perfect.
            topics = np.concatenate([
                rng.choice(topic_a if s == "a" else topic_b, size=rng.integers(2, TOPIC_TERMS + 1), replace=False)
                for s in sides
            ])
            base = rows[doc]
            base_keep = ~np.isin(base, topic)
            ids = np.concatenate([base[base_keep], topics])
            ws = np.concatenate([weights[doc][base_keep], _weights(rng, 1.0, 3.0, topics.size)])
            order = np.argsort(ids)
            rows[doc], weights[doc] = ids[order], ws[order]
            if pos < n_rel:
                qrels.append((qid, names[doc], 1))

        record = {
            "qid": qid,
            "operator": operator,
            "method": method,
            "a": a,
            "b": b,
            "params": {"m": CPT_M} if method == "cpt" else {"lambda": NRF_LAMBDA},
        }
        queries.append(record)

    lengths = np.fromiter((r.size for r in rows), dtype=np.int64, count=n_docs)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    terms = [f"w{i:05d}" for i in range(NUM_TERMS)]
    for q in queries:
        q["a"] = {terms[t]: w for t, w in sorted(q["a"].items())}
        q["b"] = {terms[t]: w for t, w in sorted(q["b"].items())}
    return NumericCorpus(
        names=names,
        terms=terms,
        indptr=indptr,
        indices=np.concatenate(rows).astype(np.int64),
        data=np.concatenate(weights),
        queries=queries,
        qrels=qrels,
    )


def write_queries(corpus: NumericCorpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in corpus.queries:
            fh.write(json.dumps(q) + "\n")


def write_qrels(corpus: NumericCorpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, doc, grade in corpus.qrels:
            fh.write(f"{qid} 0 {doc} {grade}\n")


def text_shape(corpus: TextCorpus) -> dict:
    n = len(corpus.ids)
    doc_of = np.repeat(np.arange(n), np.diff(corpus.indptr))
    distinct = np.unique(doc_of * TEXT_VOCAB + corpus.tokens).size
    return {
        "docs": n,
        "vocabulary": int(np.unique(corpus.tokens).size),
        "mean_tokens": float(corpus.tokens.size / n),
        "mean_nnz": float(distinct / n),
        "mean_touched_fraction": None,  # no queries on this workload
    }


def numeric_shape(corpus: NumericCorpus, postings) -> dict:
    n = len(corpus.names)
    touched = []
    for q in corpus.queries[:50]:
        mask = np.zeros(n, dtype=bool)
        for term in set(q["a"]) | set(q["b"]):
            mask[postings.docs_of(int(term[1:]))] = True
        touched.append(mask.mean())
    return {
        "docs": n,
        "vocabulary": len(corpus.terms),
        "mean_nnz": float(corpus.indices.size / n),
        "queries": len(corpus.queries),
        "mean_touched_fraction": float(np.mean(touched)),
    }


class Postings:
    """Term-major view of a CSR corpus: doc ids ascending within each term."""

    def __init__(self, corpus: NumericCorpus):
        n_docs = len(corpus.names)
        doc_of = np.repeat(np.arange(n_docs), np.diff(corpus.indptr))
        order = np.argsort(corpus.indices, kind="stable")
        self.docs = doc_of[order]
        self.weights = corpus.data[order]
        counts = np.bincount(corpus.indices, minlength=len(corpus.terms))
        self.offsets = np.zeros(len(corpus.terms) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])

    def docs_of(self, tid: int) -> np.ndarray:
        return self.docs[self.offsets[tid] : self.offsets[tid + 1]]

    def weights_of(self, tid: int) -> np.ndarray:
        return self.weights[self.offsets[tid] : self.offsets[tid + 1]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("ingest", "query_signed", "query_cpt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True, help="directory for the generated files")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "ingest":
        corpus = text_corpus(args.seed, args.scale)
        write_texts(corpus, os.path.join(args.out, "texts.jsonl"))
        shape = text_shape(corpus)
    else:
        mix = SIGNED_MIX if args.workload == "query_signed" else CPT_MIX
        corpus = numeric_corpus(args.seed, mix, args.scale)
        write_queries(corpus, os.path.join(args.out, "queries.jsonl"))
        write_qrels(corpus, os.path.join(args.out, "qrels.txt"))
        shape = numeric_shape(corpus, Postings(corpus))
    print(json.dumps(shape))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
