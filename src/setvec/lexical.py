"""Text to sparse vectors without a neural encoder: raw TF and Okapi BM25.

BM25 impact weights are placed on the *document* side, so that
``dot(encode_tf(query), doc_vector)`` with a vector from
:func:`encode_bm25` reproduces the classic query-document BM25 score.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .sparse import SparseVector, VectorBatch, Vocabulary

# Runs of word characters, minus the underscore; splits on any Unicode
# whitespace or punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4


def tokenize(text: str) -> list[str]:
    """Lowercase and split on Unicode whitespace/punctuation."""
    return _TOKEN_RE.findall(text.lower())


def encode_tf(tokens: Sequence[str], vocab: Vocabulary) -> SparseVector:
    """Raw term-frequency vector (weight = token multiplicity)."""
    counts = Counter(tokens)
    return SparseVector.from_pairs(
        ((term, float(tf)) for term, tf in counts.items()), vocab
    )


def encode_bm25(
    docs: Iterable[tuple[str, Sequence[str]]],
    vocab: Vocabulary,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> VectorBatch:
    """Okapi BM25 impact vectors for a tokenized corpus of ``(id, tokens)`` pairs.

    weight(t) = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl)),
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))   (Lucene's nonnegative idf)

    Reads *docs* once, in full, and returns every vector in one
    :class:`VectorBatch`, built without a per-document vector object.
    Unseen tokens are added to *vocab* in first-occurrence order, so term ids
    do not depend on the interpreter's hash seed.  Only flat count columns
    are kept, never the tokens; each document's distinct ids are sorted as
    they are counted, so the rows arrive canonical.  The parameters are
    checked before *docs* is read.
    """
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ValueError("k1 must be a finite number >= 0")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")
    names: list[str] = []
    term_ids, tfs, doc_lens, nnzs = array("I"), array("I"), array("I"), array("I")
    for name, tokens in docs:
        counts = Counter(vocab.add_all(tokens))
        row = sorted(counts)
        names.append(name)
        term_ids.extend(row)
        tfs.extend(map(counts.__getitem__, row))
        doc_lens.append(len(tokens))
        nnzs.append(len(row))

    n = len(names)
    tids = np.frombuffer(term_ids, dtype=np.uint32)
    tf = np.frombuffer(tfs, dtype=np.uint32)
    total = sum(doc_lens)
    avgdl = total / n if total else 1.0  # every doc is empty: nothing to weight
    dl = np.asarray(doc_lens, dtype=np.float64)
    df = np.bincount(tids, minlength=len(vocab)).tolist()
    # math.log, not np.log: the two differ in the last bit on some inputs.
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df])
    norm = k1 * (1.0 - b + b * dl / avgdl)
    weights = idf[tids] * tf * (k1 + 1.0) / (tf + np.repeat(norm, nnzs))
    return VectorBatch(names, nnzs, tids, weights, vocab)
