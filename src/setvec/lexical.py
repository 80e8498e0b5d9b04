"""Text to sparse vectors without a neural encoder: raw TF and Okapi BM25.

Both encoders read a tokenized corpus of ``(id, tokens)`` pairs once, count
it in one shared pass and return one :class:`VectorBatch`.  BM25 impact
weights are placed on the *document* side, so that ``dot(q, doc_vector)``,
with ``[(_, q)] = encode_tf([("q", query_tokens)], vocab)`` and a vector from
:func:`encode_bm25`, reproduces the classic query-document BM25 score.
"""

from __future__ import annotations

import math
import re
from array import array
from typing import Iterable, Sequence

import numpy as np

from .sparse import VectorBatch, Vocabulary

# Runs of word characters, minus the underscore; splits on any Unicode
# whitespace or punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
ENCODE_BLOCK_DOCS = 2048  # documents whose token ids are counted with one sort


def tokenize(text: str) -> list[str]:
    """Lowercase and split on Unicode whitespace/punctuation."""
    return _TOKEN_RE.findall(text.lower())


def encode_tf(docs: Iterable[tuple[str, Sequence[str]]], vocab: Vocabulary) -> VectorBatch:
    """Raw term-frequency vectors (weight = token multiplicity); reads *docs* as :func:`encode_bm25` does."""
    names, _, tids, tf, nnzs = _count_terms(docs, vocab)
    return VectorBatch(names, nnzs, tids, tf, vocab)


def encode_bm25(
    docs: Iterable[tuple[str, Sequence[str]]],
    vocab: Vocabulary,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> VectorBatch:
    """Okapi BM25 impact vectors for a tokenized corpus of ``(id, tokens)`` pairs.

    weight(t) = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl)),
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))   (Lucene's nonnegative idf)

    Reads *docs* once, in full, through :func:`_count_terms`, and returns
    every vector in one :class:`VectorBatch`.  The parameters are checked
    before *docs* is read.
    """
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ValueError("k1 must be a finite number >= 0")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")
    names, doc_lens, tids, tf, nnzs = _count_terms(docs, vocab)

    n = len(names)
    total = sum(doc_lens)
    avgdl = total / n if total else 1.0  # every doc is empty: nothing to weight
    dl = np.asarray(doc_lens, dtype=np.float64)
    df = np.bincount(tids, minlength=len(vocab)).tolist()
    # math.log, not np.log: the two differ in the last bit on some inputs.
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df])
    norm = k1 * (1.0 - b + b * dl / avgdl)
    # idf[tids] * tf * (k1 + 1.0) / (tf + norm), in that order, in place.
    weights = idf[tids]
    weights *= tf
    weights *= k1 + 1.0
    denominators = np.repeat(norm, nnzs)
    denominators += tf
    weights /= denominators
    del tf, denominators  # before the batch's checks take a float64 temporary of their own
    return VectorBatch(names, nnzs, tids, weights, vocab)


def _count_terms(docs: Iterable[tuple[str, Sequence[str]]], vocab: Vocabulary):
    """``(names, doc_lens, tids, tf, nnzs)`` of ``(id, tokens)`` pairs, all but *names* ``uint32``
    columns: each document's distinct ids, ascending, and their counts, back to back, as CSR rows.

    Unseen tokens are added to *vocab* in first-occurrence order, so term ids
    do not depend on the interpreter's hash seed.  The token ids of one block
    of :data:`ENCODE_BLOCK_DOCS` documents are held flat until :func:`_count_block`
    counts them; the tokens themselves are never kept.
    """
    names: list[str] = []
    doc_lens, block = array("I"), array("I")
    # Distinct ids, their tf and nnz per document.  Growing buffers leave the
    # heap unfragmented; one numpy piece per block, kept among the freed sort
    # temporaries, raised the encode child's peak RSS by about 4 MB.
    columns = array("I"), array("I"), array("I")
    for name, tokens in docs:
        names.append(name)
        doc_lens.append(len(tokens))
        block.extend(vocab.add_all(tokens))
        if len(names) % ENCODE_BLOCK_DOCS == 0:
            _count_block(block, doc_lens[-ENCODE_BLOCK_DOCS:], len(vocab), columns)
            block = array("I")
    # The documents after the last full block, if any.
    _count_block(block, doc_lens[len(names) - len(names) % ENCODE_BLOCK_DOCS :], len(vocab), columns)
    # Each view keeps only its own buffer alive, so a caller that drops tf frees tf's.
    return (names, doc_lens, *(np.frombuffer(column, dtype=np.uint32) for column in columns))


def _count_block(token_ids: array, doc_lens: array, n_terms: int, columns: tuple[array, array, array]) -> None:
    """Count a block of documents whose *token_ids* lie back to back.

    Appends each document's distinct ids, ascending, and their term
    frequencies to ``columns[0]`` and ``columns[1]``, and its number of
    distinct ids to ``columns[2]``.  One sort of ``row * n_terms + id`` keys
    groups and orders every row at once.
    """
    n_terms = max(n_terms, 1)  # no term yet: every document of the block is empty
    keys = np.repeat(np.arange(len(doc_lens), dtype=np.int64) * n_terms, doc_lens)
    keys += np.frombuffer(token_ids, dtype=np.uint32)
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    rows, ids = np.divmod(keys[starts], n_terms)
    tf = np.diff(starts, append=keys.size)
    for column, part in zip(columns, (ids, tf, np.bincount(rows, minlength=len(doc_lens)))):
        column.frombytes(part.astype(np.uint32).tobytes())
