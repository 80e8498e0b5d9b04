"""Exact top-k retrieval over sparse vectors via an inverted index.

Scoring is term-at-a-time accumulation with a full accumulator table and no
pruning: upper-bound tricks are unsound once query or document weights can be
negative, and exactness is the contract here.  Query terms are taken in
ascending id order; each posted term adds its contributions with one
unbuffered ``np.add.at`` over its doc ids cast once to ``np.intp``.  A posting
list holds each doc once, so every doc receives its terms in that order,
starting from +0.0, as ``dot()`` sums them.  A document is returned iff at
least one query term touches it, even when its accumulated score is zero or
negative; ties break by ascending internal doc id (ingestion order).  Only
the candidates scoring at least the k-th best score (found by one partition)
are sorted, which gives the same hits as sorting every touched document.

Postings live in one columnar (CSR) layout shared by every layer: term ``t``
owns ``doc_ids[offsets[t]:offsets[t + 1]]`` (ascending) and the matching
slice of ``weights``.  The on-disk format is little-endian binary: magic,
format version, the vocabulary, the doc-name table, the raw offsets, two zlib
streams (the weights, then the doc-id gaps), and a trailing CRC32 checksum.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable

import numpy as np

from .cpt import PseudoTermVector, _require_nonnegative
from .errors import CptDomainError, DuplicateDocError, IndexFormatError, VocabularyMismatchError
from .sparse import (
    SparseVector, VectorBatch, Vocabulary, _not_increasing, _positive_int, _rank, maxpool
)

MAGIC = b"SVIX"
FORMAT_VERSION = 2
ZLIB_LEVEL = 1

# Ranked (doc name, score) pairs, best first.
SearchResult = list[tuple[str, float]]


class InvertedIndex:
    """Immutable posting-list index over a fixed document collection."""

    __slots__ = ("vocab", "doc_names", "offsets", "doc_ids", "weights")

    def __init__(
        self,
        vocab: Vocabulary,
        doc_names: list[str],
        offsets: np.ndarray,
        doc_ids: np.ndarray,
        weights: np.ndarray,
    ):
        self.vocab = vocab
        self.doc_names = doc_names
        self.offsets = offsets
        self.doc_ids = doc_ids
        self.weights = weights

    @property
    def doc_count(self) -> int:
        return len(self.doc_names)

    @property
    def term_count(self) -> int:
        return int(np.count_nonzero(np.diff(self.offsets)))

    def postings(self, term_id: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc ids, weights) for a term, or None when the term indexes nothing.

        Terms added to the vocabulary after the index was built index nothing.
        """
        tid = int(term_id)
        if not 0 <= tid < self.offsets.size - 1:
            return None
        start, end = self.offsets[tid], self.offsets[tid + 1]
        if start == end:
            return None
        return self.doc_ids[start:end], self.weights[start:end]

    def __repr__(self) -> str:
        return f"InvertedIndex({self.doc_count} docs, {self.term_count} posted terms)"


def build(
    docs: VectorBatch | Iterable[tuple[str, SparseVector]], vocab: Vocabulary | None = None
) -> InvertedIndex:
    """Index a batch, or (doc name, vector) pairs stacked into one; names must be unique.

    *vocab* may be given explicitly (required for an empty stream of pairs);
    otherwise it is taken from the batch or the first vector, and every
    vector must share it.
    """
    batch = docs if isinstance(docs, VectorBatch) else VectorBatch.stack(docs, vocab)
    vocab = batch.vocab if vocab is None else vocab
    if batch.vocab is not vocab:
        raise VocabularyMismatchError("the document batch uses a different vocabulary")
    names = batch.names
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateDocError(f"duplicate document name {name!r}")
        seen.add(name)
    # A stable sort keeps each list's doc ids in ingestion (ascending) order.
    order = np.argsort(batch.ids, kind="stable")
    doc_ids = np.repeat(np.arange(len(names), dtype=np.uint32), np.diff(batch.offsets))[order]
    weights = batch.weights[order]
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(batch.ids, minlength=len(vocab)), out=offsets[1:])
    return InvertedIndex(vocab, names, offsets, doc_ids, weights)


def _named(idx: InvertedIndex, doc_ids: np.ndarray, scores: np.ndarray) -> SearchResult:
    return [(idx.doc_names[d], s) for d, s in zip(doc_ids.tolist(), scores.tolist())]


def _search_ids(idx: InvertedIndex, q: SparseVector, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (doc ids, scores); internal, shared by search and search_cpt."""
    if q.vocab is not idx.vocab:
        raise VocabularyMismatchError("query vocabulary does not match the index")
    n = idx.doc_count
    scores = np.zeros(n, dtype=np.float64)
    touched = np.zeros(n, dtype=bool)
    # An overflow is reported by _rank's finite check, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for tid, qw in zip(q.ids.tolist(), q.weights.tolist()):
            posting = idx.postings(tid)
            if posting is None:
                continue
            doc_ids, weights = posting
            ids = doc_ids.astype(np.intp)
            np.add.at(scores, ids, qw * weights)
            touched[ids] = True
    candidates = np.nonzero(touched)[0]
    return _rank(candidates, scores[candidates], k)


def search(idx: InvertedIndex, q: SparseVector, k: int) -> SearchResult:
    """Exact top-k by dot product; touched zero/negative scores are kept."""
    return _named(idx, *_search_ids(idx, q, k))


def search_cpt(
    idx: InvertedIndex,
    q_cpt: PseudoTermVector,
    a: SparseVector,
    b: SparseVector,
    k: int,
    candidate_pool: int,
) -> SearchResult:
    """Two-stage pseudo-term retrieval.

    Stage 1 pulls *candidate_pool* docs with ``maxpool(a, b)`` over the
    standard index; stage 2 rescores them with the factorized pseudo-term
    score, reading only the posting lists of the expansion's two factors (the
    document side is never materialized).  With a pool at least the corpus
    size this is exhaustive.
    """
    candidate_pool = _positive_int(candidate_pool, "candidate_pool")
    _require_nonnegative(a, "query side A")
    _require_nonnegative(b, "query side B")
    cand_ids, scores = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if q_cpt.nnz:
        cand_ids, _ = _search_ids(idx, maxpool(a, b), candidate_pool)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _sqrt_factor(idx, q_cpt.x)[cand_ids] * _sqrt_factor(idx, q_cpt.y)[cand_ids]
    return _named(idx, *_rank(cand_ids, scores, k))


def _sqrt_factor(idx: InvertedIndex, side: SparseVector) -> np.ndarray:
    """Per-doc ``sum_i sqrt(w_i * d_i)`` over one factor of the expansion."""
    acc = np.zeros(idx.doc_count, dtype=np.float64)
    for tid, qw in zip(side.ids.tolist(), side.weights.tolist()):
        posting = idx.postings(tid)
        if posting is None:
            continue
        doc_ids, weights = posting
        if float(weights.min()) < 0.0:
            raise CptDomainError(
                f"term {idx.vocab.term(tid)!r} has negative document weights; "
                "pseudo-term scoring needs a nonnegative corpus"
            )
        np.add.at(acc, doc_ids.astype(np.intp), np.sqrt(qw * weights))
    return acc


def _write_str(buf: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    buf += struct.pack("<I", len(raw))
    buf += raw


def _read_strs(data, pos: int, what: str) -> tuple[list[str], int]:
    """A u32 count, then that many length-prefixed UTF-8 strings, all distinct and non-empty."""
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    strings = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 4
        end = pos + length
        if end > len(data):
            raise IndexFormatError("truncated string block")
        strings.append(str(data[pos:end], "utf-8"))
        pos = end
    if "" in strings or len(set(strings)) != count:
        raise IndexFormatError(f"empty or duplicate {what}")
    return strings, pos


def _inflate(data, dtype: str, count: int, what: str) -> tuple[np.ndarray, bytes]:
    """Decompress one zlib stream of exactly *count* values; also return the bytes after it."""
    expected = count * np.dtype(dtype).itemsize
    stream = zlib.decompressobj()
    try:
        # One byte over the expected size catches an overlong stream without
        # inflating it further; a limit of 0 would mean no limit at all.
        raw = stream.decompress(data, expected + 1)
    except zlib.error as exc:
        raise IndexFormatError(f"corrupt {what} stream ({exc})") from exc
    if len(raw) != expected or not stream.eof:
        raise IndexFormatError(f"{what} stream does not hold {count} values")
    return np.frombuffer(raw, dtype=dtype), stream.unused_data


def save(idx: InvertedIndex, path) -> None:
    """Serialize to *path*; ``load(save(idx))`` reproduces identical searches."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", FORMAT_VERSION)
    terms = idx.vocab.terms
    buf += struct.pack("<I", len(terms))
    for term in terms:
        _write_str(buf, term)
    buf += struct.pack("<I", idx.doc_count)
    for name in idx.doc_names:
        _write_str(buf, name)
    # Terms added to the vocabulary after build get empty lists.
    offsets = np.pad(idx.offsets, (0, len(terms) + 1 - idx.offsets.size), mode="edge")
    buf += offsets.astype("<i8").tobytes()
    buf += zlib.compress(np.asarray(idx.weights, dtype="<f8"), ZLIB_LEVEL)
    # Gaps wrap modulo 2**32 at list starts; a uint32 cumsum undoes that exactly.
    gaps = np.diff(idx.doc_ids, prepend=np.uint32(0))
    buf += zlib.compress(np.asarray(gaps, dtype="<u4"), ZLIB_LEVEL)
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(buf)


def load(path) -> InvertedIndex:
    """Read an index written by :func:`save`, verifying version, checksum and structure."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    body = memoryview(data)[:-4]
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise IndexFormatError(f"{path}: checksum mismatch (corrupt or truncated file)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"{path}: unsupported format version {version}")
    try:
        terms, pos = _read_strs(body, 8, "vocabulary term")
        doc_names, pos = _read_strs(body, pos, "doc name")
        end = pos + 8 * (len(terms) + 1)
        if end > len(body):
            raise IndexFormatError("truncated offsets")
        offsets = np.frombuffer(body[pos:end], dtype="<i8").astype(np.int64)
        # A list holds each doc at most once; checking that here also keeps
        # the stream sizes below from overflowing.
        lengths = np.diff(offsets)
        n_docs = len(doc_names)
        if offsets[0] != 0 or lengths.min(initial=0) < 0 or lengths.max(initial=0) > n_docs:
            raise IndexFormatError("posting offsets do not partition the postings")
        n_postings = int(offsets[-1])
        weights, rest = _inflate(body[end:], "<f8", n_postings, "weight")
        gaps, rest = _inflate(rest, "<u4", n_postings, "doc-id gap")
        if rest:
            raise IndexFormatError("trailing bytes after the posting streams")
        doc_ids = np.cumsum(gaps, dtype=np.uint32)
        del gaps  # free before the checks' temporaries
        if doc_ids.size and int(doc_ids.max()) >= n_docs:
            raise IndexFormatError("doc id out of range")
        if _not_increasing(doc_ids, offsets).any():
            raise IndexFormatError("doc ids not strictly increasing within a posting list")
        if not np.isfinite(weights).all():
            raise IndexFormatError("non-finite posting weight")
    except IndexFormatError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
    except struct.error as exc:
        raise IndexFormatError(f"{path}: truncated index file") from exc
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: invalid UTF-8 in a string block") from exc
    return InvertedIndex(Vocabulary(terms), doc_names, offsets, doc_ids, weights)
