"""Exact top-k retrieval over sparse vectors via an inverted index.

Scoring is term-at-a-time accumulation with a full accumulator table and no
pruning: upper-bound tricks are unsound once query or document weights can be
negative, and exactness is the contract here.  One loop, ``_accumulate``,
adds postings into per-doc scores.  It takes the query terms in ascending id
order and adds a term's ``contribution(q_t, weights)``: a head term's, posted
in at least a quarter of the docs, over its dense row
(:meth:`InvertedIndex.head_rows`: its weights at its doc ids, 0.0 elsewhere)
by a whole-array add; every other posted term's with one unbuffered
``np.add.at`` over its doc ids cast once to ``np.intp``.  A search adds
``q_t * d_t``.  A posting list holds each doc once, so every doc receives its
terms in that order, starting from +0.0, as ``dot()`` sums them; a row's 0.0
entries change nothing, because the accumulator never holds -0.0.  A document
is returned iff at least one query term touches it, even when its accumulated
score is zero or negative; ties break by ascending internal doc id (ingestion
order).  Untouched docs hold 0.0, so when at least k docs score above zero
every hit is touched, and all docs are ranked without marking any; otherwise
the same loop adds 1.0 per posting (no weight is zero, so a row is nonzero
exactly at its postings), and the docs it leaves nonzero are ranked.  CPT's
two factors are the same loop adding ``sqrt(q_t * d_t)`` (:func:`search_cpt`).
``_rank`` sorts only the scores at or above the k-th best, found by one
partition, after a partition of every 8th score has bounded it from below.
The rows are built once per index, on its first search and under a lock, so
``build``, ``save`` and ``load`` never hold them; ``setvec search`` builds
them on its calling thread before any query runs.  A row takes 8 bytes per
doc; its term's postings take at least 5 bytes each, at least 1.25 bytes per
doc, so the rows take at most 6.4 times the memory of the postings they copy.

Postings live in one columnar (CSR) layout shared by every layer and by the
file: term ``t`` owns ``doc_ids[offsets[t]:offsets[t + 1]]`` (ascending) and
the matching slice of ``codes``, where a code is its weight's position in
``table``, the sorted distinct weights.  A :class:`VectorBatch` holds the
same table and codes with a row per document, so :func:`build` sorts the
codes by term and keeps the table.  A posting costs a 4-byte doc id
plus a 1-, 2- or 4-byte code, and each distinct weight 8 bytes.  The worst
case is a table of more than 65,536 entries, at about one distinct weight
per posting: 12 bytes of code and table per posting where a float64 column
would take 8.  The ingest benchmark's BM25 index (81,429 distinct weights
over 1,103,072 postings) still takes 4.59 bytes, 42% less.
:meth:`InvertedIndex.postings` gathers a term's float64 weights from the
table, so every search multiplies the same floats as ``dot()``.  ``setvec
search`` reads queries into ``idx.vocab``, which appends each query-only
term past the ids ``offsets`` covers: hence :meth:`InvertedIndex.postings`'
range check and :func:`save`'s padding.

The on-disk format (SVIX version 3) is little-endian binary: magic, format
version, the vocabulary and the doc names as two string tables, the raw
offsets, the weights as a table plus codes, the doc-id gaps, and a trailing
CRC32 checksum.  A string table is a u32 count, a u32 byte length per string,
the u64 size of the UTF-8 blob those lengths slice, then the blob.  The
weight table holds the sorted distinct weights; each posting stores its
weight's position in it as a code of the narrowest unsigned width the table
size allows (1 byte up to 256 entries, 2 up to 65,536, else 4).  The table,
the codes and the uint32 gaps are each one zlib stream of byte planes (byte 0
of every value, then byte 1, and so on), which compress better than the
interleaved values.  :func:`load` reads the file twice, at most ``PIECE``
bytes at a time, and never holds it whole: first for the magic, the checksum
and the version, then to parse it, summing what it parses, so that a file
changed in between is refused as corrupt.  Only a file that cannot be read
twice, such as a pipe, is read whole first.  It inflates each stream
straight into the byte planes of its array, so it never holds a whole
inflated stream; it allocates that array only for a count the
bytes left could inflate to at zlib's maximum expansion (1032:1), so its
memory stays linear in the file's size.  Besides the checksum, :func:`load`
checks structure: each string table's lengths sum exactly to its blob, the
strings are valid, distinct and non-empty, the offsets partition the
postings, every stream holds exactly the values the offsets imply, the table
is finite, strictly increasing and obeys the weight rule (so no zero
weight), every code is below the table size, and doc ids are in range and
strictly increasing within each list.  Files of versions 1 and 2 are
refused; rebuild them with ``setvec index``.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Iterable

import numpy as np

from .cpt import PseudoTermVector, _require_nonnegative
from .errors import DuplicateDocError, IndexFormatError, NonFiniteError
from .sparse import (
    SparseVector, VectorBatch, Vocabulary, _canonical_rows, _code_dtype, _not_increasing, _positive_int,
    _rank, _require_same_vocab, maxpool,
)

MAGIC = b"SVIX"
FORMAT_VERSION = 3
ZLIB_LEVEL = 1
# The most bytes _inflate reads or inflates in one step.
PIECE = 1 << 16
# A deflate stream inflates to at most 1032 times its size.
_MAX_EXPANSION = 1032

# Ranked (doc name, score) pairs, best first.
SearchResult = list[tuple[str, float]]


class InvertedIndex:
    """Immutable posting-list index over a fixed document collection."""

    __slots__ = ("vocab", "doc_names", "offsets", "doc_ids", "table", "codes", "_head_rows")
    # Guards the first build of every index's head rows: search threads share one index.
    _head_rows_lock = threading.Lock()

    def __init__(
        self,
        vocab: Vocabulary,
        doc_names: list[str],
        offsets: np.ndarray,
        doc_ids: np.ndarray,
        table: np.ndarray,
        codes: np.ndarray,
    ):
        self.vocab = vocab
        self.doc_names = doc_names
        self.offsets = offsets
        self.doc_ids = doc_ids
        self.table = table
        self.codes = codes
        self._head_rows: dict[int, np.ndarray] | None = None

    @property
    def doc_count(self) -> int:
        return len(self.doc_names)

    @property
    def term_count(self) -> int:
        return int(np.count_nonzero(np.diff(self.offsets)))

    def postings(self, term_id: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc ids, float64 weights) for a term, or None when the term indexes nothing,
        as a query-only term does."""
        tid = int(term_id)
        if not 0 <= tid < self.offsets.size - 1:
            return None
        start, end = self.offsets[tid], self.offsets[tid + 1]
        if start == end:
            return None
        return self.doc_ids[start:end], self.table.take(self.codes[start:end])

    def head_rows(self) -> dict[int, np.ndarray]:
        """A dense float64 row per head term (posted in at least a quarter of the docs),
        keyed by term id: the term's weights at its doc ids, 0.0 elsewhere.

        Built once, on first use; only searches use them.
        """
        if self._head_rows is None:
            with self._head_rows_lock:
                if self._head_rows is None:
                    n = self.doc_count
                    lengths = np.diff(self.offsets)
                    rows = {}
                    for tid in np.flatnonzero((lengths > 0) & (lengths * 4 >= n)).tolist():
                        doc_ids, weights = self.postings(tid)
                        rows[tid] = row = np.zeros(n, dtype=np.float64)
                        row[doc_ids] = weights
                    self._head_rows = rows
        return self._head_rows

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
    _require_same_vocab(batch.vocab, vocab, "the document batch and the index")
    names = batch.names
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateDocError(f"duplicate document name {name!r}")
        seen.add(name)
    # The batch's table and codes are the index's: only the codes take the term order.
    # A stable sort keeps each list's doc ids in ingestion (ascending) order.
    order = np.argsort(batch.ids, kind="stable")
    codes = batch.codes[order]
    doc_ids = np.repeat(np.arange(len(names), dtype=np.uint32), np.diff(batch.offsets))[order]
    del order  # before bincount takes an int64 copy of the ids: 8 bytes a posting each
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(batch.ids, minlength=len(vocab)), out=offsets[1:])
    return InvertedIndex(vocab, names, offsets, doc_ids, batch.table, codes)


def _named(idx: InvertedIndex, doc_ids: np.ndarray, scores: np.ndarray) -> SearchResult:
    return [(idx.doc_names[d], s) for d, s in zip(doc_ids.tolist(), scores.tolist())]


def _accumulate(idx: InvertedIndex, q: SparseVector, contribution) -> np.ndarray:
    """Per-doc sums, from +0.0, of ``contribution(q_t, weights)`` over *q*'s terms in
    ascending id order: a head term's from its dense row, every other posted term's
    scattered over its doc ids.  The one loop that adds postings into per-doc scores."""
    rows = idx.head_rows()
    scores = np.zeros(idx.doc_count, dtype=np.float64)
    # An overflow is reported by _rank's finite check, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for tid, qw in zip(q.ids.tolist(), q.weights.tolist()):
            row = rows.get(tid)
            if row is not None:
                # Exact: an accumulator that starts at +0.0 never holds -0.0 (a sum
                # is -0.0 only when both terms are), so adding a row's +-0.0
                # entries changes no doc, and each posted doc gets the same
                # contribution in the same term order as the scatter below.
                np.add(scores, contribution(qw, row), out=scores)
                continue
            posting = idx.postings(tid)
            if posting is not None:
                doc_ids, weights = posting
                np.add.at(scores, doc_ids.astype(np.intp), contribution(qw, weights))
    return scores


def _touches(qw: float, weights: np.ndarray) -> np.ndarray:
    """1.0 per posting, since no posted weight is zero; 0.0 at a head row's other docs."""
    return (weights != 0.0).astype(np.float64)


def _search_ids(idx: InvertedIndex, q: SparseVector, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (doc ids, scores); internal, shared by search and search_cpt."""
    _require_same_vocab(q.vocab, idx.vocab, "the query and the index")
    k = _positive_int(k, "k")
    scores = _accumulate(idx, q, np.multiply)
    # Untouched docs hold +0.0: when k docs score above it, the k-th score is
    # positive and every hit is touched.  Counting costs less than ranking
    # every doc only to find that the touched docs must be ranked instead.
    if np.count_nonzero(scores > 0) >= k:
        return _rank(None, scores, k)
    candidates = np.flatnonzero(_accumulate(idx, q, _touches))
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
    score, each factor's per-doc ``sum_i sqrt(w_i * d_i)`` accumulated like a
    search, head rows included, over only the posting lists of the
    expansion's two factors (the document side is never materialized).  With
    a pool at least the corpus size this is exhaustive.
    """
    candidate_pool = _positive_int(candidate_pool, "candidate_pool")
    _require_same_vocab(q_cpt.vocab, idx.vocab, "the pseudo-term query and the index")
    _require_nonnegative(a.weights, "query side A")
    _require_nonnegative(b.weights, "query side B")
    cand_ids, scores = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if q_cpt.nnz:
        cand_ids, _ = _search_ids(idx, maxpool(a, b), candidate_pool)
        # The table is sorted, so only an index holding a negative weight can give
        # a factor term a negative posting; scanning the factors for NaN costs more.
        if idx.table.size and idx.table[0] < 0:
            for tid in q_cpt.x.ids.tolist() + q_cpt.y.ids.tolist():
                posting = idx.postings(tid)
                if posting is not None:
                    _require_nonnegative(posting[1], f"the posting of term {idx.vocab.term(tid)!r}")
        x, y = (_accumulate(idx, side, lambda qw, w: np.sqrt(qw * w)) for side in (q_cpt.x, q_cpt.y))
        with np.errstate(over="ignore", invalid="ignore"):
            scores = x[cand_ids] * y[cand_ids]
    return _named(idx, *_rank(cand_ids, scores, k))


def _deflate(values: np.ndarray) -> bytes:
    """One zlib stream of little-endian *values* as byte planes: byte 0 of every
    value, then byte 1, and so on."""
    return zlib.compress(values.view(np.uint8).reshape(values.size, values.itemsize).T.tobytes(), ZLIB_LEVEL)


def _string_table(strings) -> bytes:
    """A u32 count, a u32 byte length per string, the u64 blob size, then the UTF-8 blob."""
    raw = [s.encode("utf-8") for s in strings]
    blob = b"".join(raw)
    lengths = np.array([len(r) for r in raw], dtype="<u4")
    return struct.pack("<I", len(raw)) + lengths.tobytes() + struct.pack("<Q", len(blob)) + blob


class _Body:
    """The body of an index file, all but its trailing CRC, sliced as ``bytes`` is:
    ``len()`` is its size and ``body[a:b]`` reads those bytes with
    ``read(count, offset)``, which is ``os.pread`` on a regular file.

    Each slice starts at or after the one before, and each byte is read once:
    a slice that starts inside the last one takes their common bytes from it.
    :meth:`crc` sums the bytes read in file order, so :func:`load` can check
    that it parsed the very bytes its checksum pass summed.
    """

    def __init__(self, read, size: int):
        self._read = read
        self._size = size
        self._last = b""  # the last slice, and the bytes read after it
        self._start = 0  # where _last starts
        self._crc = 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key: slice) -> bytes:
        start, stop, _ = key.indices(self._size)
        if start < self._start:
            raise ValueError("an index body is sliced front to back")
        end = self._start + len(self._last)
        fresh = self._read(max(stop - end, 0), end)
        self._crc = zlib.crc32(fresh, self._crc)
        if start >= end:
            self._last = fresh[start - end:]
        else:
            self._last = self._last[start - self._start:] + fresh
        self._start = start
        return self._last[:max(stop - start, 0)]

    def crc(self) -> int:
        """The CRC32 of the bytes read so far and then of the rest, or of as much of
        it as the file still holds."""
        while (end := self._start + len(self._last)) < self._size and self[end:end + PIECE]:
            pass
        return self._crc


def _array(data, pos: int, dtype: str, count: int, what: str) -> tuple[np.ndarray, int]:
    """*count* raw values of *dtype* at *pos*, and the position after them."""
    end = pos + count * np.dtype(dtype).itemsize
    if end > len(data):
        raise IndexFormatError(f"truncated {what}")
    return np.frombuffer(data[pos:end], dtype, count), end


def _read_strings(data, pos: int, what: str) -> tuple[list[str], int]:
    """A string table written by :func:`_string_table`; its strings are distinct and non-empty.

    The blob is decoded once and sliced; one decode per string is slower.
    """
    (count,) = struct.unpack("<I", data[pos:pos + 4])
    lengths, pos = _array(data, pos + 4, "<u4", count, f"{what} lengths")
    (size,) = struct.unpack("<Q", data[pos:pos + 8])
    pos += 8
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=bounds[1:])
    if bounds[-1] != size:
        raise IndexFormatError(f"{what} lengths do not sum to the string blob size")
    end = pos + size
    if end > len(data):
        raise IndexFormatError(f"truncated {what} blob")
    blob = data[pos:end]
    text = str(blob, "utf-8")
    if len(text) != size:
        # A byte boundary is a character boundary iff it is not on a continuation
        # byte (0x80-0xbf, below -64 as int8); the continuation bytes before it
        # give its character offset.
        continuation = np.flatnonzero(np.frombuffer(blob, np.int8) < -64)
        before = np.searchsorted(continuation, bounds)
        if (continuation[np.minimum(before, continuation.size - 1)] == bounds).any():
            raise IndexFormatError("invalid UTF-8 in a string block")
        bounds -= before
    bounds = bounds.tolist()
    strings = [text[start:stop] for start, stop in zip(bounds, bounds[1:])]
    if "" in strings or len(set(strings)) != count:
        raise IndexFormatError(f"empty or duplicate {what}")
    return strings, end


def _inflate(data, pos: int, dtype: str, count: int, what: str) -> tuple[np.ndarray, int]:
    """The *count* values of *dtype* in the zlib stream of byte planes at *pos*, and the
    position after the stream.

    The stream is read and inflated at most ``PIECE`` bytes at a time, each
    piece copied straight into its byte plane of the values, so the whole
    inflated stream is never held.  The values are allocated before the stream
    proves it holds them, but only for a count that the bytes left could
    inflate to, at zlib's maximum expansion of 1032:1.
    """
    dtype = np.dtype(dtype)
    expected = count * dtype.itemsize
    if expected > _MAX_EXPANSION * (len(data) - pos):
        raise IndexFormatError(f"{what} stream does not hold {count} values")
    values = np.empty(count, dtype=dtype)
    columns = values.view(np.uint8).reshape(count, dtype.itemsize)
    stream = zlib.decompressobj()
    done = 0
    while not stream.eof:
        chunk = data[pos:pos + PIECE]
        try:
            # At most one byte over the expected size in all catches an overlong
            # stream without inflating it further; a limit of 0 means no limit.
            piece = stream.decompress(chunk, min(PIECE, expected - done + 1))
        except zlib.error as exc:
            raise IndexFormatError(f"corrupt {what} stream ({exc})") from exc
        if done + len(piece) > expected or not (piece or chunk):
            raise IndexFormatError(f"{what} stream does not hold {count} values")
        # A piece may end one plane and start the next: each part is copied into its column.
        at = 0
        while at < len(piece):
            byte, row = divmod(done, count)
            n = min(count - row, len(piece) - at)
            columns[row:row + n, byte] = np.frombuffer(piece, np.uint8, n, at)
            at += n
            done += n
        # At the stream's end the bytes after it are in unused_data; CPython may
        # also leave them in unconsumed_tail, which otherwise holds what the
        # output limit left unread.
        pos += len(chunk) - len(stream.unused_data if stream.eof else stream.unconsumed_tail)
    if done != expected:
        raise IndexFormatError(f"{what} stream does not hold {count} values")
    return values, pos


def save(idx: InvertedIndex, path) -> None:
    """Serialize to *path*; ``load(save(idx))`` reproduces identical searches."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", FORMAT_VERSION)
    terms = idx.vocab.terms
    buf += _string_table(terms)
    buf += _string_table(idx.doc_names)
    # Terms added to the vocabulary after build get empty lists.
    offsets = np.pad(idx.offsets, (0, len(terms) + 1 - idx.offsets.size), mode="edge")
    buf += offsets.astype("<i8").tobytes()
    buf += struct.pack("<I", idx.table.size)
    buf += _deflate(np.asarray(idx.table, dtype="<f8"))
    buf += _deflate(idx.codes)
    # Gaps wrap modulo 2**32 at list starts; a uint32 cumsum undoes that exactly.
    buf += _deflate(np.asarray(np.diff(idx.doc_ids, prepend=np.uint32(0)), dtype="<u4"))
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(buf)


def load(path) -> InvertedIndex:
    """Read an index written by :func:`save`, verifying version, checksum and structure.

    The file is read twice, a piece at a time and never whole: first for its
    magic, checksum and version, then to parse it.  The parse sums what it
    reads, so a file changed in between is refused as a corrupt one.  A file
    that cannot be read twice, such as a pipe, is read whole first.
    """
    with open(path, "rb") as fh:
        if fh.seekable():
            fd = fh.fileno()
            size = os.fstat(fd).st_size

            def read(count: int, offset: int) -> bytes:
                return os.pread(fd, count, offset)
        else:
            data = fh.read()
            size = len(data)

            def read(count: int, offset: int) -> bytes:
                return data[offset:offset + count]

        head = read(8, 0)
        if size < 12 or head[:4] != MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        crc = 0
        for at in range(0, size - 4, PIECE):
            crc = zlib.crc32(read(min(PIECE, size - 4 - at), at), crc)
        if crc.to_bytes(4, "little") != read(4, size - 4):
            raise IndexFormatError(f"{path}: checksum mismatch (corrupt or truncated file)")
        (version,) = struct.unpack("<I", head[4:])
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                f"{path}: unsupported format version {version}; rebuild the index with `setvec index`"
            )
        body = _Body(read, size - 4)
        try:
            try:
                return _parse(body)
            finally:
                # Bytes that differ from the checksum pass's, whether they parsed or not.
                if body.crc() != crc:
                    raise IndexFormatError("checksum mismatch (corrupt or truncated file)")
        except IndexFormatError as exc:
            raise IndexFormatError(f"{path}: {exc}") from None
        except struct.error as exc:
            raise IndexFormatError(f"{path}: truncated index file") from exc
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{path}: invalid UTF-8 in a string block") from exc


def _parse(body: _Body) -> InvertedIndex:
    """The index in *body*, a file whose magic, checksum and version are checked."""
    terms, pos = _read_strings(body, 8, "vocabulary term")
    doc_names, pos = _read_strings(body, pos, "doc name")
    offsets, pos = _array(body, pos, "<i8", len(terms) + 1, "offsets")
    offsets = offsets.astype(np.int64)
    # A list holds each doc at most once; checking that here also keeps
    # the stream sizes below from overflowing.
    lengths = np.diff(offsets)
    n_docs = len(doc_names)
    if offsets[0] != 0 or lengths.min(initial=0) < 0 or lengths.max(initial=0) > n_docs:
        raise IndexFormatError("posting offsets do not partition the postings")
    n_postings = int(offsets[-1])
    (table_size,) = struct.unpack("<I", body[pos:pos + 4])
    table, pos = _inflate(body, pos + 4, "<f8", table_size, "weight table")
    # The table is one row of weights: the weight rule drops none of them.
    try:
        kept = _canonical_rows(np.array([0, table_size]), np.arange(table_size), table)[2]
    except NonFiniteError:
        raise IndexFormatError("non-finite weight in the weight table") from None
    if kept.size != table_size:
        raise IndexFormatError("zero or near-zero weight in the weight table")
    if _not_increasing(table).any():
        raise IndexFormatError("weight table not strictly increasing")
    codes, pos = _inflate(body, pos, _code_dtype(table_size), n_postings, "weight")
    if codes.size and int(codes.max()) >= table_size:
        raise IndexFormatError("weight code out of range")
    # The gaps are un-shuffled straight into doc_ids and summed in place:
    # a second array of that size would raise the loader's peak memory.
    doc_ids, pos = _inflate(body, pos, "<u4", n_postings, "doc-id gap")
    if pos != len(body):
        raise IndexFormatError("trailing bytes after the posting streams")
    np.cumsum(doc_ids, dtype=np.uint32, out=doc_ids)
    if doc_ids.size and int(doc_ids.max()) >= n_docs:
        raise IndexFormatError("doc id out of range")
    if _not_increasing(doc_ids, offsets).any():
        raise IndexFormatError("doc ids not strictly increasing within a posting list")
    return InvertedIndex(Vocabulary(terms), doc_names, offsets, doc_ids, table, codes)
