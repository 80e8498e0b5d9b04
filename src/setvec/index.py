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
``_touched`` marks the doc ids of the query terms' posting lists, with no
weight fetched, and the marked docs are ranked.  CPT's two factors are the
same loop adding ``sqrt(q_t * d_t)`` (:func:`search_cpt`).
``_rank`` sorts only the scores at or above the k-th best, found by one
partition, after a partition of every 8th score has bounded it from below.
The rows are built once per index, on its first search and under a lock, so
``build``, ``save`` and ``load`` never hold them.  A row takes 8 bytes per
doc; its term's postings take at least 5 bytes each, at least 1.25 bytes per
doc, so the rows take at most 6.4 times the memory of the postings they copy.
Each thread that searches an index keeps two float64 arrays of its doc count
(16 bytes per doc), the scores and a head row's product, until the index is
freed; no returned hit is a view of them, as ``_rank`` copies what it returns.

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
range check and :func:`save`'s padding.  The doc names are one
:class:`StringTable`, their UTF-8 bytes and the byte bounds of each, as the
file stores them: a ``str`` is decoded only for a returned hit, so 100,000
names cost their UTF-8 bytes plus 8 bytes each, not 100,000 objects.

The on-disk format (SVIX version 4) is little-endian binary: magic, format
version, the vocabulary and the doc names as two string tables, the offsets,
the weights as a table plus codes, the doc-id gaps, and a trailing CRC32
checksum.  Every array of the file is one zlib stream of byte planes (byte 0
of every value, then byte 1, and so on), which compress better than the
interleaved values: the string tables' lengths and blobs, the int64 offsets,
the table, the codes and the uint32 gaps.  A string table is a u32 count, the
stream of a u32 byte length per string, the u64 size of the UTF-8 blob those
lengths slice, then the blob's stream of single bytes.  The weight table
holds the sorted distinct weights; each posting stores its weight's position
in it as a code of the narrowest unsigned width the table size allows (1 byte
up to 256 entries, 2 up to 65,536, else 4).  :func:`load` reads each byte of
the file once, at most ``PIECE`` bytes at a time, and never holds it whole:
it checks the magic, reads the stored CRC, then parses the rest, summing what
it reads, and refuses a sum that differs from the stored CRC as corrupt,
whatever the parse raised; the version is the parse's first check.  The
parse asks one reader for the file's next bytes, front to back, and hands
back what a zlib stream leaves unused, so no step of it tracks a position.  Only a file that cannot
seek, such as a pipe, is read whole first.  It inflates each stream straight
into the byte planes of its array, so it never holds a whole inflated
stream; it allocates that array only for a count the bytes left could
inflate to at zlib's maximum expansion (1032:1), so its memory stays linear
in the file's size, whatever a string count, a blob size or an offset
claims.  Besides the checksum, :func:`load` checks structure: each string
table's lengths sum exactly to its blob, the blob is valid UTF-8 and no
string starts inside a character, the strings are distinct and
non-empty, the offsets partition the postings, every stream holds exactly
the values the offsets imply, the table is finite, strictly increasing and
obeys the weight rule (so no zero weight), every code is below the table
size, and doc ids are in range and strictly increasing within each list.
The terms are distinct when :class:`Vocabulary` keeps them all.  The doc
names are distinct by the hashes of their bytes, made one slice at a time
and compared only where hashes collide, the rule :func:`build` applies too;
doc-id order is checked in blocks of ``PIECE`` postings that overlap by one,
so neither check holds an object or a byte per name or posting.  Files of
versions 1 to 3 are refused; rebuild them with ``setvec index``.
"""

from __future__ import annotations

import io
import os
import struct
import threading
import zlib
from collections.abc import Sequence
from itertools import accumulate
from typing import Iterable

import numpy as np

from .cpt import PseudoTermVector, _require_nonnegative
from .errors import DuplicateDocError, IndexFormatError, NonFiniteError
from .sparse import (
    SparseVector, VectorBatch, Vocabulary, _code_dtype, _kept, _not_increasing, _positive_int,
    _rank, _require_same_vocab, maxpool,
)

MAGIC = b"SVIX"
FORMAT_VERSION = 4
ZLIB_LEVEL = 1
# The most bytes _inflate reads or inflates in one step, and the postings in
# one block of the doc-id order check.
PIECE = 1 << 15
# A deflate stream inflates to at most 1032 times its size.
_MAX_EXPANSION = 1032

# Ranked (doc name, score) pairs, best first.
SearchResult = list[tuple[str, float]]


class StringTable(Sequence):
    """A read-only sequence of strings held as the index file stores them, inflated:
    ``blob``, their UTF-8 bytes end to end, and ``bounds``, the int64 byte offsets
    where each starts and the last ends, so that string ``i`` is
    ``blob[bounds[i]:bounds[i + 1]]`` decoded.

    It costs its blob plus 8 bytes a string, where a list of ``str`` costs about
    60 bytes more each; a ``str`` is decoded only for a string asked for.  It
    equals another table, or a list, of the same strings.
    """

    __slots__ = ("blob", "bounds")

    def __init__(self, blob: bytes, bounds: np.ndarray):
        self.blob = blob
        self.bounds = bounds

    @classmethod
    def of(cls, strings: Sequence[str]) -> StringTable:
        bounds = np.zeros(len(strings) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, map(str.encode, strings)), np.int64, len(strings)), out=bounds[1:])
        return cls("".join(strings).encode(), bounds)

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, i: int) -> str:
        i = range(len(self))[i]  # a list's negative indices and IndexError
        return self.blob[self.bounds[i]:self.bounds[i + 1]].decode()

    def _encoded(self):
        """Each string's UTF-8 bytes, in order.  The offsets are summed one at a time
        from the lengths, small ints that Python shares: a list of the offsets left
        an int a string in the heap, 0.7 MB of RSS after 20,000 names."""
        lengths = np.diff(self.bounds).tolist()
        return map(self.blob.__getitem__, map(slice, accumulate(lengths, initial=0), accumulate(lengths)))

    def __iter__(self):
        return map(bytes.decode, self._encoded())

    def take(self, ids: np.ndarray) -> list[str]:
        """The strings at positions *ids*, in their order."""
        ids = np.asarray(ids, dtype=np.intp)
        starts, stops = self.bounds[ids].tolist(), self.bounds[ids + 1].tolist()
        return list(map(bytes.decode, map(self.blob.__getitem__, map(slice, starts, stops))))

    def __eq__(self, other) -> bool:
        if isinstance(other, StringTable):
            return self.blob == other.blob and np.array_equal(self.bounds, other.bounds)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"StringTable({list(self)!r})"

    def to_bytes(self) -> bytes:
        """A u32 count, the stream of the u32 byte lengths, the u64 blob size, then the
        stream of the UTF-8 blob."""
        lengths = _deflate(np.diff(self.bounds).astype("<u4"))
        blob = _deflate(np.frombuffer(self.blob, np.uint8))
        return struct.pack("<I", len(self)) + lengths + struct.pack("<Q", len(self.blob)) + blob


class InvertedIndex:
    """Immutable posting-list index over a fixed document collection."""

    __slots__ = ("vocab", "doc_names", "offsets", "doc_ids", "table", "codes", "_head_rows", "_buffers")
    # Guards the first build of every index's head rows: a caller's search threads may share one index.
    _head_rows_lock = threading.Lock()

    def __init__(
        self,
        vocab: Vocabulary,
        doc_names: StringTable,
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
        self._buffers = threading.local()  # each searching thread's scores and product arrays

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
    """Index a batch, or (doc name, vector) pairs stacked into one; names must be
    non-empty and unique, as :func:`load` requires.

    *vocab* may be given explicitly (required for an empty stream of pairs);
    otherwise it is taken from the batch or the first vector, and every
    vector must share it.
    """
    batch = docs if isinstance(docs, VectorBatch) else VectorBatch.stack(docs, vocab)
    vocab = batch.vocab if vocab is None else vocab
    _require_same_vocab(batch.vocab, vocab, "the document batch and the index")
    # The batch's table and codes are the index's: only the codes take the term order.
    # A stable sort keeps each list's doc ids in ingestion (ascending) order.
    order = np.argsort(batch.ids, kind="stable")
    codes = batch.codes[order]
    doc_ids = np.repeat(np.arange(len(batch), dtype=np.uint32), np.diff(batch.offsets))[order]
    del order  # before bincount takes an int64 copy of the ids: 8 bytes a posting each
    names = StringTable.of(batch.names)
    if (np.diff(names.bounds) == 0).any():
        raise ValueError("document names must be non-empty strings")
    repeated = _repeated(names)
    if repeated is not None:
        raise DuplicateDocError(f"duplicate document name {repeated!r}")
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(batch.ids, minlength=len(vocab)), out=offsets[1:])
    return InvertedIndex(vocab, names, offsets, doc_ids, batch.table, codes)


def _named(idx: InvertedIndex, doc_ids: np.ndarray, scores: np.ndarray) -> SearchResult:
    return list(zip(idx.doc_names.take(doc_ids), scores.tolist()))


def _accumulate(idx: InvertedIndex, q: SparseVector, contribution) -> np.ndarray:
    """Per-doc sums, from +0.0, of ``contribution(q_t, weights, out=None)`` over *q*'s
    terms in ascending id order: a head term's from its dense row, into the thread's
    product array, every other posted term's scattered over its doc ids.  The one loop
    that adds postings into per-doc scores: the thread's scores array, which its next call overwrites."""
    rows = idx.head_rows()
    buffers = idx._buffers
    if not hasattr(buffers, "scores"):
        buffers.scores, buffers.product = np.empty(idx.doc_count), np.empty(idx.doc_count)
    scores, product = buffers.scores, buffers.product
    scores.fill(0.0)
    # An overflow is reported by _rank's finite check, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for tid, qw in zip(q.ids.tolist(), q.weights.tolist()):
            row = rows.get(tid)
            if row is not None:
                # Exact: an accumulator that starts at +0.0 never holds -0.0 (a sum
                # is -0.0 only when both terms are), so adding a row's +-0.0
                # entries changes no doc, and each posted doc gets the same
                # contribution in the same term order as the scatter below.
                np.add(scores, contribution(qw, row, out=product), out=scores)
                continue
            posting = idx.postings(tid)
            if posting is not None:
                doc_ids, weights = posting
                np.add.at(scores, doc_ids.astype(np.intp), contribution(qw, weights))
    return scores


def _sqrt_product(qw: float, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A CPT factor's contribution, ``sqrt(q_t * d_t)``, into *out* when given."""
    product = np.multiply(qw, w, out=out)
    return np.sqrt(product, out=product)


def _touched(idx: InvertedIndex, ids: np.ndarray) -> np.ndarray:
    """A bool per doc: whether a posting list of a term in *ids* holds it.  The doc ids
    are read straight from each list; a query-only term, past the ids ``offsets``
    covers, holds none."""
    offsets = idx.offsets
    mask = np.zeros(idx.doc_count, dtype=bool)
    for t in ids[ids < offsets.size - 1].tolist():
        mask[idx.doc_ids[offsets[t]:offsets[t + 1]]] = True
    return mask


def _search_ids(idx: InvertedIndex, q: SparseVector, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (doc ids, scores); internal, shared by search and search_cpt."""
    _require_same_vocab(q.vocab, idx.vocab, "the query and the index")
    k = _positive_int(k, "k")
    scores = _accumulate(idx, q, np.multiply)
    # Untouched docs hold +0.0: when k docs score above it, the k-th score is
    # positive and every hit is touched.  Counting costs less than ranking
    # every doc only to find that the touched docs must be ranked instead:
    # those that the query terms' posting lists hold, zero and negative scores included.
    if np.count_nonzero(scores > 0) >= k:
        return _rank(None, scores, k)
    candidates = np.flatnonzero(_touched(idx, q.ids))
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
        # Each factor is gathered before the next accumulation overwrites the scores array.
        x = _accumulate(idx, q_cpt.x, _sqrt_product)[cand_ids]
        y = _accumulate(idx, q_cpt.y, _sqrt_product)[cand_ids]
        with np.errstate(over="ignore", invalid="ignore"):
            scores = x * y
    return _named(idx, *_rank(cand_ids, scores, k))


def _deflate(values: np.ndarray) -> bytes:
    """One zlib stream of little-endian *values* as byte planes: byte 0 of every
    value, then byte 1, and so on."""
    return zlib.compress(values.view(np.uint8).reshape(values.size, values.itemsize).T.tobytes(), ZLIB_LEVEL)


class _Body:
    """The body of an index file, all but its trailing CRC, handed out front to back:
    :meth:`take` returns its next bytes, read with ``read(count)``, the open file's
    own.

    Each byte is read once, and :meth:`crc` sums the bytes in file order, so
    :func:`load` can check that the very bytes it parsed match the stored CRC.
    """

    def __init__(self, read, size: int):
        self._read = read
        self._unread = size  # the body's bytes not yet read
        self._back = b""  # bytes given back, which come before the unread ones
        self._crc = 0

    def left(self) -> int:
        """The number of bytes not yet handed out."""
        return len(self._back) + self._unread

    def take(self, count: int, what: str = "index file") -> bytes:
        """The next *count* bytes, or ``truncated {what}`` when fewer are left."""
        if count > self.left():
            raise IndexFormatError(f"truncated {what}")
        back, self._back = self._back[:count], self._back[count:]
        fresh = self._read(count - len(back))
        self._unread -= len(fresh)
        self._crc = zlib.crc32(fresh, self._crc)
        return back + fresh

    def give_back(self, data: bytes) -> None:
        """Put *data*, the end of what :meth:`take` last returned, before the next bytes."""
        self._back = data

    def crc(self) -> int:
        """The CRC32 of the bytes read so far and then of the rest, or of as much of
        it as the file still holds."""
        while self.left() and self.take(min(PIECE, self.left())):
            pass
        return self._crc


def _read_strings(body: _Body, what: str) -> StringTable:
    """A string table written by :meth:`StringTable.to_bytes`, kept as it was read; its
    strings are valid UTF-8 and non-empty."""
    (count,) = struct.unpack("<I", body.take(4))
    lengths = _inflate(body, "<u4", count, f"{what} lengths")
    (size,) = struct.unpack("<Q", body.take(8, f"{what} blob size"))
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=bounds[1:])
    if bounds[-1] != size:
        raise IndexFormatError(f"{what} lengths do not sum to the string blob size")
    blob = _inflate(body, "u1", size, f"{what} blob").tobytes()
    try:
        blob.decode()
    except UnicodeDecodeError:
        raise IndexFormatError("invalid UTF-8 in a string block") from None
    # No string starts on a continuation byte (0x80-0xbf, below -64 as int8).
    if (np.frombuffer(blob, np.int8)[bounds[bounds < size]] < -64).any():
        raise IndexFormatError("invalid UTF-8 in a string block")
    if (np.diff(bounds) == 0).any():
        raise IndexFormatError(f"empty or duplicate {what}")
    return StringTable(blob, bounds)


def _repeated(strings: StringTable) -> str | None:
    """The first of *strings* equal to one before it, or None, found without a ``str``
    held for each: every string's bytes are hashed as they are sliced, and only
    strings whose hashes collide are decoded and compared."""
    hashes = np.fromiter(map(hash, strings._encoded()), np.int64, len(strings))
    ordered = np.sort(hashes)
    # Equal strings, and the rare distinct ones whose hashes are equal.
    alike = np.flatnonzero(np.isin(hashes, ordered[1:][ordered[1:] == ordered[:-1]]))
    seen: set[str] = set()
    for string in strings.take(alike):
        if string in seen:
            return string
        seen.add(string)
    return None


def _inflate(body: _Body, dtype: str, count: int, what: str) -> np.ndarray:
    """The *count* values of *dtype* in the zlib stream of byte planes that *body*
    holds next; the bytes after the stream are left in *body*.

    The stream is read and inflated at most ``PIECE`` bytes at a time, each
    piece copied straight into its byte plane of the values, so the whole
    inflated stream is never held.  The values are allocated before the stream
    proves it holds them, but only for a count that the bytes left could
    inflate to, at zlib's maximum expansion of 1032:1.
    """
    dtype = np.dtype(dtype)
    expected = count * dtype.itemsize
    if expected > _MAX_EXPANSION * body.left():
        raise IndexFormatError(f"{what} stream does not hold {count} values")
    values = np.empty(count, dtype=dtype)
    columns = values.view(np.uint8).reshape(count, dtype.itemsize)
    stream = zlib.decompressobj()
    done = 0
    while not stream.eof:
        # What the output limit left unread, else the next piece of the file.
        chunk = stream.unconsumed_tail or body.take(min(PIECE, body.left()))
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
    body.give_back(stream.unused_data)
    if done != expected:
        raise IndexFormatError(f"{what} stream does not hold {count} values")
    return values


def save(idx: InvertedIndex, path) -> None:
    """Serialize to *path*; ``load(save(idx))`` reproduces identical searches."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", FORMAT_VERSION)
    terms = idx.vocab.terms
    buf += StringTable.of(terms).to_bytes()
    buf += idx.doc_names.to_bytes()
    # Terms added to the vocabulary after build get empty lists.
    offsets = np.pad(idx.offsets, (0, len(terms) + 1 - idx.offsets.size), mode="edge")
    buf += _deflate(offsets.astype("<i8"))
    buf += struct.pack("<I", idx.table.size)
    buf += _deflate(np.asarray(idx.table, dtype="<f8"))
    buf += _deflate(idx.codes)
    # Gaps wrap modulo 2**32 at list starts; a uint32 cumsum undoes that exactly.
    buf += _deflate(np.asarray(np.diff(idx.doc_ids, prepend=np.uint32(0)), dtype="<u4"))
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(buf)


def load(path) -> InvertedIndex:
    """Read an index written by :func:`save`, verifying checksum, version and structure.

    The file is read once, a piece at a time and never whole: after its magic
    and its stored CRC, :func:`_parse` takes the rest from a :class:`_Body`,
    which sums it as it is read, and a sum that differs from the stored CRC
    refuses the file as corrupt, whatever the parse found.  A truncated field
    is refused as such by :meth:`_Body.take`.  Every byte comes through one
    ``read``: the unbuffered file's, or, for a file that cannot seek, such as
    a pipe, that of an ``io.BytesIO`` over its bytes, read whole first.
    """
    with open(path, "rb", buffering=0) as fh:
        # Unbuffered, so that each byte is read from the file when the parse asks for it.
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        size = source.seek(0, os.SEEK_END)
        source.seek(max(size - 4, 0))
        crc = int.from_bytes(source.read(4), "little")
        source.seek(0)
        body = _Body(source.read, size - 4)
        if size < 12 or body.take(4) != MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        try:
            try:
                return _parse(body)
            finally:
                # Bytes that differ from the stored CRC's, whether they parsed or not.
                if body.crc() != crc:
                    raise IndexFormatError("checksum mismatch (corrupt or truncated file)")
        except IndexFormatError as exc:
            raise IndexFormatError(f"{path}: {exc}") from None


def _parse(body: _Body) -> InvertedIndex:
    """The index in *body*, the file after its magic, taken field by field until
    no byte is left; :func:`load` checks its checksum once this returns or raises."""
    (version,) = struct.unpack("<I", body.take(4))
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported format version {version}; rebuild the index with `setvec index`")
    terms = _read_strings(body, "vocabulary term")
    vocab = Vocabulary(terms)
    if len(vocab) != len(terms):
        raise IndexFormatError("empty or duplicate vocabulary term")
    doc_names = _read_strings(body, "doc name")
    if _repeated(doc_names) is not None:
        raise IndexFormatError("empty or duplicate doc name")
    offsets = _inflate(body, "<i8", len(terms) + 1, "offsets")
    # A list holds each doc at most once; checking that here also keeps
    # the stream sizes below from overflowing.
    lengths = np.diff(offsets)
    n_docs = len(doc_names)
    if offsets[0] != 0 or lengths.min(initial=0) < 0 or lengths.max(initial=0) > n_docs:
        raise IndexFormatError("posting offsets do not partition the postings")
    n_postings = int(offsets[-1])
    (table_size,) = struct.unpack("<I", body.take(4))
    table = _inflate(body, "<f8", table_size, "weight table")
    # The weight rule keeps every weight of the table.
    try:
        dropped = _kept(table) is not None
    except NonFiniteError:
        raise IndexFormatError("non-finite weight in the weight table") from None
    if dropped:
        raise IndexFormatError("zero or near-zero weight in the weight table")
    if _not_increasing(table).any():
        raise IndexFormatError("weight table not strictly increasing")
    codes = _inflate(body, _code_dtype(table_size), n_postings, "weight")
    if codes.size and int(codes.max()) >= table_size:
        raise IndexFormatError("weight code out of range")
    # The gaps are un-shuffled straight into doc_ids and summed in place:
    # a second array of that size would raise the loader's peak memory.
    doc_ids = _inflate(body, "<u4", n_postings, "doc-id gap")
    if body.left():
        raise IndexFormatError("trailing bytes after the posting streams")
    np.cumsum(doc_ids, dtype=np.uint32, out=doc_ids)
    if doc_ids.size and int(doc_ids.max()) >= n_docs:
        raise IndexFormatError("doc id out of range")
    # In blocks of PIECE postings, each overlapping the next by one so that every
    # pair is checked, with the list starts inside the block as its offsets: a
    # mask of a byte a posting would raise the loader's peak memory.
    for lo in range(0, n_postings - 1, PIECE):
        ids = doc_ids[lo:lo + PIECE + 1]
        # The offsets from the last at or before the block's start to the first
        # at or past its end, which _not_increasing drops.
        first, last = np.searchsorted(offsets, (lo, lo + ids.size - 1), side="right")
        if _not_increasing(ids, offsets[first - 1:last + 1] - lo).any():
            raise IndexFormatError("doc ids not strictly increasing within a posting list")
    return InvertedIndex(vocab, doc_names, offsets, doc_ids, table, codes)
