"""Vocabulary handling and the sparse term-weight vector algebra.

A :class:`SparseVector` stores sorted ``(term-id, weight)`` pairs over a
shared :class:`Vocabulary`, which appends an unseen term on ``add``.  An id
names a term only in its own vocabulary: ``_require_same_vocab`` alone refuses
operands over two, for vectors, batches, the index and pseudo-terms alike.
Weights may be negative; missing entries are semantically zero everywhere.
All operations are pure and return vectors in canonical form: strictly
increasing term ids, no stored weight with magnitude below :data:`NEAR_ZERO`.
A :class:`VectorBatch` holds many canonical vectors as CSR columns; the ingest
path (BM25 encoding, vector files, index build) carries documents that way
instead of one object per document.  Its weights are the index file's two
columns: ``table``, the sorted distinct weights, and ``codes``, each weight's
position in it.  ``_weight_codes`` alone derives them, once per batch.

``_term_ids`` alone checks the ids given to a vector, a batch or a logit
matrix.  One function, ``_canonical_rows``, puts every vector and every batch
row in canonical form, and it alone applies the weight rule ``_kept``.  A row
may not hold an id twice; only :meth:`SparseVector.from_pairs` sums repeated terms.

The dot product accumulates shared entries sequentially in ascending term-id
order.  The inverted index's one scoring loop, ``index._accumulate``, adds its
scores term by term in the same order from +0.0, so index scores and
``dot()`` agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteError, VocabularyMismatchError, ZeroNormError

# Magnitudes below this are dropped during canonicalization so that results
# of float arithmetic that *should* cancel to zero actually disappear.
NEAR_ZERO = 1e-12
WEIGHT_CODE_BLOCK = 1 << 16  # weights binary-searched per block by _weight_codes


class _TermIds(dict):
    """``term -> id``; looking up a missing term appends it to ``terms`` with the next id."""

    __slots__ = ("terms",)

    def __missing__(self, term):
        if not isinstance(term, str) or not term:
            raise ValueError("vocabulary terms must be non-empty strings")
        term_id = self[term] = len(self.terms)
        self.terms.append(term)
        return term_id


class Vocabulary:
    """Bidirectional mapping between term strings and dense integer ids.

    Looking up an unknown term through :meth:`add` or :meth:`add_all` appends
    it; :meth:`get` and ``in`` never do.
    """

    __slots__ = ("_terms", "_ids")

    def __init__(self, terms: Iterable[str] = ()):
        # One pass builds the id map; only a repeated term, which keeps its
        # first id, costs a second.
        self._terms: list[str] = list(terms)
        self._ids = _TermIds(zip(self._terms, range(len(self._terms))))
        if len(self._ids) != len(self._terms):
            self._terms = list(dict.fromkeys(self._terms))
            self._ids = _TermIds(zip(self._terms, range(len(self._terms))))
        if not all(issubclass(kind, str) for kind in set(map(type, self._terms))) or "" in self._ids:
            raise ValueError("vocabulary terms must be non-empty strings")
        self._ids.terms = self._terms

    def add(self, term: str) -> int:
        """Return the id of *term*, appending it if unseen."""
        return self._ids[term]

    def add_all(self, terms: Iterable[str]) -> list[int]:
        """The ids of *terms* in order, appending unseen ones as :meth:`add` does.

        Every known term costs one dict lookup that stays in C.
        """
        return list(map(self._ids.__getitem__, terms))

    def get(self, term: str) -> int | None:
        return self._ids.get(term)

    def term(self, term_id: int) -> str:
        return self._terms[term_id]

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} terms)"


class SparseVector:
    """Immutable sparse vector: sorted term ids with float64 weights."""

    __slots__ = ("ids", "weights", "vocab")

    def __init__(self, ids, weights, vocab: Vocabulary):
        """*ids* are distinct; the vector keeps canonical copies, never the caller's arrays."""
        ids = _term_ids(ids, vocab, copy=True)
        weights = np.array(weights, dtype=np.float64)
        if ids.shape != weights.shape or ids.ndim != 1:
            raise ValueError("ids and weights must be 1-d arrays of equal length")
        _, ids, weights = _canonical_rows(np.array([0, ids.size]), ids, weights)
        self._bind(ids, weights, vocab)

    def _bind(self, ids: np.ndarray, weights: np.ndarray, vocab: Vocabulary) -> "SparseVector":
        ids.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vocab", vocab)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    @classmethod
    def _trusted(cls, ids: np.ndarray, weights: np.ndarray, vocab: Vocabulary) -> "SparseVector":
        """Wrap views or subsets of arrays already canonical, without a copy or a check."""
        return object.__new__(cls)._bind(ids, weights, vocab)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, float]], vocab: Vocabulary
    ) -> "SparseVector":
        """Build a vector from ``(term, weight)`` pairs.

        Duplicate terms have their weights summed in input order; zero results
        are dropped.  Unknown terms extend the vocabulary.
        """
        ids = []
        weights = []
        for term, weight in pairs:
            ids.append(vocab.add(term))
            weights.append(weight)
        summed: dict[int, float] = {}
        for term_id, weight in zip(ids, np.asarray(weights, dtype=np.float64).tolist()):
            summed[term_id] = summed.get(term_id, 0.0) + weight
        return cls(list(summed), list(summed.values()), vocab)

    @classmethod
    def empty(cls, vocab: Vocabulary) -> "SparseVector":
        return cls._trusted(
            np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float64), vocab
        )

    @property
    def nnz(self) -> int:
        return int(self.ids.size)

    def get(self, term_id: int) -> float:
        """Weight stored for *term_id*, 0.0 when absent."""
        pos = int(np.searchsorted(self.ids, term_id))
        if pos < self.ids.size and int(self.ids[pos]) == term_id:
            return float(self.weights[pos])
        return 0.0

    def entries(self) -> Iterator[tuple[int, float]]:
        for tid, w in zip(self.ids, self.weights):
            yield int(tid), float(w)

    def to_dict(self) -> dict[str, float]:
        """Vector as a ``{term string: weight}`` dict in term-id order."""
        return {self.vocab.term(int(t)): float(w) for t, w in zip(self.ids, self.weights)}

    def __len__(self) -> int:
        return self.nnz

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.vocab is other.vocab
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        head = ", ".join(f"{t}:{w:g}" for t, w in list(self.to_dict().items())[:6])
        tail = ", ..." if self.nnz > 6 else ""
        return f"SparseVector({head}{tail})"


class VectorBatch:
    """Many vectors over one vocabulary in one CSR layout.

    Row ``i`` is named ``names[i]`` and holds ``ids[offsets[i]:offsets[i + 1]]``
    with the matching slice of ``codes``, each a position in ``table``, the
    sorted distinct weights: the layout of the inverted index's columns, with
    a row per document instead of per term.  Every row is canonical, as a
    :class:`SparseVector` is.  Iterating yields ``(name, SparseVector)`` pairs
    whose ids are views of the column and whose weights are gathered from the
    table.
    """

    __slots__ = ("names", "offsets", "ids", "table", "codes", "vocab")

    def __init__(self, names: list[str], lengths, ids, weights, vocab: Vocabulary):
        """Rows are *lengths* consecutive entries of *ids*/*weights*; a row's ids
        must be distinct.  Rows are sorted by id and pruned as :func:`_kept`
        does, then the weights are coded.  The batch keeps the arrays it can
        use as given and makes them read-only."""
        lengths = np.asarray(lengths, dtype=np.int64)
        ids = _term_ids(ids, vocab)
        weights = np.asarray(weights, dtype=np.float64)
        if ids.shape != weights.shape or ids.ndim != 1 or lengths.shape != (len(names),):
            raise ValueError("ids and weights must be 1-d arrays of equal length, with one length per name")
        if lengths.min(initial=0) < 0 or int(lengths.sum()) != ids.size:
            raise ValueError("row lengths must be nonnegative and cover every entry")
        offsets = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        offsets, ids, weights = _canonical_rows(offsets, ids, weights)
        table, codes = _weight_codes(weights)
        for column in (offsets, ids, table, codes):
            column.setflags(write=False)
        self.names = names
        self.offsets = offsets
        self.ids = ids
        self.table = table
        self.codes = codes
        self.vocab = vocab

    @classmethod
    def stack(
        cls, rows: Iterable[tuple[str, SparseVector]], vocab: Vocabulary | None = None
    ) -> "VectorBatch":
        """Stack ``(name, vector)`` rows; every vector must use *vocab*, by
        default the first row's (an empty batch without one gets a fresh one)."""
        names: list[str] = []
        id_cols = [np.empty(0, dtype=np.uint32)]
        weight_cols = [np.empty(0, dtype=np.float64)]
        for name, vec in rows:
            if vocab is None:
                vocab = vec.vocab
            _require_same_vocab(vec.vocab, vocab, f"vector {name!r} and the batch")
            names.append(name)
            id_cols.append(vec.ids)
            weight_cols.append(vec.weights)
        lengths = [col.size for col in id_cols[1:]]
        return cls(
            names,
            lengths,
            np.concatenate(id_cols),
            np.concatenate(weight_cols),
            Vocabulary() if vocab is None else vocab,
        )

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[tuple[str, SparseVector]]:
        bounds = self.offsets.tolist()
        for name, start, end in zip(self.names, bounds, bounds[1:]):
            yield name, SparseVector._trusted(self.ids[start:end], self.table.take(self.codes[start:end]), self.vocab)


def _canonical_rows(offsets: np.ndarray, ids: np.ndarray, weights: np.ndarray):
    """Sort the rows whose ids are out of order, refuse a repeated id, then check and prune as :func:`_kept`.

    Returns ``(offsets, ids, weights)``, copied where a row changes; the inputs
    are never modified.
    """
    unordered = _not_increasing(ids, offsets)
    if unordered.any():
        # One stable sort of (row, id) keys, ids being below 2**32, orders the rows
        # from the first out of order to the last.  Each sorted column is taken
        # from the input into its copy, with no third array of the column's size.
        first, last = np.searchsorted(offsets, np.flatnonzero(unordered)[[0, -1]], side="right") - 1
        del unordered
        lo, hi = offsets[first], offsets[last + 1]
        keys = np.repeat(np.arange(first, last + 1, dtype=np.int64) << 32, np.diff(offsets[first:last + 2]))
        keys |= ids[lo:hi]
        order = np.argsort(keys, kind="stable")
        del keys
        inputs = ids, weights
        ids, weights = ids.copy(), weights.copy()
        for column, copy in zip(inputs, (ids, weights)):
            # "clip" never clips here; "raise" would buffer the output.
            np.take(column[lo:hi], order, out=copy[lo:hi], mode="clip")
        del order
        # Every row is sorted now, so an id that still does not increase repeats.
        if _not_increasing(ids, offsets).any():
            raise ValueError("a row holds the same term id twice")
    keep = _kept(weights)
    if keep is not None:
        offsets = np.concatenate(([0], np.cumsum(keep)))[offsets]
        ids, weights = ids[keep], weights[keep]
    return offsets, ids, weights


def _not_increasing(ids: np.ndarray, offsets: np.ndarray | None = None) -> np.ndarray:
    """The one row-order rule: ``mask[i]`` flags ids ``i`` and ``i + 1`` in one row
    (of CSR *offsets*, else of one row) that do not strictly increase."""
    mask = ids[1:] <= ids[:-1]
    if offsets is not None:
        starts = offsets[1:-1]
        mask[starts[(starts > 0) & (starts < ids.size)] - 1] = False
    return mask


def _term_ids(ids, vocab: Vocabulary, copy: bool = False) -> np.ndarray:
    """The one term-id rule: *ids* as ``uint32``, once they are integers (not bools) in
    ``[0, len(vocab))`` or empty; a ``uint32`` array is kept as is unless *copy* is set."""
    ids = np.asarray(ids)
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= len(vocab)):
        raise ValueError(f"term ids must be integers in [0, {len(vocab)}), the vocabulary's range")
    return ids.astype(np.uint32, copy=copy)


def _positive_int(value, name: str) -> int:
    """*value* as an ``int``, once it is a count: an ``int`` or numpy integer of at
    least 1, never a ``bool``.  Callers use the result, since ``-np.uint8(1)`` wraps."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _require_same_vocab(vocab: Vocabulary, other: Vocabulary, what: str = "operands") -> None:
    """The one same-vocabulary rule: *what* must share one :class:`Vocabulary` object."""
    if vocab is not other:
        raise VocabularyMismatchError(f"{what} use different vocabularies")


def _elementwise(a: SparseVector, b: SparseVector, op) -> SparseVector:
    """``op`` over both weight arrays aligned to the union of supports (missing = 0)."""
    _require_same_vocab(a.vocab, b.vocab)
    union = _distinct(np.concatenate((a.ids, b.ids)))
    wa = np.zeros(union.size, dtype=np.float64)
    wb = np.zeros(union.size, dtype=np.float64)
    wa[np.searchsorted(union, a.ids)] = a.weights
    wb[np.searchsorted(union, b.ids)] = b.weights
    # An overflow is reported by _kept's finite check, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = op(wa, wb)
    return SparseVector(union, weights, a.vocab)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct *values*, as ``np.unique`` returns them, without its import of numpy.ma."""
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def _code_dtype(table_size: int) -> np.dtype:
    """The narrowest unsigned width whose codes reach every entry of a table of *table_size*."""
    width = 1 if table_size <= 1 << 8 else 2 if table_size <= 1 << 16 else 4
    return np.dtype(f"<u{width}")


def _weight_codes(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one weight coding: the sorted distinct *weights* (the table) and each
    weight's position in it, as codes of :func:`_code_dtype`'s width.

    A block of :data:`WEIGHT_CODE_BLOCK` weights at a time is sorted and
    binary-searched in order, about twice as fast as in file order; one
    whole-column argsort would hold 8 bytes a weight more.  Weights obey the
    weight rule, so no -0.0 is merged into 0.0.
    """
    table = _distinct(weights)
    codes = np.empty(weights.size, dtype=_code_dtype(table.size))
    for start in range(0, weights.size, WEIGHT_CODE_BLOCK):
        block = weights[start : start + WEIGHT_CODE_BLOCK]
        order = np.argsort(block)
        codes[start : start + block.size][order] = np.searchsorted(table, block[order])
    return table, codes


def _kept(weights: np.ndarray) -> np.ndarray | None:
    """The one weight rule: reject non-finite weights, keep magnitudes of at least
    :data:`NEAR_ZERO`.  Returns the keep mask, or None when every weight stays."""
    if not np.isfinite(weights).all():
        raise NonFiniteError("a weight is inf or nan (non-finite input or an overflow)")
    keep = np.abs(weights) >= NEAR_ZERO
    return None if keep.all() else keep


def dot(a: SparseVector, b: SparseVector) -> float:
    """Dot product over shared term ids.

    Accumulates in ascending term-id order from +0.0.  The inverted index
    adds each query term's contributions in the same ascending order, from a
    head term's dense row or by an unbuffered ``np.add.at`` over intp doc ids,
    so it reproduces exactly this summation and the two never disagree.
    """
    _require_same_vocab(a.vocab, b.vocab)
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    _, ia, ib = np.intersect1d(a.ids, b.ids, assume_unique=True, return_indices=True)
    total = 0.0
    for wa, wb in zip(a.weights[ia], b.weights[ib]):
        total += float(wa) * float(wb)
    return total


def norm(a: SparseVector) -> float:
    """Euclidean norm, consistent with ``sqrt(dot(a, a))``."""
    return math.sqrt(dot(a, a))


def add(a: SparseVector, b: SparseVector) -> SparseVector:
    return _elementwise(a, b, np.add)


def sub(a: SparseVector, b: SparseVector) -> SparseVector:
    return _elementwise(a, b, np.subtract)


def scale(a: SparseVector, factor: float) -> SparseVector:
    if not math.isfinite(factor):
        raise ValueError("scale factor must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = a.weights * float(factor)
    return SparseVector(a.ids, scaled, a.vocab)


def maxpool(a: SparseVector, b: SparseVector) -> SparseVector:
    """Elementwise maximum, treating missing entries as 0.

    Negative entries that face a missing slot therefore vanish:
    ``max(-1, 0) = 0`` is dropped from the result.
    """
    return _elementwise(a, b, np.maximum)


def mask_remove(b: SparseVector, support_of: SparseVector) -> SparseVector:
    """*b* with every entry zeroed where *support_of* is nonzero.

    Surviving weights are untouched, so the result equals *b* exactly outside
    the mask's support.
    """
    _require_same_vocab(b.vocab, support_of.vocab)
    if b.nnz == 0 or support_of.nnz == 0:
        return b
    keep = ~np.isin(b.ids, support_of.ids, assume_unique=True)
    return SparseVector._trusted(b.ids[keep], b.weights[keep], b.vocab)


def project(a: SparseVector, onto_b: SparseVector) -> SparseVector:
    """Orthogonal projection of *a* onto the line of *onto_b*: ``(a.b/|b|^2) b``."""
    _require_same_vocab(a.vocab, onto_b.vocab)
    denom = dot(onto_b, onto_b)
    if denom <= 0.0:
        raise ZeroNormError("cannot project onto a zero vector")
    return scale(onto_b, dot(a, onto_b) / denom)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity in [-1, 1]; raises on zero-norm input."""
    _require_same_vocab(a.vocab, b.vocab)
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for zero-norm vectors")
    value = dot(a, b) / (na * nb)
    return max(-1.0, min(1.0, value))


def _rank(ids: np.ndarray | None, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The one ranking rule: descending score, ties by ascending id, first *k*.

    *ids* None ranks the positions of *scores*, without building them.  A
    partition first keeps every score tied with or above the k-th best, so
    only those survivors are sorted; the output is identical to a full sort.
    With at least 8k scores, that partition is preceded by one over every 8th
    score: the k-th best of a subset bounds the k-th best of all from below,
    so keeping the scores at or above it drops no hit, and the exact
    partition then sees only the few survivors.
    """
    k = _positive_int(k, "k")
    if not np.isfinite(scores).all():
        raise NonFiniteError("a document score overflows to inf or nan")
    for stride in (8, 1):
        if scores.size > k and scores.size >= stride * k:
            kth = np.partition(scores[::stride], -k)[-k]
            keep = np.flatnonzero(scores >= kth)
            ids = keep if ids is None else ids[keep]
            scores = scores[keep]
    if ids is None:
        ids = np.arange(scores.size)
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def top_m(a: SparseVector, m: int) -> SparseVector:
    """Keep the *m* entries of largest weight (ties broken by ascending id)."""
    m = _positive_int(m, "m")
    if m >= a.nnz:
        return a
    # Positions rank as the ids do, since ids ascend; sorting them restores id order.
    keep = np.sort(_rank(None, a.weights, m)[0])
    return SparseVector._trusted(a.ids[keep], a.weights[keep], a.vocab)
