"""Vocabulary handling and the sparse term-weight vector algebra.

A :class:`SparseVector` stores sorted ``(term-id, weight)`` pairs over a
shared :class:`Vocabulary`.  Weights may be negative; missing entries are
semantically zero everywhere.  All operations are pure and return vectors in
canonical form: strictly increasing term ids, no stored weight with magnitude
below :data:`NEAR_ZERO`.  A :class:`VectorBatch` holds many canonical
vectors as CSR columns; the ingest path (BM25 encoding, vector files, index
build) carries documents that way instead of one object per document.

One function, ``_canonical_rows``, puts every vector and every batch row in
canonical form, and it alone applies the weight rule ``_kept``.  A row may not
hold an id twice; only :meth:`SparseVector.from_pairs` sums repeated terms.

The dot product accumulates shared entries sequentially in ascending term-id
order.  The inverted index accumulates its scores term by term in the same
order, so index scores and ``dot()`` agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import NonFiniteError, UnknownTermError, VocabularyMismatchError, ZeroNormError

# Magnitudes below this are dropped during canonicalization so that results
# of float arithmetic that *should* cancel to zero actually disappear.
NEAR_ZERO = 1e-12


class _TermIds(dict):
    """``term -> id``; looking up a missing term appends it to the vocabulary."""

    __slots__ = ("vocab",)

    def __missing__(self, term):
        return self.vocab._append(term)


class Vocabulary:
    """Bidirectional mapping between term strings and dense integer ids.

    A fresh vocabulary is in extend-on-miss mode: looking up an unknown term
    through :meth:`add` or :meth:`add_all` appends it.  After :meth:`freeze`,
    unknown terms raise :class:`UnknownTermError` and the vocabulary is safely
    shareable across threads.
    """

    __slots__ = ("_terms", "_ids", "_frozen")

    def __init__(self, terms: Iterable[str] = ()):
        self._terms: list[str] = []
        self._ids = _TermIds()
        self._ids.vocab = self
        self._frozen = False
        for term in terms:
            if term not in self._ids:
                self._append(term)

    def _append(self, term) -> int:
        """Give an unseen *term* the next id; ``_ids`` calls this on a miss."""
        if self._frozen:
            raise UnknownTermError(f"term {term!r} not in frozen vocabulary")
        if not isinstance(term, str) or not term:
            raise ValueError("vocabulary terms must be non-empty strings")
        term_id = len(self._terms)
        self._terms.append(term)
        self._ids[term] = term_id
        return term_id

    def add(self, term: str) -> int:
        """Return the id of *term*, appending it if unseen (and not frozen)."""
        term_id = self._ids.get(term)
        return self._append(term) if term_id is None else term_id

    def add_all(self, terms: Iterable[str]) -> list[int]:
        """The ids of *terms* in order, appending unseen ones as :meth:`add` does.

        Every known term costs one dict lookup that stays in C.
        """
        return list(map(self._ids.__getitem__, terms))

    def id_of(self, term: str) -> int:
        """Return the id of a known term; raise :class:`UnknownTermError` otherwise."""
        term_id = self._ids.get(term)
        if term_id is None:
            raise UnknownTermError(f"unknown term {term!r}")
        return term_id

    def get(self, term: str) -> int | None:
        return self._ids.get(term)

    def term(self, term_id: int) -> str:
        return self._terms[term_id]

    def freeze(self) -> "Vocabulary":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "open"
        return f"Vocabulary({len(self)} terms, {state})"


class SparseVector:
    """Immutable sparse vector: sorted term ids with float64 weights."""

    __slots__ = ("ids", "weights", "vocab")

    def __init__(self, ids, weights, vocab: Vocabulary):
        """*ids* are distinct; the vector keeps canonical copies, never the caller's arrays."""
        ids = np.array(ids, dtype=np.uint32)
        weights = np.array(weights, dtype=np.float64)
        if ids.shape != weights.shape or ids.ndim != 1:
            raise ValueError("ids and weights must be 1-d arrays of equal length")
        _, ids, weights = _canonical_rows(np.array([0, ids.size]), ids, weights)
        _require_in_vocab(ids, vocab)
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
        are dropped.  Unknown terms extend the vocabulary unless it is frozen.
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
    def from_dict(cls, mapping: Mapping[str, float], vocab: Vocabulary) -> "SparseVector":
        return cls.from_pairs(mapping.items(), vocab)

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
    with the matching slice of ``weights``: the layout of the inverted index's
    columns, with a row per document instead of per term.  Every row is
    canonical, as a :class:`SparseVector` is.  Iterating yields
    ``(name, SparseVector)`` pairs whose arrays are views of the columns.
    """

    __slots__ = ("names", "offsets", "ids", "weights", "vocab")

    def __init__(self, names: list[str], lengths, ids, weights, vocab: Vocabulary):
        """Rows are *lengths* consecutive entries of *ids*/*weights*; a row's ids
        must be distinct.  Rows are sorted by id and pruned as :func:`_kept`
        does.  The batch keeps the arrays it can use as given and makes them
        read-only."""
        lengths = np.asarray(lengths, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.uint32)
        weights = np.asarray(weights, dtype=np.float64)
        if ids.shape != weights.shape or ids.ndim != 1 or lengths.shape != (len(names),):
            raise ValueError("ids and weights must be 1-d arrays of equal length, with one length per name")
        if lengths.min(initial=0) < 0 or int(lengths.sum()) != ids.size:
            raise ValueError("row lengths must be nonnegative and cover every entry")
        _require_in_vocab(ids, vocab)
        offsets = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        offsets, ids, weights = _canonical_rows(offsets, ids, weights)
        for column in (offsets, ids, weights):
            column.setflags(write=False)
        self.names = names
        self.offsets = offsets
        self.ids = ids
        self.weights = weights
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
            elif vec.vocab is not vocab:
                raise VocabularyMismatchError(f"vector {name!r} uses a different vocabulary")
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
            yield name, SparseVector._trusted(self.ids[start:end], self.weights[start:end], self.vocab)


def _canonical_rows(offsets: np.ndarray, ids: np.ndarray, weights: np.ndarray):
    """Sort the rows whose ids are out of order, refuse a repeated id, then check and prune as :func:`_kept`.

    Returns ``(offsets, ids, weights)``, copied where a row changes; the inputs
    are never modified.
    """
    unordered = _not_increasing(ids, offsets)
    if unordered.any():
        ids, weights = ids.copy(), weights.copy()
        rows = np.unique(np.searchsorted(offsets, np.flatnonzero(unordered), side="right") - 1)
        for start, end in zip(offsets[rows].tolist(), offsets[rows + 1].tolist()):
            order = np.argsort(ids[start:end], kind="stable")
            ids[start:end] = ids[start:end][order]
            weights[start:end] = weights[start:end][order]
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


def _require_in_vocab(ids: np.ndarray, vocab: Vocabulary) -> None:
    if ids.size and int(ids.max()) >= len(vocab):
        raise ValueError(f"term id {int(ids.max())} out of range for vocabulary of size {len(vocab)}")


def _positive_int(value, name: str) -> int:
    """*value* as an ``int``, once it is a count: an ``int`` or numpy integer of at
    least 1, never a ``bool``.  Callers use the result, since ``-np.uint8(1)`` wraps."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _require_same_vocab(a: SparseVector, b: SparseVector) -> None:
    if a.vocab is not b.vocab:
        raise VocabularyMismatchError("operands are bound to different vocabularies")


def _elementwise(a: SparseVector, b: SparseVector, op) -> SparseVector:
    """``op`` over both weight arrays aligned to the union of supports (missing = 0)."""
    _require_same_vocab(a, b)
    union = np.union1d(a.ids, b.ids)
    wa = np.zeros(union.size, dtype=np.float64)
    wb = np.zeros(union.size, dtype=np.float64)
    wa[np.searchsorted(union, a.ids)] = a.weights
    wb[np.searchsorted(union, b.ids)] = b.weights
    # An overflow is reported by _kept's finite check, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = op(wa, wb)
    return SparseVector(union, weights, a.vocab)


def _kept(weights: np.ndarray) -> np.ndarray | None:
    """The one weight rule: reject non-finite weights, keep magnitudes of at least
    :data:`NEAR_ZERO`.  Returns the keep mask, or None when every weight stays."""
    if not np.isfinite(weights).all():
        raise NonFiniteError("a weight is inf or nan (non-finite input or an overflow)")
    keep = np.abs(weights) >= NEAR_ZERO
    return None if keep.all() else keep


def dot(a: SparseVector, b: SparseVector) -> float:
    """Dot product over shared term ids.

    Accumulates in ascending term-id order; the inverted index reproduces
    exactly this summation, so the two never disagree.
    """
    _require_same_vocab(a, b)
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
    _require_same_vocab(b, support_of)
    if b.nnz == 0 or support_of.nnz == 0:
        return b
    keep = ~np.isin(b.ids, support_of.ids, assume_unique=True)
    return SparseVector._trusted(b.ids[keep], b.weights[keep], b.vocab)


def project(a: SparseVector, onto_b: SparseVector) -> SparseVector:
    """Orthogonal projection of *a* onto the line of *onto_b*: ``(a.b/|b|^2) b``."""
    _require_same_vocab(a, onto_b)
    denom = dot(onto_b, onto_b)
    if denom <= 0.0:
        raise ZeroNormError("cannot project onto a zero vector")
    return scale(onto_b, dot(a, onto_b) / denom)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity in [-1, 1]; raises on zero-norm input."""
    _require_same_vocab(a, b)
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for zero-norm vectors")
    value = dot(a, b) / (na * nb)
    return max(-1.0, min(1.0, value))


def _rank(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The one ranking rule: descending score, ties by ascending id, first *k*.

    A partition first keeps every score tied with or above the k-th best, so
    only those survivors are sorted; the output is identical to a full sort.
    """
    k = _positive_int(k, "k")
    if not np.isfinite(scores).all():
        raise NonFiniteError("a document score overflows to inf or nan")
    if scores.size > k:
        kth = np.partition(scores, -k)[-k]
        keep = np.flatnonzero(scores >= kth)
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def top_m(a: SparseVector, m: int) -> SparseVector:
    """Keep the *m* entries of largest weight (ties broken by ascending id)."""
    m = _positive_int(m, "m")
    if m >= a.nnz:
        return a
    # Positions rank as the ids do, since ids ascend; sorting them restores id order.
    keep = np.sort(_rank(np.arange(a.nnz), a.weights, m)[0])
    return SparseVector._trusted(a.ids[keep], a.weights[keep], a.vocab)
