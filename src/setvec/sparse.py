"""Vocabulary handling and the sparse term-weight vector algebra.

A :class:`SparseVector` stores sorted ``(term-id, weight)`` pairs over a
shared :class:`Vocabulary`.  Weights may be negative; missing entries are
semantically zero everywhere.  All operations are pure and return vectors in
canonical form: strictly increasing term ids, no stored weight with magnitude
below :data:`NEAR_ZERO`.

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


class Vocabulary:
    """Bidirectional mapping between term strings and dense integer ids.

    A fresh vocabulary is in extend-on-miss mode: looking up an unknown term
    through :meth:`add` appends it.  After :meth:`freeze`, unknown terms raise
    :class:`UnknownTermError` and the vocabulary is safely shareable across
    threads.
    """

    __slots__ = ("_terms", "_ids", "_frozen")

    def __init__(self, terms: Iterable[str] = ()):
        self._terms: list[str] = []
        self._ids: dict[str, int] = {}
        self._frozen = False
        for term in terms:
            self.add(term)

    def add(self, term: str) -> int:
        """Return the id of *term*, appending it if unseen (and not frozen)."""
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        if self._frozen:
            raise UnknownTermError(f"term {term!r} not in frozen vocabulary")
        if not isinstance(term, str) or not term:
            raise ValueError("vocabulary terms must be non-empty strings")
        term_id = len(self._terms)
        self._terms.append(term)
        self._ids[term] = term_id
        return term_id

    def id_of(self, term: str) -> int:
        """Return the id of a known term; raise :class:`UnknownTermError` otherwise."""
        try:
            return self._ids[term]
        except KeyError:
            raise UnknownTermError(f"unknown term {term!r}") from None

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
        ids = np.asarray(ids, dtype=np.uint32)
        weights = np.asarray(weights, dtype=np.float64)
        if ids.shape != weights.shape or ids.ndim != 1:
            raise ValueError("ids and weights must be 1-d arrays of equal length")
        ids, weights = _canonicalize(ids, weights)
        if ids.size and int(ids[-1]) >= len(vocab):
            raise ValueError(
                f"term id {int(ids[-1])} out of range for vocabulary of size {len(vocab)}"
            )
        ids.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vocab", vocab)

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    @classmethod
    def _trusted(cls, ids: np.ndarray, weights: np.ndarray, vocab: Vocabulary) -> "SparseVector":
        """Wrap arrays already known to be canonical (internal fast path)."""
        vec = object.__new__(cls)
        ids.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(vec, "ids", ids)
        object.__setattr__(vec, "weights", weights)
        object.__setattr__(vec, "vocab", vocab)
        return vec

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, float]], vocab: Vocabulary
    ) -> "SparseVector":
        """Build a vector from ``(term, weight)`` pairs.

        Duplicate terms have their weights summed; zero results are dropped.
        Unknown terms extend the vocabulary unless it is frozen.
        """
        ids = []
        weights = []
        for term, weight in pairs:
            ids.append(vocab.add(term))
            weights.append(weight)
        return cls(np.asarray(ids, dtype=np.uint32), weights, vocab)

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


def _canonicalize(ids: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by id and sum duplicate ids, then check and prune as :func:`_prune`."""
    if ids.size:
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        weights = weights[order]
        unique_ids, inverse = np.unique(ids, return_inverse=True)
        if unique_ids.size != ids.size:
            summed = np.zeros(unique_ids.size, dtype=np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                np.add.at(summed, inverse, weights)
            ids, weights = unique_ids, summed
    return _prune(ids, weights)


def _require_same_vocab(a: SparseVector, b: SparseVector) -> None:
    if a.vocab is not b.vocab:
        raise VocabularyMismatchError("operands are bound to different vocabularies")


def _aligned(a: SparseVector, b: SparseVector):
    """Union of supports with both weight arrays aligned to it (missing = 0)."""
    union = np.union1d(a.ids, b.ids)
    wa = np.zeros(union.size, dtype=np.float64)
    wb = np.zeros(union.size, dtype=np.float64)
    wa[np.searchsorted(union, a.ids)] = a.weights
    wb[np.searchsorted(union, b.ids)] = b.weights
    return union.astype(np.uint32), wa, wb


def _prune(ids: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reject non-finite weights and drop near-zero ones; *ids* are sorted and unique."""
    if not np.isfinite(weights).all():
        raise NonFiniteError("a weight is inf or nan (non-finite input or an overflow)")
    keep = np.abs(weights) >= NEAR_ZERO
    if not keep.all():
        ids = ids[keep]
        weights = weights[keep]
    return np.ascontiguousarray(ids, dtype=np.uint32), np.ascontiguousarray(weights)


def _from_sorted(ids: np.ndarray, weights: np.ndarray, vocab: Vocabulary) -> SparseVector:
    """Canonicalize arrays that are already sorted and duplicate-free."""
    return SparseVector._trusted(*_prune(ids, weights), vocab)


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
    _require_same_vocab(a, b)
    ids, wa, wb = _aligned(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        summed = wa + wb
    return _from_sorted(ids, summed, a.vocab)


def sub(a: SparseVector, b: SparseVector) -> SparseVector:
    _require_same_vocab(a, b)
    ids, wa, wb = _aligned(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = wa - wb
    return _from_sorted(ids, diff, a.vocab)


def scale(a: SparseVector, factor: float) -> SparseVector:
    if not math.isfinite(factor):
        raise ValueError("scale factor must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = a.weights * float(factor)
    return _from_sorted(a.ids.copy(), scaled, a.vocab)


def maxpool(a: SparseVector, b: SparseVector) -> SparseVector:
    """Elementwise maximum, treating missing entries as 0.

    Negative entries that face a missing slot therefore vanish:
    ``max(-1, 0) = 0`` is dropped from the result.
    """
    _require_same_vocab(a, b)
    ids, wa, wb = _aligned(a, b)
    return _from_sorted(ids, np.maximum(wa, wb), a.vocab)


def mask_remove(b: SparseVector, support_of: SparseVector) -> SparseVector:
    """*b* with every entry zeroed where *support_of* is nonzero.

    Surviving weights are untouched, so the result equals *b* exactly outside
    the mask's support.
    """
    _require_same_vocab(b, support_of)
    if b.nnz == 0 or support_of.nnz == 0:
        return b
    keep = ~np.isin(b.ids, support_of.ids, assume_unique=True)
    return SparseVector._trusted(b.ids[keep].copy(), b.weights[keep].copy(), b.vocab)


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


def top_m(a: SparseVector, m: int) -> SparseVector:
    """Keep the *m* entries of largest weight (ties broken by ascending id)."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("m must be a positive integer")
    if m >= a.nnz:
        return a
    order = np.lexsort((a.ids, -a.weights))
    keep = np.sort(order[:m])
    return SparseVector._trusted(a.ids[keep].copy(), a.weights[keep].copy(), a.vocab)
