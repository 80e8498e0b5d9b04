"""Combined pseudo-terms: quadratic term-pair expansions for intersections.

An intersection query over atomic vectors A and B is expanded into weighted
term *pairs* ``(i, j)`` with weight ``sqrt(a_i * b_j)``; documents expand into
pairs over their own support with weight ``sqrt(d_i * d_j)``.  The score is
the inner product over matching pairs, which factorizes:

    sum_ij sqrt(a_i b_j) sqrt(d_i d_j) = (sum_i sqrt(a_i d_i)) (sum_j sqrt(b_j d_j))

so an expansion is stored as its two factors (the truncated sides, or the
document twice) and its pairs are enumerated only on demand: retrieval reads
the factors and never materializes a pair.  A document scores above zero only
when it overlaps *both* truncated sides.  Each side keeps its top
:data:`DEFAULT_M` terms unless told otherwise.  All weights must be
nonnegative (sqrt domain): :func:`_require_nonnegative` raises
:class:`CptDomainError` for query sides, factors, documents and postings
alike rather than clamping, since negative input signals a misconfigured
encoder.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import CptDomainError, NonFiniteError
from .sparse import SparseVector, _require_same_vocab, top_m

PAIR_SEPARATOR = "∩"  # the set-intersection glyph used in debug dumps
DEFAULT_M = 5  # top terms kept per side


class PseudoTermVector:
    """Pairs ``(i, j)`` weighted ``sqrt(x_i * y_j)``, stored as the factors *x* and *y*.

    Pairs are enumerated on demand, lexicographically by pair.
    """

    __slots__ = ("x", "y", "vocab")

    def __init__(self, x: SparseVector, y: SparseVector):
        _require_same_vocab(x.vocab, y.vocab, "pseudo-term factors")
        _require_nonnegative(x.weights, "pseudo-term factor")
        _require_nonnegative(y.weights, "pseudo-term factor")
        # No pair weight exceeds sqrt(max(x) * max(y)), so one product bounds them all.
        if x.nnz and y.nnz and not math.isfinite(float(x.weights.max()) * float(y.weights.max())):
            raise NonFiniteError("a pseudo-term weight overflows to inf")
        self.x = x
        self.y = y
        self.vocab = x.vocab

    @property
    def nnz(self) -> int:
        return self.x.nnz * self.y.nnz

    def weight(self, i: int, j: int) -> float:
        return math.sqrt(self.x.get(i) * self.y.get(j))

    def entries(self) -> Iterator[tuple[tuple[int, int], float]]:
        for i, wi in self.x.entries():
            for j, wj in self.y.entries():
                yield (i, j), math.sqrt(wi * wj)

    def side_ids(self) -> tuple[list[int], list[int]]:
        """The term ids of the first and of the second factor, ascending."""
        return self.x.ids.tolist(), self.y.ids.tolist()

    def to_dict(self) -> dict[str, float]:
        """Debug rendering with ``termA∩termB`` keys."""
        return {
            f"{self.vocab.term(i)}{PAIR_SEPARATOR}{self.vocab.term(j)}": w
            for (i, j), w in self.entries()
        }

    def __len__(self) -> int:
        return self.nnz

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoTermVector):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __repr__(self) -> str:
        head = ", ".join(f"{k}:{w:g}" for k, w in list(self.to_dict().items())[:4])
        tail = ", ..." if self.nnz > 4 else ""
        return f"PseudoTermVector({head}{tail})"


def _require_nonnegative(weights: np.ndarray, label: str) -> None:
    if weights.size and float(weights.min()) < 0.0:
        raise CptDomainError(f"{label} carries negative weights; pseudo-terms need w >= 0")


def expand_query(a: SparseVector, b: SparseVector, m: int = DEFAULT_M) -> PseudoTermVector:
    """Outer product of the two truncated sides: pairs ``(i, j)``, ``sqrt(a_i b_j)``.

    Each atomic side is truncated to its top-*m* terms first, bounding the
    expansion at ``m**2`` pairs.
    """
    _require_nonnegative(a.weights, "query side A")
    _require_nonnegative(b.weights, "query side B")
    return PseudoTermVector(top_m(a, m), top_m(b, m))


def expand_doc(d: SparseVector) -> PseudoTermVector:
    """Pairs over the document's own support with weight ``sqrt(d_i d_j)``."""
    return PseudoTermVector(d, d)


def cpt_score(q: PseudoTermVector, d_exp: PseudoTermVector) -> float:
    """Inner product over matching pairs, accumulated in pair order."""
    _require_same_vocab(q.vocab, d_exp.vocab, "pseudo-term operands")
    total = 0.0
    for pair, qw in q.entries():
        dw = d_exp.weight(*pair)
        if dw != 0.0:
            total += qw * dw
    return total


def cpt_score_factorized(a_top: SparseVector, b_top: SparseVector, d: SparseVector) -> float:
    """Equivalent score without expanding the document.

    ``(sum_i sqrt(a_i d_i)) * (sum_j sqrt(b_j d_j))`` over shared supports;
    *a_top* and *b_top* are expected to be truncated already.
    """
    _require_same_vocab(a_top.vocab, d.vocab)
    _require_same_vocab(b_top.vocab, d.vocab)
    _require_nonnegative(a_top.weights, "query side A")
    _require_nonnegative(b_top.weights, "query side B")
    _require_nonnegative(d.weights, "document")
    return _sqrt_overlap(a_top, d) * _sqrt_overlap(b_top, d)


def _sqrt_overlap(q: SparseVector, d: SparseVector) -> float:
    """``sum_i sqrt(q_i * d_i)`` over shared ids, ascending."""
    if q.nnz == 0 or d.nnz == 0:
        return 0.0
    _, iq, id_ = np.intersect1d(q.ids, d.ids, assume_unique=True, return_indices=True)
    total = 0.0
    for wq, wd in zip(q.weights[iq], d.weights[id_]):
        total += math.sqrt(float(wq) * float(wd))
    return total
