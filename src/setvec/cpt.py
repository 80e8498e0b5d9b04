"""Combined pseudo-terms: quadratic term-pair expansions for intersections.

An intersection query over atomic vectors A and B is expanded into weighted
term *pairs* ``(i, j)`` with weight ``sqrt(a_i * b_j)``; a document's pairs
over its own support weigh ``sqrt(d_i * d_j)``.  The score is the inner
product over matching pairs, which factorizes:

    sum_ij sqrt(a_i b_j) sqrt(d_i d_j) = (sum_i sqrt(a_i d_i)) (sum_j sqrt(b_j d_j))

so an expansion is stored as its two factors, the truncated sides, and its
pairs are enumerated only for the ``compose`` dump.  The library scores CPT
in one place, :func:`setvec.index.search_cpt`, which accumulates each factor
through the index's one scoring loop, head rows included, and never
materializes a pair; the pair-by-pair formula lives on as the test oracle
``pair_score`` in ``tests/conftest.py``.  A document
scores above zero only when it overlaps *both* truncated sides.  Each side
keeps its top :data:`DEFAULT_M` terms unless told otherwise.  All weights
must be nonnegative (sqrt domain): :func:`_require_nonnegative` raises
:class:`CptDomainError` for query sides, factors and postings alike rather
than clamping, since negative input signals a misconfigured encoder.
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
