"""Compositional query encoding: dispatch a set operator and method to vector ops.

Supported (operator, method) pairs:

    difference    subtract | ignore | disentangled | orthogonal | nrf
    union         add | maxpool
    intersection  add | maxpool | cpt
    atomic        atomic

``cpt`` is the only method producing a :class:`PseudoTermVector`; everything
else returns a plain :class:`SparseVector`.  Inputs are never mutated, and an
empty atomic vector is legal: it propagates as an empty result.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .cpt import PseudoTermVector, expand_query
from .sparse import SparseVector, _positive_int, add, mask_remove, maxpool, project, scale, sub

OP_DIFFERENCE = "difference"
OP_UNION = "union"
OP_INTERSECTION = "intersection"
OP_ATOMIC = "atomic"

DEFAULT_LAMBDA = 0.5
DEFAULT_M = 5


@dataclass(frozen=True)
class CompositionParams:
    """Knobs used by individual methods: nrf's lambda and cpt's top-m."""

    lambda_: float = DEFAULT_LAMBDA
    m: int = DEFAULT_M

    def __post_init__(self):
        object.__setattr__(self, "m", _positive_int(self.m, "m"))
        lam = self.lambda_
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 <= lam <= sys.float_info.max:
            raise ValueError(f"lambda must be a finite number >= 0, got {lam!r}")


@dataclass(frozen=True)
class CompositionalQuery:
    qid: str
    operator: str
    method: str
    a: SparseVector
    b: SparseVector | None = None
    params: CompositionParams = field(default_factory=CompositionParams)

    def __post_init__(self):
        if (self.operator, self.method) not in COMPOSITIONS:
            raise ValueError(
                f"method {self.method!r} is not valid for operator {self.operator!r}"
            )
        if self.operator == OP_ATOMIC:
            if self.b is not None:
                raise ValueError("atomic queries must not carry a second vector")
        elif self.b is None:
            raise ValueError(f"operator {self.operator!r} requires a second vector")


def difference_subtract(a: SparseVector, b: SparseVector) -> SparseVector:
    """Plain subtraction ``a - b``; penalizes shared terms along with negated ones."""
    return sub(a, b)


def difference_ignore(a: SparseVector, b: SparseVector) -> SparseVector:
    """Drop the negated part entirely."""
    return a


def difference_disentangled(a: SparseVector, b: SparseVector) -> SparseVector:
    """``a - b*`` where ``b*`` is *b* with a's dimensions masked out.

    Keeps every weight of *a* untouched and penalizes only terms that appear
    exclusively in *b*.
    """
    return sub(a, mask_remove(b, a))


def difference_orthogonal(a: SparseVector, b: SparseVector) -> SparseVector:
    """Remove a's component along *b*: ``a - (a.b / |b|^2) b``."""
    return sub(a, project(a, b))


def difference_nrf(a: SparseVector, b: SparseVector, lambda_: float = DEFAULT_LAMBDA) -> SparseVector:
    """Negative relevance feedback ``a - lambda * b`` (Rocchio-style)."""
    if lambda_ < 0.0:
        raise ValueError("nrf lambda must be nonnegative")
    return sub(a, scale(b, lambda_))


def union_add(a: SparseVector, b: SparseVector) -> SparseVector:
    """Union by addition; shared terms are counted twice."""
    return add(a, b)


def union_maxpool(a: SparseVector, b: SparseVector) -> SparseVector:
    """Union by elementwise max, avoiding double-counted shared terms."""
    return maxpool(a, b)


def intersection_add(a: SparseVector, b: SparseVector) -> SparseVector:
    """Addition used as an intersection surrogate (ablation labeling only)."""
    return add(a, b)


def intersection_maxpool(a: SparseVector, b: SparseVector) -> SparseVector:
    return maxpool(a, b)


def intersection_cpt(a: SparseVector, b: SparseVector, m: int = DEFAULT_M) -> PseudoTermVector:
    """Pseudo-term outer product of the truncated sides."""
    return expand_query(a, b, m)


# (operator, method) -> encoder.  The lambdas look the wrappers (and through
# them expand_query and maxpool) up at call time, so tracing can replace them.
COMPOSITIONS = {
    (OP_DIFFERENCE, "subtract"): lambda q: difference_subtract(q.a, q.b),
    (OP_DIFFERENCE, "ignore"): lambda q: difference_ignore(q.a, q.b),
    (OP_DIFFERENCE, "disentangled"): lambda q: difference_disentangled(q.a, q.b),
    (OP_DIFFERENCE, "orthogonal"): lambda q: difference_orthogonal(q.a, q.b),
    (OP_DIFFERENCE, "nrf"): lambda q: difference_nrf(q.a, q.b, q.params.lambda_),
    (OP_UNION, "add"): lambda q: union_add(q.a, q.b),
    (OP_UNION, "maxpool"): lambda q: union_maxpool(q.a, q.b),
    (OP_INTERSECTION, "add"): lambda q: intersection_add(q.a, q.b),
    (OP_INTERSECTION, "maxpool"): lambda q: intersection_maxpool(q.a, q.b),
    (OP_INTERSECTION, "cpt"): lambda q: intersection_cpt(q.a, q.b, q.params.m),
    (OP_ATOMIC, "atomic"): lambda q: q.a,
}


def compose(q: CompositionalQuery) -> SparseVector | PseudoTermVector:
    """Apply the query's (operator, method) pair to its atomic vectors."""
    return COMPOSITIONS[q.operator, q.method](q)
