"""Compositional query encoding: :data:`COMPOSITIONS` maps each (operator,
method) pair to its vector math, and :func:`compose` applies it.

    difference    subtract      sub(a, b): shared terms are penalized too
                  ignore        a: the negated part is dropped
                  disentangled, orthogonal, nrf: the functions below
    union         add           add(a, b): shared terms are counted twice
                  maxpool       maxpool(a, b): shared terms count once
    intersection  add, maxpool  as for union; an ablation label only
                  cpt           expand_query(a, b, m): a PseudoTermVector
                                over the top-m terms of each side
    atomic        atomic        a

:class:`CompositionParams` holds the two knobs: nrf's lambda, held to the
one rule of :func:`_checked_lambda` that ``difference_nrf`` applies too, and
cpt's top-m, whose default :data:`setvec.cpt.DEFAULT_M` is also
``expand_query``'s.

Inputs are never mutated, and an empty atomic vector is legal: it
propagates as an empty result.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .cpt import DEFAULT_M, PseudoTermVector, expand_query
from .sparse import SparseVector, _positive_int, add, mask_remove, maxpool, project, scale, sub

OP_DIFFERENCE = "difference"
OP_UNION = "union"
OP_INTERSECTION = "intersection"
OP_ATOMIC = "atomic"

DEFAULT_LAMBDA = 0.5


def _checked_lambda(lam: float) -> float:
    """nrf's lambda: a finite ``int`` or ``float`` >= 0, never a ``bool``."""
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 <= lam <= sys.float_info.max:
        raise ValueError(f"lambda must be a finite number >= 0, got {lam!r}")
    return lam


@dataclass(frozen=True)
class CompositionParams:
    """Knobs used by individual methods: nrf's lambda and cpt's top-m."""

    lambda_: float = DEFAULT_LAMBDA
    m: int = DEFAULT_M

    def __post_init__(self):
        object.__setattr__(self, "m", _positive_int(self.m, "m"))
        _checked_lambda(self.lambda_)


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
    return sub(a, scale(b, _checked_lambda(lambda_)))


# (operator, method) -> encoder.  The cpt entry looks expand_query up at call
# time, so replacing this module's name (as perfbench's tracer does) reaches it.
COMPOSITIONS = {
    (OP_DIFFERENCE, "subtract"): lambda q: sub(q.a, q.b),
    (OP_DIFFERENCE, "ignore"): lambda q: q.a,
    (OP_DIFFERENCE, "disentangled"): lambda q: difference_disentangled(q.a, q.b),
    (OP_DIFFERENCE, "orthogonal"): lambda q: difference_orthogonal(q.a, q.b),
    (OP_DIFFERENCE, "nrf"): lambda q: difference_nrf(q.a, q.b, q.params.lambda_),
    (OP_UNION, "add"): lambda q: add(q.a, q.b),
    (OP_UNION, "maxpool"): lambda q: maxpool(q.a, q.b),
    (OP_INTERSECTION, "add"): lambda q: add(q.a, q.b),
    (OP_INTERSECTION, "maxpool"): lambda q: maxpool(q.a, q.b),
    (OP_INTERSECTION, "cpt"): lambda q: expand_query(q.a, q.b, q.params.m),
    (OP_ATOMIC, "atomic"): lambda q: q.a,
}


def compose(q: CompositionalQuery) -> SparseVector | PseudoTermVector:
    """Apply the query's (operator, method) pair to its atomic vectors."""
    return COMPOSITIONS[q.operator, q.method](q)
