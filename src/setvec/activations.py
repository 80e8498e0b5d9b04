"""Activation math that turns raw logit grids into sparse term vectors.

Two families are implemented:

* the classic positive activation ``w_j = max_i log(1 + ReLU(out_ij))``
  with max pooling over input positions;
* a signed, symmetrical-odd variant ("SNReLU") that keeps the log-saturation
  shape, opens a ``[-eps, +eps]`` dead zone for sparsity, and can emit
  negative term weights.  Positive and negative halves are pooled per term
  and combined either by picking the side with the larger magnitude
  (``absmax``) or by summing the two extremes (``sum``).

The negative half exists in two spellings.  ``corrected``
(``-log(1 + ReLU(-x - eps))``) keeps the dead zone and odd symmetry;
``literal`` (``-log(1 + ReLU(-x + eps))``) fires inside ``(-eps, eps)`` and
is kept selectable for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseVector, Vocabulary, _not_increasing, _term_ids

NEG_CORRECTED = "corrected"
NEG_LITERAL = "literal"
NEG_FORMULAS = (NEG_CORRECTED, NEG_LITERAL)

AGG_SPLADE_MAX = "splade_max"
AGG_ABSMAX = "absmax"
AGG_SUM = "sum"
AGGREGATIONS = (AGG_SPLADE_MAX, AGG_ABSMAX, AGG_SUM)


class LogitMatrix:
    """Raw per-position, per-term activation inputs.

    Rows are input positions (at least one), columns are vocabulary term ids
    in strictly increasing order.  Terms without a column are implicitly zero
    and can never survive an activation.
    """

    __slots__ = ("values", "term_ids", "vocab")

    def __init__(self, values, term_ids, vocab: Vocabulary):
        values = np.asarray(values, dtype=np.float64)
        term_ids = _term_ids(term_ids, vocab)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("logit matrix must be 2-d with at least one row")
        if not np.all(np.isfinite(values)):
            raise ValueError("logit values must be finite")
        if term_ids.ndim != 1 or term_ids.size != values.shape[1]:
            raise ValueError("one term id per column is required")
        if _not_increasing(term_ids).any():
            raise ValueError("column term ids must be strictly increasing")
        self.values = values
        self.term_ids = term_ids
        self.vocab = vocab

    @classmethod
    def from_terms(cls, values, terms: list[str], vocab: Vocabulary) -> "LogitMatrix":
        """Build from per-column term strings, reordering columns by term id."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(terms):
            raise ValueError("values must have one column per term")
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate column terms")
        ids = np.asarray([vocab.add(t) for t in terms], dtype=np.uint32)
        order = np.argsort(ids)
        return cls(values[:, order], ids[order], vocab)


@dataclass(frozen=True)
class ActivationConfig:
    epsilon: float = 0.25
    neg_formula: str = NEG_CORRECTED
    aggregation: str = AGG_SPLADE_MAX

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError("epsilon must be a finite nonnegative real")
        if self.neg_formula not in NEG_FORMULAS:
            raise ValueError(f"neg_formula must be one of {NEG_FORMULAS}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


def splade_activate(m: LogitMatrix) -> SparseVector:
    """Positive log-saturated activation, max-pooled over positions."""
    pooled = np.log1p(np.maximum(m.values, 0.0)).max(axis=0)
    return SparseVector(m.term_ids, pooled, m.vocab)


def snrelu_pos(x, epsilon: float):
    """Positive half: ``log(1 + ReLU(x - eps))``.  Accepts scalars or arrays."""
    return np.log1p(np.maximum(np.asarray(x, dtype=np.float64) - epsilon, 0.0))


def snrelu_neg(x, epsilon: float, formula: str = NEG_CORRECTED):
    """Negative half; ``corrected`` keeps the dead zone, ``literal`` does not."""
    x = np.asarray(x, dtype=np.float64)
    if formula == NEG_CORRECTED:
        return -np.log1p(np.maximum(-x - epsilon, 0.0))
    if formula == NEG_LITERAL:
        return -np.log1p(np.maximum(-x + epsilon, 0.0))
    raise ValueError(f"neg_formula must be one of {NEG_FORMULAS}")


def snrelu_activate(m: LogitMatrix, cfg: ActivationConfig) -> SparseVector:
    """Signed activation with per-term pooling of both halves.

    ``absmax``: keep the pooled positive value unless the pooled negative
    value has strictly larger magnitude.  ``sum``: add the pooled extremes.
    """
    if cfg.aggregation not in (AGG_ABSMAX, AGG_SUM):
        raise ValueError("snrelu_activate requires absmax or sum aggregation")
    pos = snrelu_pos(m.values, cfg.epsilon).max(axis=0)
    neg = snrelu_neg(m.values, cfg.epsilon, cfg.neg_formula).min(axis=0)
    if cfg.aggregation == AGG_ABSMAX:
        weights = np.where(pos >= -neg, pos, neg)
    else:
        weights = pos + neg
    return SparseVector(m.term_ids, weights, m.vocab)


def activate(m: LogitMatrix, cfg: ActivationConfig) -> SparseVector:
    """Dispatch on ``cfg.aggregation`` (``splade_max`` vs the signed variants)."""
    if cfg.aggregation == AGG_SPLADE_MAX:
        return splade_activate(m)
    return snrelu_activate(m, cfg)
