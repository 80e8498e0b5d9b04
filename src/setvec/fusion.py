"""Score-fusion baselines over per-atomic-query runs.

Documents are ranked for the two atomic queries independently and the two
``{doc: score}`` maps are fused per document: ``plus`` for union, ``times``
for intersection (a probabilistic AND: anything missing from either run
scores 0), ``minus`` for negation.  A document absent from a run contributes
score 0.  :func:`fuse` returns its hits ranked as :func:`~setvec.index.search`
returns them; the scaled variant applies :func:`min_max_scale` to each map
first.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Mapping

from .errors import NonFiniteError
from .index import SearchResult

_OPS = {"plus": operator.add, "times": operator.mul, "minus": operator.sub}
FUSE_OPS = tuple(_OPS)


def min_max_scale(scores: dict[str, float], label: str = "run") -> dict[str, float]:
    """Map scores onto [0, 1]; a constant run collapses to all zeros (warned)."""
    if not scores:
        return {}
    low = min(scores.values())
    high = max(scores.values())
    if high == low:
        warnings.warn(
            f"degenerate min-max scaling for {label}: all {len(scores)} scores equal; "
            "mapping to 0",
            stacklevel=2,
        )
        return {doc: 0.0 for doc in scores}
    span = high - low
    if not math.isfinite(span):
        # Finite scores more than the largest float apart: their halves are not.
        half = high / 2 - low / 2
        return {doc: (s / 2 - low / 2) / half for doc, s in scores.items()}
    return {doc: (s - low) / span for doc, s in scores.items()}


def fuse(scores_a: Mapping[str, float], scores_b: Mapping[str, float], op: str) -> SearchResult:
    """Fuse two runs over the union of their docs: best first, ties broken by doc name.

    A fused score that overflows to inf or nan raises :class:`NonFiniteError`, as
    a search score does.
    """
    if op not in _OPS:
        raise ValueError(f"op must be one of {FUSE_OPS}")
    combine = _OPS[op]
    fused = {
        doc: combine(scores_a.get(doc, 0.0), scores_b.get(doc, 0.0)) for doc in scores_a.keys() | scores_b.keys()
    }
    if not all(map(math.isfinite, fused.values())):
        raise NonFiniteError("a fused score overflows to inf or nan")
    return sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
