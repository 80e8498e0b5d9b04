"""Score-fusion baselines over per-atomic-query runs.

Documents are ranked for the two atomic queries independently and the two
score maps are fused per document: ``plus`` for union, ``times`` for
intersection (a probabilistic AND: anything missing from either run scores
0), ``minus`` for negation.  The scaled variant min-max normalizes each run
to [0, 1] first.  A document absent from a run contributes score 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

FUSE_OPS = ("plus", "times", "minus")


@dataclass
class ScoredRun:
    """Per-query document scores, keyed by doc name."""

    qid: str
    scores: dict[str, float] = field(default_factory=dict)

    def ranking(self) -> list[tuple[str, float]]:
        """Docs sorted by descending score, ties broken by doc name."""
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))


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
    return {doc: (s - low) / span for doc, s in scores.items()}


def fuse(run_a: ScoredRun, run_b: ScoredRun, op: str, scaled: bool = False) -> ScoredRun:
    """Combine two atomic runs into one fused run over the union of their docs."""
    if op not in FUSE_OPS:
        raise ValueError(f"op must be one of {FUSE_OPS}")
    scores_a = run_a.scores
    scores_b = run_b.scores
    if scaled:
        scores_a = min_max_scale(scores_a, f"run A ({run_a.qid})")
        scores_b = min_max_scale(scores_b, f"run B ({run_b.qid})")
    fused: dict[str, float] = {}
    for doc in scores_a.keys() | scores_b.keys():
        sa = scores_a.get(doc, 0.0)
        sb = scores_b.get(doc, 0.0)
        if op == "plus":
            fused[doc] = sa + sb
        elif op == "minus":
            fused[doc] = sa - sb
        else:
            fused[doc] = sa * sb
    return ScoredRun(qid=run_a.qid, scores=fused)
