import math

import numpy as np
import pytest

from setvec import SparseVector, Vocabulary


@pytest.fixture
def vocab():
    return Vocabulary()


@pytest.fixture
def birds(vocab):
    """The two-country query pair used as a worked example throughout.

    A = (birds, fly, colombia, andes), B = (birds, fly, venezuela, andes),
    all weights 1.  A.B = 3, |A| = |B| = 2.
    """
    a = SparseVector.from_pairs(
        [("birds", 1.0), ("fly", 1.0), ("colombia", 1.0), ("andes", 1.0)], vocab
    )
    b = SparseVector.from_pairs(
        [("birds", 1.0), ("fly", 1.0), ("venezuela", 1.0), ("andes", 1.0)], vocab
    )
    return a, b


def random_vector(rng, vocab, max_nnz=50, low=-2.0, high=2.0, min_nnz=0):
    """Random canonical vector over *vocab* with uniform weights."""
    nnz = min(int(rng.integers(min_nnz, max_nnz + 1)), len(vocab))
    ids = rng.choice(len(vocab), size=nnz, replace=False)
    weights = rng.uniform(low, high, size=nnz)
    weights[weights == 0.0] = 1.0
    return SparseVector(ids, weights, vocab)


def random_lattice_vector(rng, vocab, max_nnz=20, min_nnz=0, lo=1, hi=256):
    """Random vector with weights k/64, k integer: float arithmetic on these
    (sums/differences of pairwise products) is exact, so tests can assert
    exact score identities."""
    nnz = min(int(rng.integers(min_nnz, max_nnz + 1)), len(vocab))
    ids = rng.choice(len(vocab), size=nnz, replace=False)
    weights = rng.integers(lo, hi, size=nnz).astype(np.float64) / 64.0
    return SparseVector(ids, weights, vocab)


def brute_force(doc_dicts, names, query_dict, k):
    """Independent top-k oracle over ``{term: weight}`` dicts: each touched doc
    accumulates its shared terms in ascending term order, untouched docs are
    never returned, and ties break by doc id."""
    scored = []
    for doc_id, dd in enumerate(doc_dicts):
        shared = sorted(query_dict.keys() & dd.keys())
        if not shared:
            continue
        s = 0.0
        for t in shared:
            s += query_dict[t] * dd[t]
        scored.append((doc_id, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(names[doc_id], s) for doc_id, s in scored[:k]]


def pair_score(q, d):
    """The paper's CPT score written out pair by pair: ``sum qw * sqrt(d_i * d_j)``
    over the pseudo-term query *q*'s pairs ``((i, j), qw)``, accumulated in pair order."""
    total = 0.0
    for (i, j), qw in q.entries():
        total += qw * math.sqrt(d.get(i) * d.get(j))
    return total


def factorized_score(a_top, b_top, d):
    """The same score from its two factors, ``sum_i sqrt(a_i d_i) * sum_j sqrt(b_j d_j)``;
    each factor adds its shared ids in ascending order, as ``search_cpt``'s stage 2 does."""

    def factor(side):
        _, iq, id_ = np.intersect1d(side.ids, d.ids, assume_unique=True, return_indices=True)
        total = 0.0
        for wq, wd in zip(side.weights[iq].tolist(), d.weights[id_].tolist()):
            total += math.sqrt(wq * wd)
        return total

    return factor(a_top) * factor(b_top)
