"""The array rules that ``sparse`` holds once: counts, top-m selection and row order.

Every count a caller passes (``k``, ``m``, ``candidate_pool``, ``n_bins``)
goes through one check that accepts ``int`` and numpy integers and rejects
``bool``, floats and strings with ``NAME must be a positive integer, got VALUE``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setvec import (
    CompositionalQuery,
    CompositionParams,
    Qrels,
    SparseVector,
    Vocabulary,
    build,
    expand_query,
    interference_bins,
    ndcg_at_k,
    recall_at_k,
    search,
    search_cpt,
    top_m,
)
from setvec.sparse import _not_increasing


@pytest.fixture
def corpus():
    vocab = Vocabulary()
    docs = [
        ("d1", SparseVector.from_pairs([("a", 1.0), ("b", 2.0)], vocab)),
        ("d2", SparseVector.from_pairs([("a", 3.0)], vocab)),
    ]
    q = SparseVector.from_pairs([("a", 1.0), ("b", 1.0)], vocab)
    return build(docs, vocab), q


@pytest.fixture
def qrels():
    qrels = Qrels()
    qrels.set("q1", "d1", 1)
    return qrels


def _counted(corpus, qrels):
    """``name -> call(value)`` for every function that takes a count."""
    idx, q = corpus
    diffs = [CompositionalQuery(qid=f"q{i}", operator="difference", method="subtract", a=q, b=q) for i in range(3)]
    return {
        "k": lambda k: search(idx, q, k),
        "candidate_pool": lambda pool: search_cpt(idx, expand_query(q, q), q, q, 2, pool),
        "m": lambda m: top_m(q, m),
        "recall k": lambda k: recall_at_k(["d1"], qrels, "q1", k),
        "ndcg k": lambda k: ndcg_at_k(["d1"], qrels, "q1", k),
        "n_bins": lambda n: interference_bins(diffs, lambda qid: 1.0, n_bins=n),
        "params m": lambda m: CompositionParams(m=m),
    }


@pytest.mark.parametrize("value", [0, -1, True, False, 2.5, 2.0, "5", None, np.float64(3.0)])
@pytest.mark.parametrize("name", ["k", "candidate_pool", "m", "recall k", "ndcg k", "n_bins", "params m"])
def test_counts_reject_everything_but_positive_integers(corpus, qrels, name, value):
    param = name.split()[-1]
    with pytest.raises(ValueError, match=re.escape(f"{param} must be a positive integer, got {value!r}")):
        _counted(corpus, qrels)[name](value)


@pytest.mark.parametrize("value", [1, 3, np.int64(2), np.uint8(1)])
@pytest.mark.parametrize("name", ["k", "candidate_pool", "m", "recall k", "ndcg k", "n_bins", "params m"])
def test_counts_accept_int_and_numpy_integers(corpus, qrels, name, value):
    _counted(corpus, qrels)[name](value)


def test_composition_params_stores_m_as_int():
    assert type(CompositionParams(m=np.uint8(1)).m) is int


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([-2.0, -0.5, 0.25, 1.0, 3.0]), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=14),
)
def test_top_m_equals_full_lexsort(weights, m):
    """Largest weights first, ties by ascending id; the kept entries stay in id order."""
    vocab = Vocabulary(f"t{i}" for i in range(len(weights)))
    vec = SparseVector(np.arange(len(weights)), weights, vocab)
    keep = np.sort(np.lexsort((vec.ids, -vec.weights))[:m])
    got = top_m(vec, m)
    assert got.ids.tolist() == vec.ids[keep].tolist()
    assert got.weights.tolist() == vec.weights[keep].tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=6), max_size=5), max_size=6))
def test_not_increasing_matches_a_per_row_scan(rows):
    ids = np.array([i for row in rows for i in row], dtype=np.uint32)
    offsets = np.cumsum([0] + [len(row) for row in rows])
    expected = []
    for row in rows:
        expected += [b <= a for a, b in zip(row, row[1:])]
        if row:
            expected.append(False)  # the pair that leaves the row
    assert _not_increasing(ids, offsets).tolist() == expected[:-1]
    assert _not_increasing(ids).tolist() == [b <= a for a, b in zip(ids.tolist(), ids.tolist()[1:])]
