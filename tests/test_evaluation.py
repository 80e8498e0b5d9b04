import math
import re

import numpy as np
import pytest

from setvec import (
    CompositionalQuery,
    PairedQueries,
    Qrels,
    SparseVector,
    UndefinedMetricError,
    Vocabulary,
    ZeroNormError,
    interference_bins,
    ndcg_at_k,
    pairwise_accuracy,
    recall_at_k,
)


@pytest.fixture
def simple_qrels():
    qrels = Qrels()
    qrels.set("q1", "d1", 1)
    qrels.set("q1", "d2", 1)
    return qrels


class TestQrels:
    @pytest.mark.parametrize("grade", [0, 3, np.int64(2), np.uint8(1)])
    def test_integer_grades_are_stored_as_int(self, grade):
        qrels = Qrels()
        qrels.set("q", "d", grade)
        assert qrels.grade("q", "d") == grade and type(qrels.grade("q", "d")) is int

    @pytest.mark.parametrize("grade", [2.7, 1.0, True, False, -1, np.int8(-1), "1", None])
    def test_other_grades_are_refused_by_value(self, grade):
        qrels = Qrels()
        with pytest.raises(ValueError, match=re.escape(f"got {grade!r}")):
            qrels.set("q", "d", grade)
        assert len(qrels) == 0


class TestNdcg:
    def test_worked_fixture(self, simple_qrels):
        # DCG = 1 + 0 + 1/log2(4) = 1.5; IDCG = 1 + 1/log2(3)
        value = ndcg_at_k(["d1", "d3", "d2"], simple_qrels, "q1", 3)
        expected = 1.5 / (1.0 + 1.0 / math.log2(3.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.9197, abs=1e-4)

    def test_perfect_ranking(self, simple_qrels):
        assert ndcg_at_k(["d1", "d2", "d3"], simple_qrels, "q1", 3) == 1.0

    def test_no_relevant_in_top_k(self, simple_qrels):
        assert ndcg_at_k(["d3", "d4"], simple_qrels, "q1", 2) == 0.0

    def test_no_positive_judgments_rejected(self):
        qrels = Qrels()
        qrels.set("q1", "d1", 0)
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k(["d1"], qrels, "q1", 3)

    def test_graded_gains(self):
        qrels = Qrels()
        qrels.set("q", "good", 3)
        qrels.set("q", "ok", 1)
        value = ndcg_at_k(["ok", "good"], qrels, "q", 2)
        expected = (1.0 + 3.0 / math.log2(3.0)) / (3.0 + 1.0 / math.log2(3.0))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_one(self, simple_qrels):
        rng = np.random.default_rng(113)
        docs = [f"d{i}" for i in range(1, 8)]
        for _ in range(100):
            ranking = list(rng.permutation(docs))
            v = ndcg_at_k(ranking, simple_qrels, "q1", int(rng.integers(1, 8)))
            assert 0.0 <= v <= 1.0


class TestRecall:
    def test_half_found(self, simple_qrels):
        assert recall_at_k(["d1", "d9"], simple_qrels, "q1", 2) == 0.5

    def test_all_found(self, simple_qrels):
        assert recall_at_k(["d2", "d1"], simple_qrels, "q1", 2) == 1.0

    def test_k_zero_rejected(self, simple_qrels):
        with pytest.raises(ValueError):
            recall_at_k(["d1"], simple_qrels, "q1", 0)

    def test_nondecreasing_in_k(self, simple_qrels):
        ranking = ["d9", "d1", "d8", "d2", "d7"]
        values = [recall_at_k(ranking, simple_qrels, "q1", k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestPairwiseAccuracy:
    def test_perfect_scorer(self):
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        scores = {("qa", "da"): 2.0, ("qa", "db"): 1.0, ("qb", "db"): 2.0, ("qb", "da"): 1.0}
        assert pairwise_accuracy(pairs, lambda q, d: scores[(q, d)]) == 1.0

    def test_one_sided_pair_contributes_zero(self):
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        scores = {("qa", "da"): 2.0, ("qa", "db"): 1.0, ("qb", "db"): 1.0, ("qb", "da"): 2.0}
        assert pairwise_accuracy(pairs, lambda q, d: scores[(q, d)]) == 0.0

    def test_tie_counts_as_failure(self):
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        assert pairwise_accuracy(pairs, lambda q, d: 1.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pairwise_accuracy([], lambda q, d: 0.0)

    def test_negated_scorer_complement(self):
        # With tie-free scores, negating the scorer flips both comparisons,
        # so acc(s) + acc(-s) equals the fraction of pairs whose two
        # comparisons agree.
        rng = np.random.default_rng(127)
        pairs = [PairedQueries(f"a{i}", f"b{i}", f"da{i}", f"db{i}") for i in range(500)]
        scores = {}
        for p in pairs:
            for q in (p.qid_a, p.qid_b):
                for d in (p.doc_a, p.doc_b):
                    scores[(q, d)] = float(rng.random())
        scorer = lambda q, d: scores[(q, d)]
        neg_scorer = lambda q, d: -scores[(q, d)]
        agree = 0
        for p in pairs:
            first = scorer(p.qid_a, p.doc_a) > scorer(p.qid_a, p.doc_b)
            second = scorer(p.qid_b, p.doc_b) > scorer(p.qid_b, p.doc_a)
            agree += first == second
        total = pairwise_accuracy(pairs, scorer) + pairwise_accuracy(pairs, neg_scorer)
        assert total == pytest.approx(agree / len(pairs), abs=1e-12)


def _diff_query(qid, a_pairs, b_pairs, vocab):
    return CompositionalQuery(
        qid=qid,
        operator="difference",
        method="subtract",
        a=SparseVector.from_pairs(a_pairs, vocab),
        b=SparseVector.from_pairs(b_pairs, vocab),
    )


class TestInterferenceBins:
    def test_identical_similarities_collapse_to_one_bin(self, vocab):
        queries = [
            _diff_query(f"q{i}", [("a", 1.0)], [("a", 1.0)], vocab) for i in range(4)
        ]
        bins = interference_bins(queries, lambda qid: 1.0, n_bins=2)
        assert len(bins) == 1
        assert bins[0].count == 4
        assert bins[0].low == bins[0].high == 1.0

    def test_four_queries_two_bins_split_by_similarity(self, vocab):
        # cosines: q0 -> 0, q1 -> ~0.316, q2 -> ~0.707, q3 -> 1
        specs = [
            ([("a", 1.0)], [("b", 1.0)]),
            ([("a", 3.0), ("c", 1.0)], [("c", 1.0)]),
            ([("a", 1.0), ("d", 1.0)], [("d", 1.0)]),
            ([("e", 1.0)], [("e", 2.0)]),
        ]
        queries = [
            _diff_query(f"q{i}", a, b, vocab) for i, (a, b) in enumerate(specs)
        ]
        metric = {f"q{i}": float(i) for i in range(4)}
        bins = interference_bins(queries, lambda qid: metric[qid], n_bins=2)
        assert len(bins) == 2
        assert [b.count for b in bins] == [2, 2]
        assert bins[0].mean_metric == pytest.approx((0.0 + 1.0) / 2)
        assert bins[1].mean_metric == pytest.approx((2.0 + 3.0) / 2)
        assert bins[0].high <= bins[1].low

    def test_high_overlap_query_lands_in_top_bin(self, birds):
        a, b = birds
        vocab = a.vocab
        queries = [
            CompositionalQuery(qid="hot", operator="difference", method="subtract", a=a, b=b),
            _diff_query("cold1", [("x", 1.0)], [("y", 1.0)], vocab),
            _diff_query("cold2", [("x", 9.0), ("z", 1.0)], [("z", 1.0)], vocab),
        ]
        bins = interference_bins(queries, lambda qid: {"hot": 1.0, "cold1": 0.0, "cold2": 0.0}[qid], n_bins=3)
        assert bins[-1].low == pytest.approx(0.75)
        assert bins[-1].mean_metric == 1.0

    def test_fewer_queries_than_bins_warns(self, vocab):
        queries = [_diff_query("q0", [("a", 1.0)], [("b", 1.0)], vocab)]
        with pytest.warns(UserWarning, match="bins"):
            bins = interference_bins(queries, lambda qid: 0.5, n_bins=4)
        assert len(bins) == 1

    def test_rejects_non_difference_queries(self, birds):
        a, b = birds
        union_query = CompositionalQuery(
            qid="u", operator="union", method="add", a=a, b=b
        )
        with pytest.raises(ValueError):
            interference_bins([union_query], lambda qid: 0.0, n_bins=2)

    def test_zero_norm_side_names_the_query(self, vocab):
        queries = [
            _diff_query("q0", [("a", 1.0)], [("b", 1.0)], vocab),
            _diff_query("q1", [("a", 1.0)], [], vocab),
        ]
        with pytest.raises(ZeroNormError, match=r"^query 'q1': cosine undefined for zero-norm vectors$"):
            interference_bins(queries, lambda qid: 0.5, n_bins=2)
