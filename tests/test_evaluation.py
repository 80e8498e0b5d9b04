import math

import numpy as np
import pytest

from setvec import (
    CompositionalQuery,
    PairedQueries,
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
    return {"q1": {"d1": 1, "d2": 1}}


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
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k(["d1"], {"q1": {"d1": 0}}, "q1", 3)

    def test_unjudged_query_rejected(self, simple_qrels):
        with pytest.raises(UndefinedMetricError, match="'q2' has no positively judged documents"):
            ndcg_at_k(["d1"], simple_qrels, "q2", 3)

    def test_graded_gains(self):
        value = ndcg_at_k(["ok", "good"], {"q": {"good": 3, "ok": 1}}, "q", 2)
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

    def test_counts_exactly_the_top_k(self, simple_qrels):
        ranking = ["d1", "d9", "d2"]
        assert [recall_at_k(ranking, simple_qrels, "q1", k) for k in (1, 2, 3)] == [0.5, 0.5, 1.0]

    def test_nondecreasing_in_k(self, simple_qrels):
        ranking = ["d9", "d1", "d8", "d2", "d7"]
        values = [recall_at_k(ranking, simple_qrels, "q1", k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestPairwiseAccuracy:
    def test_perfect_scorer(self):
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        run = {"qa": {"da": 2.0, "db": 1.0}, "qb": {"db": 2.0, "da": 1.0}}
        assert pairwise_accuracy(pairs, run) == 1.0

    def test_one_sided_pair_contributes_zero(self):
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        run = {"qa": {"da": 2.0, "db": 1.0}, "qb": {"db": 1.0, "da": 2.0}}
        assert pairwise_accuracy(pairs, run) == 0.0

    def test_tie_counts_as_failure(self):
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        run = {"qa": {"da": 1.0, "db": 1.0}, "qb": {"da": 1.0, "db": 1.0}}
        assert pairwise_accuracy(pairs, run) == 0.0

    @pytest.mark.parametrize("tied", ["qa", "qb"])
    def test_tie_on_one_side_fails_the_pair(self, tied):
        """One query tying its two docs fails the pair, though the other ranks its own first."""
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        run = {"qa": {"da": 2.0, "db": 1.0}, "qb": {"db": 2.0, "da": 1.0}}
        run[tied] = {"da": 1.0, "db": 1.0}
        assert pairwise_accuracy(pairs, run) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pairwise_accuracy([], {})

    @pytest.mark.parametrize("missing", [("qa", "da"), ("qa", "db"), ("qb", "db"), ("qb", "da")])
    def test_missing_score_is_undefined(self, missing):
        """Any of a pair's four scores missing from the run is an error naming it, not a score of 0."""
        pairs = [PairedQueries("qa", "qb", "da", "db")]
        run = {"qa": {"da": 2.0, "db": 1.0}, "qb": {"db": 2.0, "da": 1.0}}
        del run[missing[0]][missing[1]]
        with pytest.raises(UndefinedMetricError, match=rf"^no score for \({missing[0]!r}, {missing[1]!r}\)$"):
            pairwise_accuracy(pairs, run)

    def test_negated_scorer_complement(self):
        # With tie-free scores, negating the scorer flips both comparisons,
        # so acc(s) + acc(-s) equals the fraction of pairs whose two
        # comparisons agree.
        rng = np.random.default_rng(127)
        pairs = [PairedQueries(f"a{i}", f"b{i}", f"da{i}", f"db{i}") for i in range(500)]
        run = {q: {d: float(rng.random()) for d in (p.doc_a, p.doc_b)} for p in pairs for q in (p.qid_a, p.qid_b)}
        negated = {q: {d: -s for d, s in scores.items()} for q, scores in run.items()}
        agree = 0
        for p in pairs:
            first = run[p.qid_a][p.doc_a] > run[p.qid_a][p.doc_b]
            second = run[p.qid_b][p.doc_b] > run[p.qid_b][p.doc_a]
            agree += first == second
        total = pairwise_accuracy(pairs, run) + pairwise_accuracy(pairs, negated)
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
        bins = interference_bins(queries, dict.fromkeys((q.qid for q in queries), 1.0), n_bins=2)
        assert len(bins) == 1
        assert bins[0].count == 4
        assert bins[0].low == bins[0].high == 1.0

    def test_four_queries_two_bins_split_by_similarity(self, vocab):
        # cosines: q3 -> 0, q2 -> ~0.316, q1 -> ~0.707, q0 -> 1; the ids run
        # against the similarities, so bins ordered by id would swap the means.
        specs = [
            ([("a", 1.0)], [("b", 1.0)]),
            ([("a", 3.0), ("c", 1.0)], [("c", 1.0)]),
            ([("a", 1.0), ("d", 1.0)], [("d", 1.0)]),
            ([("e", 1.0)], [("e", 2.0)]),
        ]
        queries = [
            _diff_query(f"q{3 - i}", a, b, vocab) for i, (a, b) in enumerate(specs)
        ]
        metric = {f"q{3 - i}": float(i) for i in range(4)}
        bins = interference_bins(queries, metric, n_bins=2)
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
        bins = interference_bins(queries, {"hot": 1.0, "cold1": 0.0, "cold2": 0.0}, n_bins=3)
        assert bins[-1].low == pytest.approx(0.75)
        assert bins[-1].mean_metric == 1.0

    def test_fewer_queries_than_bins_warns(self, vocab):
        queries = [_diff_query("q0", [("a", 1.0)], [("b", 1.0)], vocab)]
        with pytest.warns(UserWarning, match="bins"):
            bins = interference_bins(queries, {"q0": 0.5}, n_bins=4)
        assert len(bins) == 1

    def test_rejects_non_difference_queries(self, birds):
        a, b = birds
        union_query = CompositionalQuery(
            qid="u", operator="union", method="add", a=a, b=b
        )
        with pytest.raises(ValueError):
            interference_bins([union_query], {"u": 0.0}, n_bins=2)

    def test_zero_norm_side_names_the_query(self, vocab):
        queries = [
            _diff_query("q0", [("a", 1.0)], [("b", 1.0)], vocab),
            _diff_query("q1", [("a", 1.0)], [], vocab),
        ]
        with pytest.raises(ZeroNormError, match=r"^query 'q1': cosine undefined for zero-norm vectors$"):
            interference_bins(queries, {"q0": 0.5, "q1": 0.5}, n_bins=2)

    def test_missing_metric_is_undefined(self, vocab):
        """A query absent from the metric map is an error naming it, not a metric of 0."""
        queries = [
            _diff_query("q0", [("a", 1.0)], [("b", 1.0)], vocab),
            _diff_query("q1", [("a", 1.0)], [("a", 1.0)], vocab),
        ]
        with pytest.raises(UndefinedMetricError, match=r"^no per-query metric for 'q1'$"):
            interference_bins(queries, {"q0": 0.5}, n_bins=2)
