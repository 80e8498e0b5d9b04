import inspect
import math

import numpy as np
import pytest

from setvec import (
    CompositionParams,
    CptDomainError,
    NonFiniteError,
    PseudoTermVector,
    SparseVector,
    Vocabulary,
    VocabularyMismatchError,
    expand_query,
    top_m,
)
from setvec import cpt

from conftest import factorized_score, pair_score, random_vector


class TestExpandQuery:
    def test_two_by_two_binary(self, vocab):
        a = SparseVector.from_pairs([("colombia", 1.0), ("birds", 1.0)], vocab)
        b = SparseVector.from_pairs([("venezuela", 1.0), ("birds", 1.0)], vocab)
        out = expand_query(a, b, m=2)
        assert out.nnz == 4
        assert set(out.to_dict().values()) == {1.0}

    def test_sqrt_of_product(self, vocab):
        a = SparseVector.from_pairs([("x", 4.0)], vocab)
        b = SparseVector.from_pairs([("y", 9.0)], vocab)
        out = expand_query(a, b)
        assert out.to_dict() == {"x∩y": 6.0}

    def test_empty_side_gives_empty_expansion(self, vocab):
        a = SparseVector.empty(vocab)
        b = SparseVector.from_pairs([("y", 1.0)], vocab)
        assert expand_query(a, b).nnz == 0

    def test_truncates_each_side_to_m(self, vocab):
        a = SparseVector.from_pairs([(f"a{i}", float(i + 1)) for i in range(8)], vocab)
        b = SparseVector.from_pairs([(f"b{i}", float(i + 1)) for i in range(8)], vocab)
        out = expand_query(a, b, m=3)
        assert out.nnz == 9

    def test_rejects_negative_weights(self, vocab):
        a = SparseVector.from_pairs([("x", -1.0)], vocab)
        b = SparseVector.from_pairs([("y", 1.0)], vocab)
        with pytest.raises(CptDomainError):
            expand_query(a, b)

    def test_default_m_is_the_composition_default(self):
        """Library callers of expand_query and of CompositionParams truncate to the same m."""
        default = inspect.signature(expand_query).parameters["m"].default
        assert default == cpt.DEFAULT_M == CompositionParams().m


class TestExpandDoc:
    """A document's own pairs, ``sqrt(d_i * d_j)``, are the expansion with *d* as both factors."""

    def test_support_squared(self, vocab):
        d = SparseVector.from_pairs(
            [("birds", 1.0), ("colombia", 1.0), ("venezuela", 1.0)], vocab
        )
        out = PseudoTermVector(d, d)
        assert out.nnz == 9
        assert set(out.to_dict().values()) == {1.0}

    def test_diagonal_weight_equals_entry(self, vocab):
        d = SparseVector.from_pairs([("a", 2.0), ("b", 0.5)], vocab)
        pairs = dict(PseudoTermVector(d, d).entries())
        ia, ib = vocab.get("a"), vocab.get("b")
        assert pairs[ia, ia] == 2.0
        assert pairs[ib, ib] == 0.5

    def test_symmetry_exact(self, vocab):
        rng = np.random.default_rng(73)
        v = Vocabulary(f"t{i}" for i in range(30))
        for _ in range(20):
            d = random_vector(rng, v, max_nnz=10, low=0.05, high=3.0)
            pairs = dict(PseudoTermVector(d, d).entries())
            for (i, j), w in pairs.items():
                assert pairs[j, i] == w

    def test_rejects_negative_weights(self, vocab):
        d = SparseVector.from_pairs([("a", -0.5)], vocab)
        with pytest.raises(CptDomainError):
            PseudoTermVector(d, d)


class TestScores:
    def test_full_match(self, vocab):
        a = SparseVector.from_pairs([("colombia", 1.0), ("birds", 1.0)], vocab)
        b = SparseVector.from_pairs([("venezuela", 1.0), ("birds", 1.0)], vocab)
        d = SparseVector.from_pairs(
            [("birds", 1.0), ("colombia", 1.0), ("venezuela", 1.0)], vocab
        )
        q = expand_query(a, b, m=2)
        assert pair_score(q, d) == 4.0
        assert factorized_score(top_m(a, 2), top_m(b, 2), d) == 4.0

    def test_single_shared_term(self, vocab):
        a = SparseVector.from_pairs([("colombia", 1.0), ("birds", 1.0)], vocab)
        b = SparseVector.from_pairs([("venezuela", 1.0), ("birds", 1.0)], vocab)
        d = SparseVector.from_pairs([("birds", 1.0)], vocab)
        q = expand_query(a, b, m=2)
        assert pair_score(q, d) == 1.0

    def test_one_sided_doc_scores_zero(self, vocab):
        a = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        b = SparseVector.from_pairs([("venezuela", 1.0)], vocab)
        d = SparseVector.from_pairs([("colombia", 3.0), ("andes", 1.0)], vocab)
        q = expand_query(a, b)
        assert pair_score(q, d) == 0.0
        assert factorized_score(a, b, d) == 0.0

    def test_factorized_binary_square(self, vocab):
        terms = [(f"t{i}", 1.0) for i in range(4)]
        a = SparseVector.from_pairs(terms, vocab)
        d = SparseVector.from_pairs(terms, vocab)
        assert factorized_score(a, a, d) == 16.0

    def test_factorization_identity_random(self):
        v = Vocabulary(f"t{i}" for i in range(40))
        rng = np.random.default_rng(79)
        for _ in range(200):
            a = random_vector(rng, v, max_nnz=15, low=0.05, high=3.0)
            b = random_vector(rng, v, max_nnz=15, low=0.05, high=3.0)
            d = random_vector(rng, v, max_nnz=15, low=0.05, high=3.0)
            m = int(rng.integers(1, 8))
            q = expand_query(a, b, m)
            full = pair_score(q, d)
            fact = factorized_score(top_m(a, m), top_m(b, m), d)
            doc_pairs = dict(PseudoTermVector(d, d).entries())
            ref = math.fsum(qw * doc_pairs.get(pair, 0.0) for pair, qw in q.entries())
            assert full == pytest.approx(fact, rel=1e-9, abs=1e-12)
            assert full == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_both_sides_precision(self):
        v = Vocabulary(f"t{i}" for i in range(30))
        rng = np.random.default_rng(83)
        for _ in range(200):
            a = random_vector(rng, v, max_nnz=8, low=0.05, high=3.0)
            b = random_vector(rng, v, max_nnz=8, low=0.05, high=3.0)
            d = random_vector(rng, v, max_nnz=8, low=0.05, high=3.0)
            m = int(rng.integers(1, 6))
            score = factorized_score(top_m(a, m), top_m(b, m), d)
            overlaps_a = bool(set(top_m(a, m).ids.tolist()) & set(d.ids.tolist()))
            overlaps_b = bool(set(top_m(b, m).ids.tolist()) & set(d.ids.tolist()))
            assert (score > 0.0) == (overlaps_a and overlaps_b)

    def test_monotone_in_m(self):
        v = Vocabulary(f"t{i}" for i in range(30))
        rng = np.random.default_rng(89)
        for _ in range(100):
            a = random_vector(rng, v, max_nnz=10, min_nnz=1, low=0.05, high=3.0)
            b = random_vector(rng, v, max_nnz=10, min_nnz=1, low=0.05, high=3.0)
            d = random_vector(rng, v, max_nnz=10, min_nnz=1, low=0.05, high=3.0)
            scores = [
                factorized_score(top_m(a, m), top_m(b, m), d) for m in range(1, 11)
            ]
            assert all(s2 >= s1 for s1, s2 in zip(scores, scores[1:]))


class TestPseudoTermVector:
    def test_entries_sorted_lexicographically(self):
        v = Vocabulary(f"t{i}" for i in range(6))
        x = SparseVector.from_pairs([("t2", 1.0), ("t0", 4.0)], v)
        y = SparseVector.from_pairs([("t5", 1.0), ("t1", 9.0)], v)
        ptv = PseudoTermVector(x, y)
        assert list(ptv.entries()) == [
            ((0, 1), 6.0), ((0, 5), 2.0), ((2, 1), 3.0), ((2, 5), 1.0),
        ]
        assert ptv.nnz == 4
        pairs = dict(ptv.entries())
        assert pairs[0, 5] == 2.0 and (5, 0) not in pairs

    def test_rejects_negative_and_overflowing_factors(self):
        v = Vocabulary(["a", "b"])
        pos = SparseVector.from_pairs([("a", 1.0)], v)
        with pytest.raises(CptDomainError):
            PseudoTermVector(pos, SparseVector.from_pairs([("b", -1.0)], v))
        with pytest.raises(VocabularyMismatchError):
            PseudoTermVector(pos, SparseVector.from_pairs([("b", 1.0)], Vocabulary(["b"])))
        huge = SparseVector.from_pairs([("a", 1e308), ("b", 1.0)], v)
        with pytest.raises(NonFiniteError):
            PseudoTermVector(huge, huge)

    def test_debug_keys_use_intersection_glyph(self):
        v = Vocabulary(["edu", "intel"])
        ptv = PseudoTermVector(
            SparseVector.from_pairs([("edu", 2.25)], v), SparseVector.from_pairs([("intel", 1.0)], v)
        )
        assert ptv.to_dict() == {"edu∩intel": 1.5}
