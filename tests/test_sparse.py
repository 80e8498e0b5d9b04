import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setvec import (
    NonFiniteError,
    SparseVector,
    UnknownTermError,
    Vocabulary,
    VocabularyMismatchError,
    ZeroNormError,
    add,
    cosine,
    dot,
    mask_remove,
    maxpool,
    norm,
    project,
    scale,
    sub,
    top_m,
)
from setvec.sparse import NEAR_ZERO

from conftest import random_vector


class TestVocabulary:
    def test_ids_are_dense_and_bijective(self):
        v = Vocabulary(["a", "b", "c"])
        assert [v.id_of(t) for t in "abc"] == [0, 1, 2]
        assert [v.term(i) for i in range(3)] == ["a", "b", "c"]
        assert len(v) == 3

    def test_add_is_idempotent(self):
        v = Vocabulary()
        assert v.add("x") == v.add("x") == 0
        assert len(v) == 1

    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError):
            Vocabulary([""])

    def test_frozen_vocabulary_raises_on_miss(self):
        v = Vocabulary(["a"]).freeze()
        assert v.add("a") == 0
        with pytest.raises(UnknownTermError):
            v.add("b")
        with pytest.raises(UnknownTermError):
            v.id_of("b")


class TestConstruction:
    def test_from_pairs_birds_example(self, vocab):
        vec = SparseVector.from_pairs(
            [("birds", 1.0), ("fly", 1.0), ("colombia", 1.0), ("andes", 1.0)], vocab
        )
        assert vec.nnz == 4
        assert vec.to_dict() == {"birds": 1.0, "fly": 1.0, "colombia": 1.0, "andes": 1.0}

    def test_zero_weights_dropped(self, vocab):
        assert SparseVector.from_pairs([("x", 0.0)], vocab).nnz == 0

    def test_duplicate_terms_merge_by_sum(self, vocab):
        vec = SparseVector.from_pairs([("a", 1.0), ("a", 2.0)], vocab)
        assert vec.to_dict() == {"a": 3.0}

    def test_duplicate_sum_overflow_rejected(self, vocab):
        with pytest.raises(NonFiniteError):
            SparseVector.from_pairs([("a", 1e308), ("a", 1e308)], vocab)
        assert SparseVector.from_pairs([("a", 1e308), ("a", -1e308)], vocab).nnz == 0

    def test_canonical_ids_strictly_increasing(self, vocab):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vec = random_vector(rng, Vocabulary(f"t{i}" for i in range(80)))
            assert np.all(np.diff(vec.ids.astype(np.int64)) > 0)
            assert np.all(np.abs(vec.weights) >= NEAR_ZERO)

    def test_near_zero_weights_dropped(self, vocab):
        vec = SparseVector.from_pairs([("a", 1e-13), ("b", 1.0)], vocab)
        assert vec.to_dict() == {"b": 1.0}

    def test_immutable(self, birds):
        a, _ = birds
        with pytest.raises(AttributeError):
            a.ids = None
        with pytest.raises(ValueError):
            a.weights[0] = 5.0


REPEAT_WEIGHT = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((1e308, -1e308, 1e-13, -1e-13, NEAR_ZERO, -NEAR_ZERO, 0.0, -0.0)),
)


def _summed_then_pruned(pairs, vocab):
    """``from_pairs`` as a stable sort by id, a sequential sum per id and a prune."""
    ids = np.asarray([vocab.add(term) for term, _ in pairs], dtype=np.uint32)
    weights = np.asarray([weight for _, weight in pairs], dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    unique_ids, inverse = np.unique(ids[order], return_inverse=True)
    summed = np.zeros(unique_ids.size)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(summed, inverse, weights[order])
    if not np.isfinite(summed).all():
        return None
    keep = np.abs(summed) >= NEAR_ZERO
    return unique_ids[keep], summed[keep]


class TestOneCanonicaliser:
    """The constructor canonicalises one row as a batch does; only ``from_pairs`` sums repeats."""

    @pytest.mark.parametrize("ids", [[0, 0], [1, 0, 1], [2, 1, 2, 0]])
    def test_repeated_id_is_refused(self, ids):
        with pytest.raises(ValueError, match="a row holds the same term id twice"):
            SparseVector(ids, np.ones(len(ids)), Vocabulary(["a", "b", "c"]))

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from("abcd"), REPEAT_WEIGHT), max_size=12))
    def test_from_pairs_sums_repeats_in_input_order(self, pairs):
        want = _summed_then_pruned(pairs, Vocabulary())
        if want is None:
            with pytest.raises(NonFiniteError):
                SparseVector.from_pairs(pairs, Vocabulary())
            return
        got = SparseVector.from_pairs(pairs, Vocabulary())
        assert got.ids.tolist() == want[0].tolist()
        assert got.weights.tobytes() == want[1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(row=st.dictionaries(st.integers(0, 39), REPEAT_WEIGHT, max_size=20))
    def test_distinct_unsorted_ids_match_a_sorted_dict(self, row):
        ids, weights = np.array(list(row), dtype=np.uint32), np.array(list(row.values()), dtype=np.float64)
        vec = SparseVector(ids, weights, Vocabulary(f"t{i}" for i in range(40)))
        want = {t: float(row[t]) for t in sorted(row) if abs(row[t]) >= NEAR_ZERO}
        assert vec.ids.tolist() == list(want)
        assert vec.weights.tolist() == list(want.values())
        assert not np.shares_memory(vec.ids, ids) and not np.shares_memory(vec.weights, weights)

    @pytest.mark.parametrize("weight, error", [(None, NonFiniteError), ("x", ValueError), (10**400, OverflowError)])
    def test_from_pairs_converts_weights_as_numpy_does(self, weight, error):
        with pytest.raises(error):
            SparseVector.from_pairs([("a", 1.0), ("a", weight)], Vocabulary())


class TestDot:
    def test_shared_support(self, birds):
        a, b = birds
        assert dot(a, b) == 3.0

    def test_disjoint_supports(self, vocab):
        a = SparseVector.from_pairs([("a", 1.0)], vocab)
        b = SparseVector.from_pairs([("b", 1.0)], vocab)
        assert dot(a, b) == 0.0

    def test_self_dot_is_squared_norm(self, birds):
        a, _ = birds
        assert dot(a, a) == 4.0

    def test_symmetry_exact(self):
        vocab = Vocabulary(f"t{i}" for i in range(100))
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_vector(rng, vocab)
            b = random_vector(rng, vocab)
            assert dot(a, b) == dot(b, a)

    def test_bilinearity(self):
        vocab = Vocabulary(f"t{i}" for i in range(100))
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_vector(rng, vocab)
            b = random_vector(rng, vocab)
            d = random_vector(rng, vocab)
            assert dot(add(a, b), d) == pytest.approx(dot(a, d) + dot(b, d), abs=1e-9)

    def test_vocabulary_mismatch(self):
        a = SparseVector.from_pairs([("a", 1.0)], Vocabulary())
        b = SparseVector.from_pairs([("a", 1.0)], Vocabulary())
        with pytest.raises(VocabularyMismatchError):
            dot(a, b)


class TestArithmetic:
    def test_sub_birds_example(self, birds):
        a, b = birds
        assert sub(a, b).to_dict() == {"colombia": 1.0, "venezuela": -1.0}

    def test_add_identity(self, birds):
        a, _ = birds
        assert add(a, SparseVector.empty(a.vocab)) == a

    def test_scale_by_zero_annihilates(self, birds):
        a, _ = birds
        assert scale(a, 0.0).nnz == 0

    def test_add_counts_shared_terms_twice(self, birds):
        a, b = birds
        assert add(a, b).to_dict() == {
            "birds": 2.0,
            "fly": 2.0,
            "colombia": 1.0,
            "andes": 2.0,
            "venezuela": 1.0,
        }


class TestMaxpool:
    def test_birds_example(self, birds):
        a, b = birds
        assert maxpool(a, b).to_dict() == {
            "birds": 1.0,
            "fly": 1.0,
            "colombia": 1.0,
            "venezuela": 1.0,
            "andes": 1.0,
        }

    def test_idempotent(self, birds):
        a, _ = birds
        assert maxpool(a, a) == a

    def test_negative_against_missing_vanishes(self, vocab):
        a = SparseVector.from_pairs([("a", -1.0)], vocab)
        assert maxpool(a, SparseVector.empty(vocab)).nnz == 0

    def test_commutative_associative_on_nonnegative(self):
        vocab = Vocabulary(f"t{i}" for i in range(60))
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = random_vector(rng, vocab, low=0.1, high=3.0)
            b = random_vector(rng, vocab, low=0.1, high=3.0)
            c = random_vector(rng, vocab, low=0.1, high=3.0)
            assert maxpool(a, b) == maxpool(b, a)
            assert maxpool(maxpool(a, b), c) == maxpool(a, maxpool(b, c))


class TestMaskRemove:
    def test_birds_example(self, birds):
        a, b = birds
        assert mask_remove(b, a).to_dict() == {"venezuela": 1.0}

    def test_full_support_mask(self, birds):
        _, b = birds
        assert mask_remove(b, b).nnz == 0

    def test_empty_mask_is_identity(self, birds):
        _, b = birds
        assert mask_remove(b, SparseVector.empty(b.vocab)) == b

    def test_support_disjoint_and_weights_preserved(self):
        vocab = Vocabulary(f"t{i}" for i in range(80))
        rng = np.random.default_rng(19)
        for _ in range(100):
            b = random_vector(rng, vocab)
            s = random_vector(rng, vocab)
            out = mask_remove(b, s)
            assert not set(out.ids.tolist()) & set(s.ids.tolist())
            for tid, w in b.entries():
                if tid not in set(s.ids.tolist()):
                    assert out.get(tid) == w


class TestProject:
    def test_birds_example(self, birds):
        # A.B = 3, |B|^2 = 4, so the projection is 0.75 B.
        a, b = birds
        assert project(a, b).to_dict() == {
            "birds": 0.75,
            "fly": 0.75,
            "venezuela": 0.75,
            "andes": 0.75,
        }

    def test_self_projection(self, birds):
        a, _ = birds
        assert project(a, a) == a

    def test_zero_vector_projects_to_empty(self, birds):
        _, b = birds
        assert project(SparseVector.empty(b.vocab), b).nnz == 0

    def test_zero_norm_target_rejected(self, birds):
        a, _ = birds
        with pytest.raises(ZeroNormError):
            project(a, SparseVector.empty(a.vocab))

    def test_residual_is_orthogonal(self):
        vocab = Vocabulary(f"t{i}" for i in range(80))
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = random_vector(rng, vocab)
            b = random_vector(rng, vocab, min_nnz=1)
            residual = sub(a, project(a, b))
            assert abs(dot(residual, b)) <= 1e-9 * max(norm(a) * norm(b), 1.0)


class TestCosine:
    def test_birds_example(self, birds):
        a, b = birds
        assert cosine(a, b) == pytest.approx(0.75)

    def test_self_similarity(self, birds):
        a, _ = birds
        assert cosine(a, a) == 1.0

    def test_disjoint_nonnegative_supports(self, vocab):
        a = SparseVector.from_pairs([("a", 1.0)], vocab)
        b = SparseVector.from_pairs([("b", 2.0)], vocab)
        assert cosine(a, b) == 0.0

    def test_zero_norm_rejected(self, birds):
        a, _ = birds
        with pytest.raises(ZeroNormError):
            cosine(a, SparseVector.empty(a.vocab))

    def test_range(self):
        vocab = Vocabulary(f"t{i}" for i in range(40))
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = random_vector(rng, vocab, min_nnz=1)
            b = random_vector(rng, vocab, min_nnz=1)
            assert -1.0 <= cosine(a, b) <= 1.0


class TestTopM:
    def test_selects_largest_weights(self, vocab):
        vec = SparseVector.from_pairs([("a", 3.0), ("b", 1.0), ("c", 2.0)], vocab)
        assert top_m(vec, 2).to_dict() == {"a": 3.0, "c": 2.0}

    def test_m_exceeding_nnz_is_identity(self, birds):
        a, _ = birds
        assert top_m(a, 10) == a

    def test_tie_breaks_by_ascending_id(self, vocab):
        vec = SparseVector.from_pairs([("a", 1.0), ("b", 1.0)], vocab)
        assert top_m(vec, 1).to_dict() == {"a": 1.0}

    def test_rejects_nonpositive_m(self, birds):
        a, _ = birds
        with pytest.raises(ValueError):
            top_m(a, 0)
