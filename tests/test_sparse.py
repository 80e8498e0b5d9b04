import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setvec import (
    LogitMatrix,
    NonFiniteError,
    SparseVector,
    VectorBatch,
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
from setvec.sparse import NEAR_ZERO, WEIGHT_CODE_BLOCK, _canonical_rows, _code_dtype, _weight_codes

from conftest import random_vector


class TestVocabulary:
    def test_ids_are_dense_and_bijective(self):
        v = Vocabulary(["a", "b", "c"])
        assert [v.get(t) for t in "abc"] == [0, 1, 2]
        assert [v.term(i) for i in range(3)] == ["a", "b", "c"]
        assert len(v) == 3

    def test_add_is_idempotent(self):
        v = Vocabulary()
        assert v.add("x") == v.add("x") == 0
        assert len(v) == 1

    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError):
            Vocabulary([""])

    def test_repeated_term_keeps_its_first_id(self):
        v = Vocabulary(["b", "a", "b", "c", "a"])
        assert v.terms == ("b", "a", "c")
        assert [v.get(t) for t in "bac"] == [0, 1, 2]
        assert v.add("d") == 3

    @pytest.mark.parametrize("terms", [["a", 1], [None], ["a", b"b"], ["a", "a", ""]])
    def test_rejects_non_string_terms(self, terms):
        with pytest.raises(ValueError, match="non-empty strings"):
            Vocabulary(terms)


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

    @pytest.mark.parametrize("ids", [[1.7], [True], [-1], [3]], ids=["float", "bool", "negative", "past-end"])
    @pytest.mark.parametrize("build", [
        lambda ids, v: SparseVector(ids, [1.0], v),
        lambda ids, v: VectorBatch(["x"], [1], ids, [1.0], v),
        lambda ids, v: LogitMatrix([[1.0]], ids, v),
    ], ids=["SparseVector", "VectorBatch", "LogitMatrix"])
    def test_term_ids_must_be_integers_in_the_vocabulary(self, build, ids):
        with pytest.raises(ValueError, match="term id"):
            build(ids, Vocabulary(["a", "b", "c"]))

    def test_batch_keeps_a_uint32_id_column_uncopied(self):
        ids = np.array([0, 2], dtype=np.uint32)  # read_vectors' column: a copy would raise ingest's peak RSS
        assert VectorBatch(["x"], [2], ids, [1.0, 2.0], Vocabulary(["a", "b", "c"])).ids is ids


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


def _per_row_argsort(offsets, ids, weights):
    """The reference for the sort of ``_canonical_rows``: a stable argsort of each row's ids."""
    ids, weights = ids.copy(), weights.copy()
    for start, end in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        order = np.argsort(ids[start:end], kind="stable")
        ids[start:end], weights[start:end] = ids[start:end][order], weights[start:end][order]
    return ids, weights


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

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(0, 6) | st.sampled_from((2**31, 2**32 - 1)), max_size=7), max_size=8))
    def test_rows_sort_as_a_per_row_argsort(self, rows):
        """Sorted and unsorted rows, empty ones and ids up to 2**32 - 1 (the top of the
        sort keys) sort as each row's own stable argsort; a repeated id is refused."""
        offsets = np.cumsum([0] + [len(row) for row in rows])
        ids = np.array([t for row in rows for t in row], dtype=np.uint32)
        weights = np.arange(1, ids.size + 1) / -8.0
        inputs = ids.copy(), weights.copy()
        if any(len(set(row)) < len(row) for row in rows):
            with pytest.raises(ValueError, match="a row holds the same term id twice"):
                _canonical_rows(offsets, ids, weights)
        else:
            got_offsets, got_ids, got_weights = _canonical_rows(offsets, ids, weights)
            want_ids, want_weights = _per_row_argsort(offsets, ids, weights)
            assert got_offsets.tolist() == offsets.tolist()
            assert got_ids.dtype == ids.dtype and got_ids.tobytes() == want_ids.tobytes()
            assert got_weights.tobytes() == want_weights.tobytes()
        assert ids.tobytes() == inputs[0].tobytes() and weights.tobytes() == inputs[1].tobytes()

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


def _union1d_elementwise(a, b, op):
    """``op`` over both weight arrays aligned on ``np.union1d`` of the supports:
    the union the library built before it sorted and masked its own."""
    union = np.union1d(a.ids, b.ids)
    wa = np.zeros(union.size)
    wb = np.zeros(union.size)
    wa[np.searchsorted(union, a.ids)] = a.weights
    wb[np.searchsorted(union, b.ids)] = b.weights
    return SparseVector(union, op(wa, wb), a.vocab)


# Rows over 12 terms; weights drawn partly from a pool, so that shared terms cancel or tie.
ROW = st.dictionaries(
    st.integers(0, 11),
    st.one_of(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 1e-13]), st.floats(-1e6, 1e6, allow_nan=False)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(a_row=ROW, b_row=ROW)
def test_elementwise_matches_a_union1d_reference(a_row, b_row):
    vocab = Vocabulary(f"t{i}" for i in range(12))
    a = SparseVector(list(a_row), list(a_row.values()), vocab)
    b = SparseVector(list(b_row), list(b_row.values()), vocab)
    for fn, op in ((add, np.add), (sub, np.subtract), (maxpool, np.maximum)):
        ours = fn(a, b)
        assert ours == _union1d_elementwise(a, b, op)
        assert ours.ids.dtype == np.uint32


@settings(max_examples=30, deadline=None)
@given(
    table_size=st.sampled_from([256, 257, 65_536, 65_537]),
    extra=st.integers(0, WEIGHT_CODE_BLOCK),
    edges=st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_weight_codes_match_a_unique_oracle(table_size, extra, edges, seed):
    """Finite nonzero columns of more than one block, over tables at each side of
    the 1- and 2-byte code widths' limits."""
    rng = np.random.default_rng(seed)
    edges = np.unique(np.array(edges, dtype=np.float64))
    drawn = rng.standard_normal(2 * table_size) * 10.0 ** rng.integers(-300, 300, 2 * table_size)
    others = rng.choice(np.setdiff1d(drawn[drawn != 0], edges), table_size - edges.size, replace=False)
    distinct = np.concatenate((edges, others))
    repeats = rng.choice(distinct, WEIGHT_CODE_BLOCK + 1 + extra - table_size)
    weights = rng.permutation(np.concatenate((distinct, repeats)))
    table, codes = _weight_codes(weights)
    assert (table[1:] > table[:-1]).all()
    # Bit for bit, compared as integers: pytest's diff of two failing byte strings this long takes minutes.
    assert np.array_equal(table.take(codes).view(np.uint64), weights.view(np.uint64))
    assert codes.dtype == _code_dtype(table.size)
    assert codes.itemsize == (1 if table_size <= 2**8 else 2 if table_size <= 2**16 else 4)
    oracle_table, oracle_codes = np.unique(weights, return_inverse=True)
    assert table.size == table_size
    assert np.array_equal(table.view(np.uint64), oracle_table.view(np.uint64))
    assert np.array_equal(codes, oracle_codes)


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
