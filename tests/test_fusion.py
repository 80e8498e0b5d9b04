import numpy as np
import pytest

from setvec import NonFiniteError, SparseVector, Vocabulary, add, build, fuse, min_max_scale, search, sub

from conftest import random_lattice_vector


@pytest.fixture
def two_runs():
    return {"d1": 2.0, "d2": 1.0}, {"d1": 1.0, "d2": 3.0}


class TestFuse:
    def test_minus_unscaled(self, two_runs):
        run_a, run_b = two_runs
        fused = fuse(run_a, run_b, "minus")
        assert fused == [("d1", 1.0), ("d2", -2.0)]

    def test_minus_scaled(self, two_runs):
        # after min-max: a = {d1: 1, d2: 0}, b = {d1: 0, d2: 1}
        run_a, run_b = two_runs
        fused = fuse(min_max_scale(run_a), min_max_scale(run_b), "minus")
        assert fused == [("d1", 1.0), ("d2", -1.0)]

    def test_times_with_missing_doc(self):
        fused = fuse({"d1": 2.0, "d2": 3.0}, {"d1": 4.0}, "times")
        assert fused == [("d1", 8.0), ("d2", 0.0)]

    def test_plus_over_union_of_docs(self):
        fused = fuse({"d1": 1.0}, {"d2": 2.0}, "plus")
        assert fused == [("d2", 2.0), ("d1", 1.0)]

    def test_degenerate_scaling_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="degenerate"):
            run_a = min_max_scale({"d1": 5.0, "d2": 5.0})
        fused = fuse(run_a, min_max_scale({"d1": 1.0, "d2": 0.0}), "plus")
        assert fused == [("d1", 1.0), ("d2", 0.0)]

    def test_unknown_op_rejected(self, two_runs):
        run_a, run_b = two_runs
        with pytest.raises(ValueError):
            fuse(run_a, run_b, "divide")

    @pytest.mark.parametrize("op, run_a, run_b", [
        ("plus", {"d1": 1e308}, {"d1": 1e308}),
        ("minus", {"d1": 1e308, "d2": 1.0}, {"d1": -1e308}),
        ("times", {"d1": 1e200}, {"d1": 1e200, "d2": 1.0}),
    ], ids=["plus", "minus", "times"])
    def test_overflowing_score_raises(self, op, run_a, run_b):
        with pytest.raises(NonFiniteError, match="^a fused score overflows to inf or nan$"):
            fuse(run_a, run_b, op)

    def test_scaled_wide_run_fuses(self):
        # 1e308 - -1e308 overflows, so the run is scaled by halves.
        run_a = min_max_scale({"d1": 1e308, "d2": -1e308, "d3": 0.0})
        assert run_a == {"d1": 1.0, "d2": 0.0, "d3": 0.5}
        assert fuse(run_a, {"d1": 1.0}, "plus") == [("d1", 2.0), ("d3", 0.5), ("d2", 0.0)]

    def test_ranking_sorts_by_score_then_name(self):
        fused = fuse({"b": 1.0, "a": 1.0, "c": 2.0}, {}, "plus")
        assert fused == [("c", 2.0), ("a", 1.0), ("b", 1.0)]


class TestMinMaxScale:
    def test_maps_to_unit_interval(self):
        scaled = min_max_scale({"a": 2.0, "b": 1.0, "c": 3.0})
        assert scaled == {"a": 0.5, "b": 0.0, "c": 1.0}

    def test_empty_is_empty(self):
        assert min_max_scale({}) == {}

    def test_span_past_the_largest_float_scales_by_halves(self):
        top = float(np.finfo(np.float64).max)
        assert min_max_scale({"a": top, "b": -top, "c": top / 2}) == {"a": 1.0, "b": 0.0, "c": 0.75}


class TestRankEquivalence:
    def test_fusion_matches_composition_retrieval(self):
        # With full-corpus scoring and exact lattice arithmetic, fusing two
        # atomic runs with +/- is rank-identical (scores included) to
        # retrieving with the added/subtracted query vector.  Value ranges
        # keep a_t - b_t away from 0 so no support is lost to cancellation.
        rng = np.random.default_rng(109)
        for _ in range(20):
            vocab = Vocabulary(f"t{i}" for i in range(25))
            vecs = [random_lattice_vector(rng, vocab, max_nnz=8) for _ in range(40)]
            names = [f"d{i:03d}" for i in range(40)]
            idx = build(zip(names, vecs), vocab)
            a = random_lattice_vector(rng, vocab, max_nnz=8, min_nnz=1, lo=1, hi=64)
            b = random_lattice_vector(rng, vocab, max_nnz=8, min_nnz=1, lo=65, hi=128)
            run_a = dict(search(idx, a, 40))
            run_b = dict(search(idx, b, 40))
            assert fuse(run_a, run_b, "plus") == search(idx, add(a, b), 40)
            assert fuse(run_a, run_b, "minus") == search(idx, sub(a, b), 40)
