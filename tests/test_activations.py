import math

import numpy as np
import pytest

from setvec import (
    ActivationConfig,
    LogitMatrix,
    Vocabulary,
    activate,
    snrelu_activate,
    snrelu_neg,
    snrelu_pos,
    splade_activate,
)


@pytest.fixture
def grid_vocab():
    return Vocabulary(f"t{i}" for i in range(10))


def matrix(values, grid_vocab, ids=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if ids is None:
        ids = list(range(values.shape[1]))
    return LogitMatrix(values, ids, grid_vocab)


class TestLogitMatrix:
    def test_requires_rows(self, grid_vocab):
        with pytest.raises(ValueError):
            LogitMatrix(np.empty((0, 2)), [0, 1], grid_vocab)

    def test_rejects_non_finite(self, grid_vocab):
        with pytest.raises(ValueError):
            matrix([[1.0, float("nan")]], grid_vocab)

    def test_from_terms_reorders_columns(self, grid_vocab):
        m = LogitMatrix.from_terms([[1.0, 2.0]], ["t3", "t1"], grid_vocab)
        assert m.term_ids.tolist() == [1, 3]
        assert m.values.tolist() == [[2.0, 1.0]]

    def test_rejects_unsorted_ids(self, grid_vocab):
        with pytest.raises(ValueError):
            matrix([[1.0, 2.0]], grid_vocab, ids=[3, 1])


class TestSpladeActivate:
    def test_max_pools_over_positions(self, grid_vocab):
        # column [2.0, 0.5] -> ln(1 + 2) at the max position
        m = matrix([[2.0], [0.5]], grid_vocab)
        vec = splade_activate(m)
        assert vec.get(0) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_all_negative_column_absent(self, grid_vocab):
        vec = splade_activate(matrix([[-1.0], [-0.5]], grid_vocab))
        assert vec.nnz == 0

    def test_unit_weight_column(self, grid_vocab):
        vec = splade_activate(matrix([[math.e - 1.0]], grid_vocab))
        assert vec.get(0) == pytest.approx(1.0, rel=1e-12)

    def test_nonnegative_output(self, grid_vocab):
        rng = np.random.default_rng(5)
        m = matrix(rng.normal(size=(6, 10)), grid_vocab)
        vec = splade_activate(m)
        assert all(w > 0 for _, w in vec.entries())


class TestSnreluScalar:
    def test_dead_zone_boundary(self):
        assert snrelu_pos(1.0, 1.0) == 0.0
        assert snrelu_neg(1.0, 1.0, "corrected") == 0.0

    def test_unit_positive(self):
        assert snrelu_pos(math.e, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_odd_symmetry_of_corrected(self):
        assert snrelu_neg(-math.e, 1.0, "corrected") == pytest.approx(-1.0, rel=1e-12)

    def test_literal_formula_fires_inside_dead_zone(self):
        # With the literal spelling the output is nonzero even at x = 0.
        assert snrelu_neg(0.0, 1.0, "literal") == pytest.approx(-math.log(2.0))
        assert snrelu_neg(0.0, 1.0, "corrected") == 0.0

    def test_monotone_nondecreasing(self):
        xs = np.linspace(-5, 5, 201)
        pos = snrelu_pos(xs, 0.25)
        neg = snrelu_neg(xs, 0.25, "corrected")
        assert np.all(np.diff(pos) >= 0)
        assert np.all(np.diff(neg) >= 0)


class TestSnreluActivate:
    def test_worked_column(self, grid_vocab):
        # Positions engineered so pooled pos values are {0.5, 0} and pooled
        # neg values are {0, -0.8}: absmax picks -0.8, sum gives -0.3.
        eps = 0.25
        x_pos = eps + (math.e**0.5 - 1.0)
        x_neg = -eps - (math.e**0.8 - 1.0)
        m = matrix([[x_pos], [x_neg]], grid_vocab)
        absmax = snrelu_activate(m, ActivationConfig(epsilon=eps, aggregation="absmax"))
        summed = snrelu_activate(m, ActivationConfig(epsilon=eps, aggregation="sum"))
        assert absmax.get(0) == pytest.approx(-0.8, rel=1e-9)
        assert summed.get(0) == pytest.approx(-0.3, rel=1e-9)

    def test_dead_zone_column_absent(self, grid_vocab):
        eps = 0.5
        m = matrix([[0.3, -0.5], [-0.2, 0.1]], grid_vocab)
        vec = snrelu_activate(m, ActivationConfig(epsilon=eps, aggregation="sum"))
        assert vec.nnz == 0

    def test_single_position_aggregations_coincide(self, grid_vocab):
        m = matrix([[math.e, -3.0, 0.1]], grid_vocab)
        cfg_a = ActivationConfig(epsilon=1.0, aggregation="absmax")
        cfg_s = ActivationConfig(epsilon=1.0, aggregation="sum")
        va = snrelu_activate(m, cfg_a)
        vs = snrelu_activate(m, cfg_s)
        assert va == vs
        assert va.get(0) == pytest.approx(1.0, rel=1e-12)

    def test_sum_aggregation_is_odd_exactly(self, grid_vocab):
        rng = np.random.default_rng(41)
        cfg = ActivationConfig(epsilon=0.25, aggregation="sum")
        for _ in range(25):
            m = matrix(rng.normal(scale=2.0, size=(5, 10)), grid_vocab)
            pos_vec = snrelu_activate(m, cfg)
            neg_vec = snrelu_activate(LogitMatrix(-m.values, m.term_ids, m.vocab), cfg)
            assert np.array_equal(pos_vec.ids, neg_vec.ids)
            assert np.array_equal(pos_vec.weights, -neg_vec.weights)

    def test_sparsity_band(self, grid_vocab):
        rng = np.random.default_rng(43)
        eps = 0.7
        cfg = ActivationConfig(epsilon=eps, aggregation="sum")
        values = rng.uniform(-eps, eps, size=(4, 10))
        assert snrelu_activate(matrix(values, grid_vocab), cfg).nnz == 0

    def test_matches_splade_at_zero_epsilon(self, grid_vocab):
        rng = np.random.default_rng(47)
        values = rng.normal(size=(6, 10))
        per_position_pos = snrelu_pos(values, 0.0)
        expected = np.log1p(np.maximum(values, 0.0))
        assert np.array_equal(per_position_pos, expected)
        splade = splade_activate(matrix(values, grid_vocab))
        assert np.array_equal(splade.weights, per_position_pos.max(axis=0)[splade.ids])

    def test_rejects_splade_max_aggregation(self, grid_vocab):
        m = matrix([[1.0]], grid_vocab)
        with pytest.raises(ValueError):
            snrelu_activate(m, ActivationConfig(aggregation="splade_max"))

    def test_activate_dispatch(self, grid_vocab):
        m = matrix([[2.0, -2.0]], grid_vocab)
        assert activate(m, ActivationConfig(aggregation="splade_max")) == splade_activate(m)
        cfg = ActivationConfig(epsilon=0.25, aggregation="sum")
        assert activate(m, cfg) == snrelu_activate(m, cfg)


class TestActivationConfig:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            ActivationConfig(epsilon=-0.1)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            ActivationConfig(neg_formula="other")
        with pytest.raises(ValueError):
            ActivationConfig(aggregation="median")
