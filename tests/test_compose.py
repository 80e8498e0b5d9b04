import os
import subprocess
import sys

import numpy as np
import pytest

import setvec
from setvec import (
    CompositionalQuery,
    CompositionParams,
    PseudoTermVector,
    SparseVector,
    Vocabulary,
    ZeroNormError,
    compose,
    difference_disentangled,
    difference_nrf,
    difference_orthogonal,
    dot,
    norm,
    sub,
)

from conftest import random_lattice_vector, random_vector


def composed(operator, method, a, b, **params):
    """The (operator, method) pair applied through ``compose``, the table the CLI uses."""
    return compose(CompositionalQuery(
        qid="q", operator=operator, method=method, a=a, b=b, params=CompositionParams(**params)
    ))


class TestQueryValidation:
    def test_b_required_unless_atomic(self, birds):
        a, b = birds
        with pytest.raises(ValueError):
            CompositionalQuery(qid="q", operator="difference", method="subtract", a=a)
        with pytest.raises(ValueError):
            CompositionalQuery(qid="q", operator="atomic", method="atomic", a=a, b=b)

    def test_method_must_match_operator(self, birds):
        a, b = birds
        with pytest.raises(ValueError):
            CompositionalQuery(qid="q", operator="union", method="subtract", a=a, b=b)
        with pytest.raises(ValueError):
            CompositionalQuery(qid="q", operator="difference", method="cpt", a=a, b=b)
        with pytest.raises(ValueError):
            CompositionalQuery(qid="q", operator="nonsense", method="add", a=a, b=b)

    def test_atomic_passes_through(self, birds):
        a, _ = birds
        q = CompositionalQuery(qid="q", operator="atomic", method="atomic", a=a)
        assert compose(q) is a


class TestDifference:
    def test_subtract_birds(self, birds):
        a, b = birds
        assert composed("difference", "subtract", a, b).to_dict() == {"colombia": 1.0, "venezuela": -1.0}

    def test_subtract_trivia(self, birds):
        a, _ = birds
        assert composed("difference", "subtract", a, SparseVector.empty(a.vocab)) == a
        assert composed("difference", "subtract", a, a).nnz == 0

    def test_ignore_returns_a(self, birds):
        a, b = birds
        assert composed("difference", "ignore", a, b) == a
        assert composed("difference", "ignore", SparseVector.empty(a.vocab), b).nnz == 0

    def test_disentangled_birds(self, birds):
        a, b = birds
        assert difference_disentangled(a, b).to_dict() == {
            "birds": 1.0,
            "fly": 1.0,
            "colombia": 1.0,
            "andes": 1.0,
            "venezuela": -1.0,
        }

    def test_disentangled_disjoint_is_plain_subtraction(self, vocab):
        a = SparseVector.from_pairs([("a", 2.0)], vocab)
        b = SparseVector.from_pairs([("b", 3.0)], vocab)
        assert difference_disentangled(a, b) == sub(a, b)

    def test_disentangled_fully_masked(self, vocab):
        a = SparseVector.from_pairs([("a", 2.0), ("b", 1.0)], vocab)
        b = SparseVector.from_pairs([("a", 5.0)], vocab)
        assert difference_disentangled(a, b) == a

    def test_disentangled_support_preservation_entrywise(self):
        vocab = Vocabulary(f"t{i}" for i in range(60))
        rng = np.random.default_rng(53)
        for _ in range(100):
            a = random_vector(rng, vocab)
            b = random_vector(rng, vocab)
            out = difference_disentangled(a, b)
            for tid in range(len(vocab)):
                if a.get(tid) != 0.0:
                    assert out.get(tid) == a.get(tid)
                elif b.get(tid) != 0.0:
                    assert out.get(tid) == -b.get(tid)
                else:
                    assert out.get(tid) == 0.0

    def test_orthogonal_birds(self, birds):
        a, b = birds
        assert difference_orthogonal(a, b).to_dict() == {
            "birds": 0.25,
            "fly": 0.25,
            "colombia": 1.0,
            "andes": 0.25,
            "venezuela": -0.75,
        }

    def test_orthogonal_already_orthogonal(self, vocab):
        a = SparseVector.from_pairs([("a", 1.0)], vocab)
        b = SparseVector.from_pairs([("b", 1.0)], vocab)
        assert difference_orthogonal(a, b) == a

    def test_orthogonal_self_removes_everything(self, birds):
        a, _ = birds
        assert difference_orthogonal(a, a).nnz == 0

    def test_orthogonal_zero_norm_rejected(self, birds):
        a, _ = birds
        with pytest.raises(ZeroNormError):
            difference_orthogonal(a, SparseVector.empty(a.vocab))

    def test_orthogonality_property(self):
        vocab = Vocabulary(f"t{i}" for i in range(60))
        rng = np.random.default_rng(59)
        for _ in range(200):
            a = random_vector(rng, vocab)
            b = random_vector(rng, vocab, min_nnz=1)
            out = difference_orthogonal(a, b)
            assert abs(dot(out, b)) <= 1e-9 * max(norm(a) * norm(b), 1.0)

    def test_nrf_endpoints_exact(self):
        vocab = Vocabulary(f"t{i}" for i in range(60))
        rng = np.random.default_rng(61)
        for _ in range(100):
            a = random_vector(rng, vocab)
            b = random_vector(rng, vocab)
            assert difference_nrf(a, b, 0.0) == a
            assert difference_nrf(a, b, 1.0) == composed("difference", "subtract", a, b)

    def test_nrf_half(self, birds):
        a, b = birds
        assert difference_nrf(a, b, 0.5).to_dict() == {
            "birds": 0.5,
            "fly": 0.5,
            "colombia": 1.0,
            "andes": 0.5,
            "venezuela": -0.5,
        }

    def test_nrf_rejects_negative_lambda(self, birds):
        a, b = birds
        with pytest.raises(ValueError):
            difference_nrf(a, b, -0.5)

    @pytest.mark.parametrize(
        "lambda_", [True, float("nan"), float("inf"), -0.5, 10**400], ids=["True", "nan", "inf", "-0.5", "10**400"]
    )
    def test_nrf_and_params_share_the_lambda_rule(self, birds, lambda_):
        a, b = birds
        with pytest.raises(ValueError) as from_nrf:
            difference_nrf(a, b, lambda_)
        with pytest.raises(ValueError) as from_params:
            CompositionParams(lambda_=lambda_)
        assert str(from_nrf.value) == str(from_params.value) == f"lambda must be a finite number >= 0, got {lambda_!r}"

    def test_penalty_guarantee_against_ignore(self):
        # On a lattice (weights k/64) all scores are exact, so the comparison
        # between disentangled and ignore is exact too: penalized iff the doc
        # carries weight on a term only the negated side mentions.
        vocab = Vocabulary(f"t{i}" for i in range(40))
        rng = np.random.default_rng(67)
        for _ in range(200):
            a = random_lattice_vector(rng, vocab)
            b = random_lattice_vector(rng, vocab)
            d = random_lattice_vector(rng, vocab)
            s_dis = dot(difference_disentangled(a, b), d)
            s_ign = dot(composed("difference", "ignore", a, b), d)
            assert s_dis <= s_ign
            b_only = set(b.ids.tolist()) - set(a.ids.tolist())
            penalized = any(d.get(t) > 0 for t in b_only)
            assert (s_dis < s_ign) == penalized


class TestUnionIntersection:
    def test_union_add_birds(self, birds):
        a, b = birds
        assert composed("union", "add", a, b).to_dict() == {
            "birds": 2.0,
            "fly": 2.0,
            "colombia": 1.0,
            "venezuela": 1.0,
            "andes": 2.0,
        }

    def test_union_maxpool_birds(self, birds):
        a, b = birds
        assert set(composed("union", "maxpool", a, b).to_dict().values()) == {1.0}
        assert composed("union", "maxpool", a, b).nnz == 5

    def test_union_add_identity(self, birds):
        a, _ = birds
        assert composed("union", "add", a, SparseVector.empty(a.vocab)) == a

    def test_intersection_vector_methods_match_union_math(self, birds):
        a, b = birds
        assert composed("intersection", "add", a, b) == composed("union", "add", a, b)
        assert composed("intersection", "maxpool", a, b) == composed("union", "maxpool", a, b)

    def test_intersection_cpt_returns_pseudo_terms(self, birds):
        a, b = birds
        out = composed("intersection", "cpt", a, b, m=2)
        assert isinstance(out, PseudoTermVector)
        assert out.nnz == 4

    def test_score_linearity_bridges(self):
        # dot(a+b, d) = dot(a, d) + dot(b, d) and likewise for subtraction;
        # exact on the lattice.
        vocab = Vocabulary(f"t{i}" for i in range(40))
        rng = np.random.default_rng(71)
        for _ in range(200):
            a = random_lattice_vector(rng, vocab)
            b = random_lattice_vector(rng, vocab)
            d = random_lattice_vector(rng, vocab)
            assert dot(composed("union", "add", a, b), d) == dot(a, d) + dot(b, d)
            assert dot(composed("difference", "subtract", a, b), d) == dot(a, d) - dot(b, d)


class TestComposeDispatch:
    @pytest.mark.parametrize(
        "operator,method",
        [
            ("difference", "subtract"),
            ("difference", "ignore"),
            ("difference", "disentangled"),
            ("difference", "orthogonal"),
            ("difference", "nrf"),
            ("union", "add"),
            ("union", "maxpool"),
            ("intersection", "add"),
            ("intersection", "maxpool"),
            ("intersection", "cpt"),
        ],
    )
    def test_every_pair_dispatches(self, birds, operator, method):
        a, b = birds
        q = CompositionalQuery(
            qid="q", operator=operator, method=method, a=a, b=b,
            params=CompositionParams(lambda_=0.5, m=3),
        )
        out = compose(q)
        if method == "cpt":
            assert isinstance(out, PseudoTermVector)
        else:
            assert isinstance(out, SparseVector)

    def test_compose_uses_params(self, birds):
        a, b = birds
        q = CompositionalQuery(
            qid="q", operator="difference", method="nrf", a=a, b=b,
            params=CompositionParams(lambda_=0.5),
        )
        assert compose(q) == difference_nrf(a, b, 0.5)

    def test_empty_inputs_propagate(self, vocab):
        empty = SparseVector.empty(vocab)
        q = CompositionalQuery(
            qid="q", operator="difference", method="subtract", a=empty, b=empty
        )
        assert compose(q).nnz == 0


# Every (operator, method) pair composed, then searched, and a vector whose ids
# arrive out of order; prints whether numpy.ma was loaded before and after.
_COMPOSE_ALL = """
import sys
from setvec import SparseVector, VectorBatch, Vocabulary, build, search, search_cpt
from setvec.compose import COMPOSITIONS, CompositionalQuery, compose
from setvec.cpt import PseudoTermVector
vocab = Vocabulary()
a = SparseVector.from_pairs([("birds", 1.0), ("colombia", 2.0), ("andes", 0.5)], vocab)
b = SparseVector.from_pairs([("birds", 1.0), ("venezuela", 3.0)], vocab)
idx = build(VectorBatch.stack([("d1", a), ("d2", b)], vocab))
before = "numpy.ma" in sys.modules
for operator, method in COMPOSITIONS:
    q = CompositionalQuery(qid="q", operator=operator, method=method, a=a, b=None if operator == "atomic" else b)
    rep = compose(q)
    if isinstance(rep, PseudoTermVector):
        search_cpt(idx, rep, a, b, 2, 10)
    else:
        search(idx, rep, 2)
# Ids out of order ("birds" is the lower id), as an inline query side of `setvec search` may list them.
search(idx, SparseVector.from_pairs([("colombia", 1.0), ("birds", 1.0)], vocab), 2)
print(before, "numpy.ma" in sys.modules)
"""


def test_composing_queries_does_not_import_numpy_ma():
    """np.union1d imports numpy.ma, about 20 ms of every search process.  numpy
    1.x may load numpy.ma with numpy itself, so only what composing adds counts."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(setvec.__file__)))
    done = subprocess.run([sys.executable, "-c", _COMPOSE_ALL], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    before, after = done.stdout.split()
    assert after == before
