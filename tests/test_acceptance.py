"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from setvec import (
    ActivationConfig,
    LogitMatrix,
    PairedQueries,
    Qrels,
    SparseVector,
    Vocabulary,
    add,
    build,
    difference_disentangled,
    difference_nrf,
    difference_orthogonal,
    dot,
    expand_query,
    fuse,
    load,
    maxpool,
    ndcg_at_k,
    norm,
    pairwise_accuracy,
    recall_at_k,
    save,
    search,
    search_cpt,
    snrelu_activate,
    sub,
    top_m,
)
from setvec.cli import main
from setvec.formats import write_search_results

from conftest import brute_force, factorized_score, pair_score, random_vector


@contextmanager
def criterion(number, label, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} ({label}): FAIL (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
        )
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_worked_example_fidelity(tmp_path):
    vectors = tmp_path / "atomic.jsonl"
    vectors.write_text(
        json.dumps({"id": "qA", "vector": {"birds": 1.0, "fly": 1.0, "colombia": 1.0, "andes": 1.0}})
        + "\n"
        + json.dumps({"id": "qB", "vector": {"birds": 1.0, "fly": 1.0, "venezuela": 1.0, "andes": 1.0}})
        + "\n"
    )
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        json.dumps({"qid": "q1", "operator": "difference", "a_ref": "qA", "b_ref": "qB"}) + "\n"
    )

    def run(method):
        out = tmp_path / f"{method}.jsonl"
        code = main([
            "compose", "--queries", str(queries), "--vectors", str(vectors),
            "--method", method, "--out", str(out),
        ])
        assert code == 0
        return json.loads(out.read_text())["vector"]

    with criterion(1, "worked-example fidelity", budget_seconds=1.0):
        assert run("disentangled") == {
            "birds": 1.0, "fly": 1.0, "colombia": 1.0, "andes": 1.0, "venezuela": -1.0
        }
        assert run("subtract") == {"colombia": 1.0, "venezuela": -1.0}


def test_criterion_2_orthogonality_suite():
    vocab = Vocabulary(f"t{i}" for i in range(120))
    rng = np.random.default_rng(20260201)
    with criterion(2, "orthogonality and nrf endpoints", budget_seconds=5.0):
        for _ in range(1000):
            a = random_vector(rng, vocab, max_nnz=50)
            b = random_vector(rng, vocab, max_nnz=50, min_nnz=1)
            residual = difference_orthogonal(a, b)
            assert abs(dot(residual, b)) <= 1e-9 * max(norm(a) * norm(b), 1.0)
            assert difference_nrf(a, b, 0.0) == a
            assert difference_nrf(a, b, 1.0) == sub(a, b)


def test_criterion_3_cpt_factorization_oracle():
    vocab = Vocabulary(f"t{i}" for i in range(80))
    rng = np.random.default_rng(20260202)
    with criterion(3, "cpt factorization oracle", budget_seconds=10.0):
        for _ in range(1000):
            a = random_vector(rng, vocab, max_nnz=50, low=0.05, high=3.0)
            b = random_vector(rng, vocab, max_nnz=50, low=0.05, high=3.0)
            d = random_vector(rng, vocab, max_nnz=50, low=0.05, high=3.0)
            m = int(rng.integers(1, 7))
            full = pair_score(expand_query(a, b, m), d)
            fact = factorized_score(top_m(a, m), top_m(b, m), d)
            assert full == pytest.approx(fact, rel=1e-9, abs=1e-12)
            overlaps_a = bool(set(top_m(a, m).ids.tolist()) & set(d.ids.tolist()))
            overlaps_b = bool(set(top_m(b, m).ids.tolist()) & set(d.ids.tolist()))
            assert (fact > 0.0) == (overlaps_a and overlaps_b)


def test_criterion_4_retrieval_oracle():
    rng = np.random.default_rng(20260203)
    with criterion(4, "retrieval oracle equivalence", budget_seconds=30.0):
        for _ in range(200):
            n_terms = int(rng.integers(5, 201))
            n_docs = int(rng.integers(1, 1001))
            vocab = Vocabulary(f"t{i}" for i in range(n_terms))
            vecs = [
                random_vector(rng, vocab, max_nnz=min(n_terms, 20)) for _ in range(n_docs)
            ]
            names = [f"d{i:04d}" for i in range(n_docs)]
            idx = build(zip(names, vecs), vocab)
            doc_dicts = [dict(v.entries()) for v in vecs]
            for _ in range(3):
                q = random_vector(rng, vocab, max_nnz=min(n_terms, 30))
                qd = dict(q.entries())
                for k in (1, 10, n_docs):
                    assert search(idx, q, k) == brute_force(doc_dicts, names, qd, k)


def _lattice(rng, vocab, max_nnz, lo, hi, min_nnz=0):
    nnz = int(rng.integers(min_nnz, max_nnz + 1))
    ids = rng.choice(len(vocab), size=nnz, replace=False)
    weights = rng.integers(lo, hi, size=nnz).astype(np.float64) / 64.0
    return SparseVector(ids, weights, vocab)


def test_criterion_5_fusion_composition_rank_equivalence():
    # Weights live on the k/64 lattice with disjoint value ranges for the two
    # sides, so scores are exact and subtraction never cancels a shared term;
    # full-corpus runs then fuse to exactly the composed retrieval.
    rng = np.random.default_rng(20260204)
    with criterion(5, "fusion = composition rank equivalence", budget_seconds=30.0):
        for _ in range(100):
            vocab = Vocabulary(f"t{i}" for i in range(30))
            n_docs = int(rng.integers(10, 80))
            vecs = [_lattice(rng, vocab, 8, 1, 320) for _ in range(n_docs)]
            names = [f"d{i:04d}" for i in range(n_docs)]
            idx = build(zip(names, vecs), vocab)
            a = _lattice(rng, vocab, 10, 1, 64, min_nnz=1)
            b = _lattice(rng, vocab, 10, 65, 128, min_nnz=1)
            run_a = dict(search(idx, a, n_docs))
            run_b = dict(search(idx, b, n_docs))
            assert fuse(run_a, run_b, "plus") == search(idx, add(a, b), n_docs)
            assert fuse(run_a, run_b, "minus") == search(idx, sub(a, b), n_docs)


class SyntheticCorpus:
    """Concept-tagged corpus with set-theoretic relevance.

    5000 terms: term 0 occurs in every document, terms 1..400 are the 8-term
    cores of 50 concepts, the rest is filler.  Documents: 120 single-tag docs
    per concept, 80 dual-tag docs for each of the 25 designated concept
    pairs, and 2000 filler-only docs at the end of the id space.
    """

    N_CONCEPTS = 50
    CORE = 8
    SINGLE_PER_CONCEPT = 120
    DUAL_PER_PAIR = 80
    N_NEUTRAL = 2000

    def __init__(self, seed=20260205):
        rng = np.random.default_rng(seed)
        self.vocab = Vocabulary(f"t{i:04d}" for i in range(5000))
        self.pairs = [(2 * i, 2 * i + 1) for i in range(self.N_CONCEPTS // 2)]
        filler_pool = np.arange(1 + self.N_CONCEPTS * self.CORE, 5000)

        self.docs = []
        self.tags = []

        def add_doc(concepts):
            ids = [0]
            for c in concepts:
                ids.extend(self.core_ids(c))
            ids.extend(rng.choice(filler_pool, size=8, replace=False).tolist())
            vec = SparseVector(np.asarray(ids, dtype=np.uint32), np.ones(len(ids)), self.vocab)
            self.docs.append((f"d{len(self.docs):05d}", vec))
            self.tags.append(frozenset(concepts))

        for c in range(self.N_CONCEPTS):
            for _ in range(self.SINGLE_PER_CONCEPT):
                add_doc([c])
        for pair in self.pairs:
            for _ in range(self.DUAL_PER_PAIR):
                add_doc(list(pair))
        for _ in range(self.N_NEUTRAL):
            add_doc([])

        self.names = [name for name, _ in self.docs]

    def core_ids(self, concept):
        start = 1 + concept * self.CORE
        return list(range(start, start + self.CORE))

    def concept_vector(self, concept):
        ids = [0] + self.core_ids(concept)
        weights = [0.5] + [1.0] * self.CORE
        return SparseVector(np.asarray(ids, dtype=np.uint32), weights, self.vocab)

    def tagged(self, concept):
        return {self.names[i] for i, tags in enumerate(self.tags) if concept in tags}


def test_criterion_6_synthetic_set_semantics():
    corpus = SyntheticCorpus()
    n = len(corpus.docs)
    qrels = Qrels()

    with criterion(6, "synthetic set-semantics end to end", budget_seconds=10.0):
        started = time.monotonic()
        idx = build(corpus.docs, corpus.vocab)

        for pi, (ca, cb) in enumerate(corpus.pairs):
            a = corpus.concept_vector(ca)
            b = corpus.concept_vector(cb)
            in_a, in_b = corpus.tagged(ca), corpus.tagged(cb)

            # (a) difference: disentangled vs ignore
            diff_qid = f"diff{pi}"
            for doc in in_a - in_b:
                qrels.set(diff_qid, doc, 1)
            ignore_run = search(idx, a, n)
            disent_run = search(idx, difference_disentangled(a, b), n)
            ignore_ranking = [doc for doc, _ in ignore_run]
            disent_ranking = [doc for doc, _ in disent_run]
            r_ignore = recall_at_k(ignore_ranking, qrels, diff_qid, 100)
            r_disent = recall_at_k(disent_ranking, qrels, diff_qid, 100)
            assert r_disent >= r_ignore
            ignore_pos = {doc: i for i, doc in enumerate(ignore_ranking)}
            disent_pos = {doc: i for i, doc in enumerate(disent_ranking)}
            for doc in in_b - in_a:  # strictly demoted on every difference query
                assert disent_pos[doc] > ignore_pos[doc]

            # (b) intersection: pseudo-terms separate both-sides from one-sided
            both_sides = in_a & in_b
            one_sided = (in_a | in_b) - both_sides
            q_cpt = expand_query(a, b, 5)
            cpt_hits = search_cpt(idx, q_cpt, a, b, k=n, candidate_pool=n)
            top_block = {doc for doc, _ in cpt_hits[: len(both_sides)]}
            assert top_block == both_sides
            scores = dict(cpt_hits)
            assert all(scores[doc] > 0.0 for doc in both_sides)
            assert all(scores[doc] == 0.0 for doc in one_sided)

            # (c) union: maxpool recall at least each atomic side's
            union_qid = f"union{pi}"
            for doc in in_a | in_b:
                qrels.set(union_qid, doc, 1)
            union_ranking = [doc for doc, _ in search(idx, maxpool(a, b), n)]
            b_ranking = [doc for doc, _ in search(idx, b, n)]
            r_union = recall_at_k(union_ranking, qrels, union_qid, 100)
            assert r_union >= recall_at_k(ignore_ranking, qrels, union_qid, 100)
            assert r_union >= recall_at_k(b_ranking, qrels, union_qid, 100)

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"build + searches took {elapsed:.2f}s"


def test_criterion_7_pairwise_random_baseline():
    rng = np.random.default_rng(20260206)
    with criterion(7, "pairwise accuracy random baseline", budget_seconds=5.0):
        pairs = [
            PairedQueries(f"qa{i}", f"qb{i}", f"da{i}", f"db{i}") for i in range(10000)
        ]
        scores = {}
        for p in pairs:
            for q in (p.qid_a, p.qid_b):
                for d in (p.doc_a, p.doc_b):
                    scores[(q, d)] = float(rng.random())
        accuracy = pairwise_accuracy(pairs, lambda q, d: scores[(q, d)])
        assert abs(accuracy - 0.25) <= 0.02


def test_criterion_8_snrelu_properties():
    vocab = Vocabulary(f"t{i}" for i in range(12))
    rng = np.random.default_rng(20260207)
    with criterion(8, "signed activation properties", budget_seconds=1.0):
        cfg = ActivationConfig(epsilon=0.25, neg_formula="corrected", aggregation="sum")
        for _ in range(20):
            m = LogitMatrix(rng.normal(scale=2.0, size=(5, 12)), range(12), vocab)
            pos_vec = snrelu_activate(m, cfg)
            neg_vec = snrelu_activate(LogitMatrix(-m.values, m.term_ids, m.vocab), cfg)
            assert np.array_equal(pos_vec.ids, neg_vec.ids)
            assert np.array_equal(pos_vec.weights, -neg_vec.weights)

        eps = 0.6
        dead = LogitMatrix(rng.uniform(-eps, eps, size=(4, 12)), range(12), vocab)
        assert snrelu_activate(dead, ActivationConfig(epsilon=eps, aggregation="sum")).nnz == 0

        # worked column: pooled pos {0.5, 0} and neg {0, -0.8}
        eps = 0.25
        col = LogitMatrix(
            [[eps + (math.e**0.5 - 1.0)], [-eps - (math.e**0.8 - 1.0)]], [0], vocab
        )
        absmax = snrelu_activate(col, ActivationConfig(epsilon=eps, aggregation="absmax"))
        summed = snrelu_activate(col, ActivationConfig(epsilon=eps, aggregation="sum"))
        assert absmax.get(0) == pytest.approx(-0.8, rel=1e-9)
        assert summed.get(0) == pytest.approx(-0.3, rel=1e-9)


def test_criterion_9_metric_fixtures_and_round_trip(tmp_path):
    with criterion(9, "metric fixtures and persistence round trip", budget_seconds=10.0):
        qrels = Qrels()
        qrels.set("q1", "d1", 1)
        qrels.set("q1", "d2", 1)
        assert ndcg_at_k(["d1", "d3", "d2"], qrels, "q1", 3) == pytest.approx(0.9197, abs=1e-4)
        assert recall_at_k(["d1", "d9"], qrels, "q1", 2) == 0.5

        vocab = Vocabulary(f"t{i}" for i in range(60))
        rng = np.random.default_rng(20260208)
        vecs = [random_vector(rng, vocab, max_nnz=15) for _ in range(40)]
        names = [f"d{i:03d}" for i in range(40)]
        idx = build(zip(names, vecs), vocab)
        queries = [(f"q{i}", random_vector(rng, vocab, max_nnz=10)) for i in range(10)]

        path = tmp_path / "corpus.svix"
        save(idx, path)
        loaded = load(path)
        run_before = tmp_path / "before.trec"
        run_after = tmp_path / "after.trec"
        write_search_results(
            run_before, ((qid, search(idx, q, 20)) for qid, q in queries)
        )
        requeried = [
            (qid, SparseVector(q.ids, q.weights, loaded.vocab)) for qid, q in queries
        ]
        write_search_results(
            run_after, ((qid, search(loaded, q, 20)) for qid, q in requeried)
        )
        assert run_before.read_bytes() == run_after.read_bytes()
