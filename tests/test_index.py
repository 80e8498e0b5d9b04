import io
import os
import struct
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setvec import (
    CptDomainError,
    DuplicateDocError,
    IndexFormatError,
    SparseVector,
    VectorBatch,
    Vocabulary,
    VocabularyMismatchError,
    build,
    dot,
    expand_query,
    load,
    save,
    search,
    search_cpt,
    top_m,
)
from setvec import index as index_module
from setvec.cli import main
from setvec.index import _rank
from setvec.sparse import NEAR_ZERO

from conftest import brute_force, factorized_score, random_lattice_vector, random_vector


def _bits(hits):
    """Hits with each score as its exact bits, so 0.0 and -0.0 differ."""
    return [(name, score.hex()) for name, score in hits]


# Multiples of 1/16 in [-4, 4], zero excluded: signed, exactly representable.
lattice_weights = st.integers(-64, 64).filter(bool).map(lambda k: k / 16.0)
# Any weight the vector rule keeps, on the lattice or off it.
signed_weights = st.one_of(lattice_weights, st.floats(-4.0, 4.0).filter(lambda w: abs(w) >= NEAR_ZERO))


@st.composite
def searches(draw):
    """(terms, late terms, doc dicts, query dicts a and b, k); k may exceed the docs touched."""
    n_terms = draw(st.integers(1, 10))
    late = draw(st.integers(0, 2))
    docs = draw(st.lists(st.dictionaries(st.integers(0, n_terms - 1), signed_weights), min_size=1, max_size=12))
    query = st.dictionaries(st.integers(0, n_terms + late - 1), signed_weights, min_size=1)
    qa = draw(query)
    pairs = [d for d in docs if len(d) >= 2]
    if pairs and draw(st.booleans()):
        # One doc then scores d_s d_t - d_t d_s, exactly 0.0 whatever the weights.
        d = draw(st.sampled_from(pairs))
        s, t = sorted(draw(st.permutations(list(d)))[:2])
        qa = {u: w for u, w in qa.items() if u not in d}
        qa[s], qa[t] = d[t], -d[s]
    return n_terms, late, docs, qa, draw(query), draw(st.integers(1, len(docs) + 2))


# The oracle's fixed cases; between them they take every path of the scoring kernel.
ORACLE_EXAMPLES = [
    # d0 cancels to exactly 0.0 and must still be returned; t2 is added after build.
    # Both posted terms are head rows, and k exceeds the docs: the touched fallback.
    (2, 1, [{0: 1.0, 1: 1.0}, {0: 0.5}], {0: 1.0, 1: -1.0, 2: 3.0}, {1: 2.0}, 4),
    # t0 (4 of 5 docs) is a head row, t1 (1 of 5) a scatter; the 2nd score is positive.
    (2, 0, [{0: 1.0}, {0: 1.0}, {0: 0.5}, {0: 0.25}, {1: 2.0}], {0: 1.0, 1: 1.0}, {1: 1.0}, 2),
]


def with_examples(cases):
    """Apply ``@example(case)`` for every case, in order."""
    def apply(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return apply


def signed_case(case):
    """(names, doc vectors, index, query a) built from a :func:`searches` case."""
    n_terms, late, docs, qa, _, _ = case
    vocab = Vocabulary(f"t{i}" for i in range(n_terms))
    names = [f"d{i:02d}" for i in range(len(docs))]
    vecs = [SparseVector(list(d), list(d.values()), vocab) for d in docs]
    idx = build(zip(names, vecs), vocab)
    for i in range(late):
        vocab.add(f"late{i}")
    return names, vecs, idx, SparseVector(list(qa), list(qa.values()), vocab)


def unsigned_case(case):
    """(unsigned doc vectors, their index, CPT sides a and b) from a :func:`searches`
    case: the docs and both query sides with their weights' magnitudes."""
    _, _, _, qa, qb, _ = case
    names, vecs, _, q = signed_case(case)
    unsigned = [SparseVector(v.ids, np.abs(v.weights), q.vocab) for v in vecs]
    a, b = (SparseVector(list(d), np.abs(list(d.values())), q.vocab) for d in (qa, qb))
    return unsigned, build(zip(names, unsigned), q.vocab), a, b


def assert_matches_brute_force(docs, queries, ks):
    """search over an index of *docs* equals brute_force bit for bit, for every query and k."""
    vocab = Vocabulary(f"t{i}" for i in range(1 + max(t for d in docs for t in d)))
    names = [f"d{i:03d}" for i in range(len(docs))]
    idx = build(((name, SparseVector(list(d), list(d.values()), vocab)) for name, d in zip(names, docs)), vocab)
    for qd in queries:
        q = SparseVector(list(qd), list(qd.values()), vocab)
        for k in ks:
            assert _bits(search(idx, q, k)) == _bits(brute_force(docs, names, qd, k))
    return idx


@pytest.fixture
def small_corpus(vocab):
    docs = [
        ("d1", SparseVector.from_pairs([("colombia", 1.0)], vocab)),
        ("d2", SparseVector.from_pairs([("colombia", 1.0), ("venezuela", 1.0)], vocab)),
        ("d3", SparseVector.from_pairs([("venezuela", 1.0)], vocab)),
    ]
    return build(docs, vocab), vocab


class TestBuild:
    def test_posting_multiplicities(self, vocab):
        docs = [
            ("a", SparseVector.from_pairs([("t1", 1.0), ("t2", 2.0)], vocab)),
            ("b", SparseVector.from_pairs([("t2", 1.0), ("t3", 1.0)], vocab)),
            ("c", SparseVector.from_pairs([("t1", 1.0), ("t4", 1.0)], vocab)),
        ]
        idx = build(docs, vocab)
        sizes = {vocab.term(t): idx.postings(t)[0].size for t in range(len(vocab))}
        assert sizes == {"t1": 2, "t2": 2, "t3": 1, "t4": 1}

    def test_empty_corpus(self):
        vocab = Vocabulary(["x"])
        idx = build([], vocab)
        q = SparseVector.from_pairs([("x", 1.0)], vocab)
        assert idx.doc_count == 0
        assert search(idx, q, 5) == []

    def test_doc_with_empty_vector_registered(self, vocab):
        vocab.add("x")
        idx = build([("empty", SparseVector.empty(vocab))], vocab)
        assert idx.doc_count == 1
        assert idx.term_count == 0

    def test_duplicate_name_rejected(self, vocab):
        docs = [
            ("same", SparseVector.from_pairs([("a", 1.0)], vocab)),
            ("same", SparseVector.from_pairs([("b", 1.0)], vocab)),
        ]
        with pytest.raises(DuplicateDocError):
            build(docs, vocab)

    def test_empty_name_rejected(self, vocab):
        """An empty name is refused as load would refuse the saved file."""
        docs = [
            ("", SparseVector.from_pairs([("a", 1.0)], vocab)),
            ("d1", SparseVector.from_pairs([("b", 1.0)], vocab)),
        ]
        with pytest.raises(ValueError, match="document names must be non-empty strings"):
            build(docs, vocab)


def _names_index(tmp_path, names):
    """A crafted index over *names*, term "a" posted once in each doc: the loaded index."""
    path = tmp_path / "names.svix"
    write_raw_index(path, ["a"], names, [0, len(names)], range(len(names)), [1.0] * len(names))
    return load(path)


# Positions of two equal names among 50: first and last, adjacent, far apart.
DUPLICATE_PLACES = [(0, 49), (0, 1), (48, 49), (20, 21), (3, 40)]


class TestDocNames:
    @pytest.mark.parametrize("first, second", DUPLICATE_PLACES)
    def test_duplicate_refused_at_every_position(self, tmp_path, first, second):
        names = [f"n{i}" for i in range(50)]
        names[second] = names[first]
        with pytest.raises(IndexFormatError, match="empty or duplicate doc name"):
            _names_index(tmp_path, names)

    @pytest.mark.parametrize("at", [0, 25, 49])
    def test_empty_name_refused(self, tmp_path, at):
        names = [f"n{i}" for i in range(50)]
        names[at] = ""
        with pytest.raises(IndexFormatError, match="empty or duplicate doc name"):
            _names_index(tmp_path, names)

    def test_names_differing_in_one_multibyte_character(self, tmp_path):
        """Names of equal byte and character length that differ only inside one 2-, 3-
        or 4-byte character are distinct; the same names repeated are not."""
        names = ["naïve", "naîve", "a€b", "a₤b", "x𝄞", "x𝄢", "日本", "日木"]
        assert _names_index(tmp_path, names).doc_names == names
        with pytest.raises(IndexFormatError, match="empty or duplicate doc name"):
            _names_index(tmp_path, names + ["a₤b"])

    def test_names_whose_hashes_collide_are_compared(self, tmp_path, monkeypatch):
        """With every hash equal, distinct names still load and one repeat is refused:
        the check compares the names whose hashes collide, not only the hashes."""
        monkeypatch.setattr(index_module, "hash", lambda s: 7, raising=False)
        names = [f"n{i}" for i in range(50)]
        assert _names_index(tmp_path, names).doc_names == names
        names[40] = names[3]
        with pytest.raises(IndexFormatError, match="empty or duplicate doc name"):
            _names_index(tmp_path, names)

    def test_sequence_of_names(self, tmp_path):
        names = ["d0", "dé", "𝄞", "d3"]
        got = _names_index(tmp_path, names).doc_names
        assert len(got) == 4 and list(got) == names
        assert [got[i] for i in range(-4, 4)] == names + names
        for i in (4, -5):
            with pytest.raises(IndexError):
                got[i]
        assert got.take(np.array([3, 0, 3])) == ["d3", "d0", "d3"] and got.take(np.array([], np.intp)) == []
        assert got == names and got != names[:3] and got != names[::-1] and got != tuple(names)
        assert got == build(zip(names, [SparseVector.empty(Vocabulary())] * 4)).doc_names

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6), unique=True, max_size=12))
    def test_load_returns_the_saved_names(self, tmp_path_factory, names):
        """Random Unicode names load as saved and equal the built index's; save writes
        the independent encoder's bytes for them."""
        vocab = Vocabulary(["a"])
        built = build(VectorBatch(names, [1] * len(names), [0] * len(names), [1.0] * len(names), vocab))
        assert built.doc_names == names
        folder = tmp_path_factory.mktemp("names")
        save(built, folder / "saved.svix")
        write_raw_index(folder / "crafted.svix", ["a"], names, [0, len(names)], range(len(names)), [1.0] * len(names))
        assert (folder / "saved.svix").read_bytes() == (folder / "crafted.svix").read_bytes()
        loaded = load(folder / "saved.svix")
        assert loaded.doc_names == names and loaded.doc_names == built.doc_names
        assert [loaded.doc_names[i] for i in range(len(names))] == names

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=3), max_size=10))
    def test_build_refuses_what_load_would(self, tmp_path_factory, names):
        """build refuses an empty name, then a repeated one, as load does; every name
        list it accepts, non-ASCII included, loads back equal."""
        batch = VectorBatch(names, [1] * len(names), [0] * len(names), [1.0] * len(names), Vocabulary(["a"]))
        if "" in names:
            with pytest.raises(ValueError, match="non-empty"):
                build(batch)
        elif len(set(names)) < len(names):
            with pytest.raises(DuplicateDocError):
                build(batch)
        else:
            path = tmp_path_factory.mktemp("names") / "idx.svix"
            save(build(batch), path)
            assert load(path).doc_names == names

    def test_loaded_names_hold_their_text_and_8_bytes_a_doc(self, tmp_path):
        """After load, the doc names hold their text and an 8-byte bound a doc; a str
        object a doc would add about 50 bytes more each."""
        n_docs = 50_000
        names = [f"doc{i}" for i in range(n_docs)]
        path = tmp_path / "idx.svix"
        save(build(VectorBatch(names, [1] * n_docs, [0] * n_docs, [1.0] * n_docs, Vocabulary(["a"]))), path)
        tracemalloc.start()
        try:
            doc_names = load(path).doc_names  # the rest of the index is freed
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert doc_names == names
        assert held <= sum(map(len, names)) + 8 * n_docs + 2**14


class TestSearch:
    def test_signed_query_ranking(self, small_corpus):
        idx, vocab = small_corpus
        q = SparseVector.from_pairs([("colombia", 1.0), ("venezuela", -1.0)], vocab)
        assert search(idx, q, 10) == [("d1", 1.0), ("d2", 0.0), ("d3", -1.0)]

    def test_k_truncates(self, small_corpus):
        idx, vocab = small_corpus
        q = SparseVector.from_pairs([("colombia", 1.0), ("venezuela", -1.0)], vocab)
        assert search(idx, q, 1) == [("d1", 1.0)]

    def test_empty_query(self, small_corpus):
        idx, vocab = small_corpus
        assert search(idx, SparseVector.empty(vocab), 5) == []

    def test_untouched_docs_excluded(self, vocab):
        docs = [
            ("hit", SparseVector.from_pairs([("a", 1.0)], vocab)),
            ("miss", SparseVector.from_pairs([("b", 1.0)], vocab)),
        ]
        idx = build(docs, vocab)
        q = SparseVector.from_pairs([("a", 1.0)], vocab)
        assert search(idx, q, 10) == [("hit", 1.0)]

    def test_invalid_k(self, small_corpus):
        idx, vocab = small_corpus
        q = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        for k in (0, -1, 2.5):
            with pytest.raises(ValueError, match="^k must be a positive integer"):
                search(idx, q, k)
            with pytest.raises(ValueError, match="^k must be a positive integer"):
                search_cpt(idx, expand_query(q, q), q, q, k, candidate_pool=3)

    @settings(max_examples=200, deadline=None)
    @with_examples(ORACLE_EXAMPLES)
    @given(searches())
    def test_oracle_equivalence_small(self, case):
        """search equals brute_force, and search_cpt with a pool covering the
        corpus equals factorized_score, bit for bit."""
        _, _, docs, _, _, k = case
        names, vecs, idx, q = signed_case(case)
        expected = brute_force([dict(v.entries()) for v in vecs], names, dict(q.entries()), k)
        assert _bits(search(idx, q, k)) == _bits(expected)

        unsigned, unsigned_idx, a, b = unsigned_case(case)
        at, bt = top_m(a, 3), top_m(b, 3)
        sides = set(a.ids.tolist()) | set(b.ids.tolist())
        scored = sorted(
            (-factorized_score(at, bt, v), i)
            for i, v in enumerate(unsigned) if sides & set(v.ids.tolist())
        )
        hits = search_cpt(unsigned_idx, expand_query(a, b, 3), a, b, k, candidate_pool=len(docs))
        assert _bits(hits) == _bits([(names[i], -s) for s, i in scored[:k]])

    def test_oracle_examples_reach_every_kernel_path(self, monkeypatch):
        """The oracle's examples add a head row and scatter a term, for a search and for
        a CPT factor, and return search hits both from the ranking of every doc (k-th
        score positive) and of the touched docs."""
        ranked = []
        real_rank = index_module._rank
        monkeypatch.setattr(index_module, "_rank", lambda ids, *rest: ranked.append(ids is None) or real_rank(ids, *rest))

        def kernel_paths(idx, term_ids, kind):
            rows = idx.head_rows()
            return {f"{kind} {'head row' if t in rows else 'scatter'}" for t in term_ids if idx.postings(t) is not None}

        paths = set()
        for case in ORACLE_EXAMPLES:
            _, _, idx, q = signed_case(case)
            paths |= kernel_paths(idx, q.ids.tolist(), "search")
            ranked.clear()
            search(idx, q, case[-1])
            paths.add({(True,): "positive k-th", (False,): "touched fallback"}[tuple(ranked)])
            _, unsigned_idx, a, b = unsigned_case(case)
            x, y = expand_query(a, b, 3).side_ids()
            paths |= kernel_paths(unsigned_idx, x + y, "cpt")
        assert paths == {
            "search head row", "search scatter", "cpt head row", "cpt scatter", "positive k-th", "touched fallback",
        }

    def test_head_row_with_negative_weights(self):
        # t0 is posted in every doc with signed weights; t1 in one doc of eight.
        docs = [{0: -1.5}, {0: 2.0}, {0: -0.25, 1: 3.0}, {0: 0.5}, {0: -4.0}, {0: 1.0}, {0: -0.75}, {0: 0.125}]
        idx = assert_matches_brute_force(docs, [{0: 1.0}, {0: -2.0}, {0: -0.5, 1: 1.0}, {0: 3.0, 1: -1.0}], [1, 3, 8, 9])
        assert set(idx.head_rows()) == {0}

    def test_head_row_contributions_cancel_to_positive_zero(self):
        """Head rows that cancel leave +0.0 and the doc is returned; a negative weight times
        a row's 0.0 gives -0.0 at untouched docs, which the +0.0 accumulator absorbs."""
        docs = [{0: 1.0, 1: 1.0}, {0: 2.0, 1: 2.0}, {0: 0.5, 1: 0.5}, {2: 1.0}]
        queries = [{0: 1.0, 1: -1.0}, {0: -1.0, 1: -1.0}, {0: -1.0, 2: 1.0}, {2: -1.0}]
        idx = assert_matches_brute_force(docs, queries, [1, 2, 4, 5])
        assert set(idx.head_rows()) == {0, 1, 2}
        q = SparseVector([0, 1], [1.0, -1.0], idx.vocab)
        assert _bits(search(idx, q, 10)) == [(name, (0.0).hex()) for name in ("d000", "d001", "d002")]

    def test_every_term_a_head_row(self):
        # Every term is posted in 12 of the 16 docs, with signed weights.
        docs = [{t: ((3 * i + t) % 9 - 4 or 5) / 8 for t in range(4) if (i + t) % 4} for i in range(16)]
        queries = [{0: 1.0, 1: -0.5, 2: 2.0, 3: -1.0}, {1: 1.0}, {0: -1.0, 3: -1.0}]
        idx = assert_matches_brute_force(docs, queries, [1, 4, 16, 17])
        assert set(idx.head_rows()) == {0, 1, 2, 3}

    def test_no_head_row(self):
        # 40 docs, each term in at most 9 of them: every term is scattered.
        docs = [{i % 5: 1.0 + i / 16, 5 + i % 7: -0.5} for i in range(40)]
        queries = [{0: 1.0, 5: 1.0}, {1: -1.0, 6: 2.0, 11: 0.25}, {4: 0.5}]
        idx = assert_matches_brute_force(docs, queries, [1, 5, 40, 41])
        assert idx.head_rows() == {}

    def test_threads_share_the_first_build_of_head_rows(self):
        """Threads that each make the first search of a fresh index, then go on through
        the queries, get the same hits and one set of head rows: a second build would
        hand some thread other rows, and scores buffers shared between threads would
        mix their sums."""
        rng = np.random.default_rng(127)
        vocab = Vocabulary(f"t{i}" for i in range(20))
        vecs = [random_vector(rng, vocab, max_nnz=12) for _ in range(3000)]
        names = [f"d{i:04d}" for i in range(len(vecs))]
        queries = [random_vector(rng, vocab, max_nnz=20, min_nnz=20) for _ in range(24)]
        reference = build(zip(names, vecs), vocab)
        want = [search(reference, q, 50) for q in queries]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                idx = build(zip(names, vecs), vocab)
                start = threading.Barrier(4)
                results = [None] * 4

                def first_search(slot):
                    start.wait()
                    # Each thread starts at its own query, so that threads score different queries at once.
                    order = [(slot + i) % len(queries) for i in range(len(queries))]
                    hits = {i: search(idx, queries[i], 50) for i in order}
                    results[slot] = [hits[i] for i in range(len(queries))], idx.head_rows()

                threads = [threading.Thread(target=first_search, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert all(hits == want for hits, _ in results)
                assert results[0][1] and all(rows is results[0][1] for _, rows in results)
        finally:
            sys.setswitchinterval(switch)

    def test_negative_term_only_penalizes_docs_containing_it(self):
        # Lattice weights keep every score exact, so the comparison is exact.
        rng = np.random.default_rng(101)
        vocab = Vocabulary(f"t{i}" for i in range(30))
        vecs = [random_lattice_vector(rng, vocab, max_nnz=8) for _ in range(50)]
        names = [f"d{i:02d}" for i in range(50)]
        idx = build(zip(names, vecs), vocab)
        by_name = dict(zip(names, vecs))
        for _ in range(20):
            q = random_lattice_vector(rng, vocab, max_nnz=6, min_nnz=1)
            neg_term = int(rng.integers(0, len(vocab)))
            if q.get(neg_term) != 0.0:
                continue
            q_neg = SparseVector(
                np.append(q.ids, np.uint32(neg_term)),
                np.append(q.weights, -1.0),
                vocab,
            )
            before = dict(search(idx, q, 50))
            after = dict(search(idx, q_neg, 50))
            for name, score in before.items():
                assert after[name] <= score
                strictly = by_name[name].get(neg_term) > 0.0
                assert (after[name] < score) == strictly

    def test_deterministic_across_runs(self, small_corpus):
        idx, vocab = small_corpus
        q = SparseVector.from_pairs([("colombia", 2.0), ("venezuela", -0.5)], vocab)
        first = search(idx, q, 3)
        assert all(search(idx, q, 3) == first for _ in range(5))

    def test_second_search_reuses_the_threads_scores_arrays(self):
        """A thread's second search and second search_cpt write into the scores and
        product arrays its first one made: each traced peak stays below 8 bytes a
        doc, where a fresh float64 array of the doc count takes 8 and a head row's
        product 8 more."""
        rng = np.random.default_rng(23)
        n_docs, n_terms = 20_000, 40
        present = rng.random((n_docs, n_terms)) < np.linspace(0.9, 0.01, n_terms)
        ids = np.nonzero(present)[1]
        weights = rng.integers(1, 9, size=ids.size) / 8.0
        vocab = Vocabulary(f"t{i}" for i in range(n_terms))
        idx = build(VectorBatch([f"d{i}" for i in range(n_docs)], present.sum(axis=1), ids, weights, vocab))
        a = SparseVector.from_pairs([("t0", 1.0), ("t1", 0.5), ("t30", 2.0)], vocab)
        b = SparseVector.from_pairs([("t2", 1.0), ("t31", 1.5)], vocab)
        q_cpt = expand_query(a, b, 3)
        # Head rows and scattered terms both: t0-t2 are posted in over a quarter of the docs, t30 and t31 not.
        assert {0, 1, 2} <= set(idx.head_rows()) and not {30, 31} & set(idx.head_rows())
        for run in (lambda: search(idx, a, 10), lambda: search_cpt(idx, q_cpt, a, b, 10, candidate_pool=100)):
            first = run()
            tracemalloc.start()
            try:
                again = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert again == first
            assert peak < 8 * n_docs


# _touched's fixed cases: the oracle's, whose posted terms are all head rows or a head
# row and a scatter, and five docs of one term each, so no head row, where t5 indexes
# nothing and late0 is a query-only term.
TOUCHED_EXAMPLES = [
    *ORACLE_EXAMPLES,
    (6, 1, [{0: 1.0}, {1: 1.0}, {2: -1.0}, {3: 1.0}, {4: 0.5}], {0: 1.0, 2: 2.0, 5: 1.0, 6: -1.0}, {1: 1.0}, 1),
]


class TestTouched:
    @settings(max_examples=200, deadline=None)
    @with_examples(TOUCHED_EXAMPLES)
    @given(searches())
    def test_touched_is_the_docs_of_the_query_terms_postings(self, case):
        """_touched marks exactly the docs that hold a query term, whether the term has a
        head row, a scattered list, no postings or no place in the index at all."""
        _, _, docs, _, _, _ = case
        _, _, idx, q = signed_case(case)
        terms = set(q.ids.tolist())
        mask = index_module._touched(idx, q.ids)
        assert mask.dtype == bool and mask.shape == (idx.doc_count,)
        assert np.flatnonzero(mask).tolist() == [i for i, d in enumerate(docs) if terms & d.keys()]

    def test_examples_cover_head_rows_and_terms_without_postings(self):
        kinds = set()
        for case in TOUCHED_EXAMPLES:
            _, _, idx, q = signed_case(case)
            kinds.add("head rows" if idx.head_rows() else "no head row")
            for t in q.ids.tolist():
                if t >= idx.offsets.size - 1:
                    kinds.add("query-only term")
                elif idx.postings(t) is None:
                    kinds.add("term indexing nothing")
        assert kinds == {"head rows", "no head row", "query-only term", "term indexing nothing"}


class TestSearchCpt:
    @pytest.fixture
    def concept_corpus(self, vocab):
        docs = [
            ("both", SparseVector.from_pairs([("colombia", 1.0), ("venezuela", 1.0)], vocab)),
            ("col_only", SparseVector.from_pairs([("colombia", 1.0), ("andes", 1.0)], vocab)),
            ("ven_only", SparseVector.from_pairs([("venezuela", 1.0), ("andes", 1.0)], vocab)),
            ("other", SparseVector.from_pairs([("amazon", 1.0)], vocab)),
            ("rich_both", SparseVector.from_pairs(
                [("colombia", 2.0), ("venezuela", 2.0), ("andes", 1.0)], vocab)),
        ]
        return build(docs, vocab), vocab

    def test_both_sides_doc_ranked_first(self, concept_corpus):
        idx, vocab = concept_corpus
        a = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        b = SparseVector.from_pairs([("venezuela", 1.0)], vocab)
        q = expand_query(a, b)
        hits = search_cpt(idx, q, a, b, k=5, candidate_pool=5)
        assert hits[0][0] == "rich_both"  # sqrt(2)*sqrt(2) = 2
        assert hits[1] == ("both", 1.0)
        one_sided = {name: score for name, score in hits[2:]}
        assert set(one_sided) == {"col_only", "ven_only"}
        assert all(score == 0.0 for score in one_sided.values())

    def test_pool_covering_corpus_is_exhaustive(self, vocab):
        rng = np.random.default_rng(103)
        v = Vocabulary(f"t{i}" for i in range(25))
        vecs = [random_vector(rng, v, max_nnz=8, low=0.05, high=3.0) for _ in range(40)]
        names = [f"d{i:02d}" for i in range(40)]
        idx = build(zip(names, vecs), v)
        a = random_vector(rng, v, max_nnz=6, min_nnz=1, low=0.05, high=3.0)
        b = random_vector(rng, v, max_nnz=6, min_nnz=1, low=0.05, high=3.0)
        q = expand_query(a, b, 5)
        hits = search_cpt(idx, q, a, b, k=40, candidate_pool=40)
        at, bt = top_m(a, 5), top_m(b, 5)
        expected = []
        for doc_id, vec in enumerate(vecs):
            touched = bool(
                (set(a.ids.tolist()) | set(b.ids.tolist())) & set(vec.ids.tolist())
            )
            if touched:
                expected.append((doc_id, factorized_score(at, bt, vec)))
        expected.sort(key=lambda pair: (-pair[1], pair[0]))
        assert hits == [(names[d], s) for d, s in expected]

    def test_empty_side_returns_empty(self, concept_corpus):
        idx, vocab = concept_corpus
        a = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        empty = SparseVector.empty(vocab)
        q = expand_query(a, empty)
        assert search_cpt(idx, q, a, empty, k=5, candidate_pool=5) == []

    def test_negative_corpus_weights_rejected(self, vocab):
        docs = [("neg", SparseVector.from_pairs([("colombia", -1.0)], vocab))]
        idx = build(docs, vocab)
        assert set(idx.head_rows()) == {vocab.get("colombia")}
        a = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        b = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        q = expand_query(a, b)
        with pytest.raises(CptDomainError, match="^the posting of term 'colombia' carries negative weights"):
            search_cpt(idx, q, a, b, k=5, candidate_pool=5)

    @pytest.mark.parametrize(
        "a_term, b_term, named",
        [
            ("andes", "colombia", "andes"),  # a scattered posting of the first factor
            ("colombia", "venezuela", "venezuela"),  # the second factor only
            ("andes", "venezuela", "andes"),  # both factors: the first's term, though its id is higher
        ],
    )
    def test_negative_posting_named_in_factor_order(self, vocab, a_term, b_term, named):
        """A factor term's negative posting weight is a domain error naming that term; the
        first factor's terms are checked before the second's."""
        docs = [(f"d{i}", SparseVector.from_pairs([("colombia", 1.0 + i)], vocab)) for i in range(6)]
        docs.append(("v", SparseVector.from_pairs([("colombia", 1.0), ("venezuela", -1.0)], vocab)))
        docs.append(("a", SparseVector.from_pairs([("colombia", 1.0), ("andes", -2.0)], vocab)))
        idx = build(docs, vocab)
        # colombia (8 of 8 docs) is a head row; venezuela and andes (1 of 8) are scattered.
        assert set(idx.head_rows()) == {vocab.get("colombia")}
        assert vocab.get("venezuela") < vocab.get("andes")
        a = SparseVector.from_pairs([(a_term, 1.0)], vocab)
        b = SparseVector.from_pairs([(b_term, 1.0)], vocab)
        with pytest.raises(CptDomainError, match=f"^the posting of term '{named}' carries negative weights"):
            search_cpt(idx, expand_query(a, b), a, b, k=5, candidate_pool=8)

    def test_negative_weight_outside_the_factors_allowed(self, vocab):
        """Only the factor terms' postings need the sqrt domain; other terms may be negative."""
        docs = [
            ("d1", SparseVector.from_pairs([("colombia", 1.0), ("venezuela", 4.0), ("andes", -1.0)], vocab)),
            ("d2", SparseVector.from_pairs([("colombia", 4.0), ("venezuela", 1.0)], vocab)),
        ]
        idx = build(docs, vocab)
        a = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        b = SparseVector.from_pairs([("venezuela", 1.0)], vocab)
        assert search_cpt(idx, expand_query(a, b), a, b, k=5, candidate_pool=5) == [("d1", 2.0), ("d2", 2.0)]

    def test_negative_query_side_rejected(self, vocab):
        docs = [("d", SparseVector.from_pairs([("colombia", 1.0)], vocab))]
        idx = build(docs, vocab)
        pos = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        neg = SparseVector.from_pairs([("colombia", -1.0)], vocab)
        q = expand_query(pos, pos)
        with pytest.raises(CptDomainError):
            search_cpt(idx, q, neg, pos, k=5, candidate_pool=5)

    def test_pseudo_term_query_from_another_vocabulary_rejected(self):
        """A term id means a term only in its own vocabulary, so search_cpt refuses a
        pseudo-term query built over another one, as search does for a vector."""
        vocab = Vocabulary()
        rows = [("d1", {"a": 1.0, "b": 4.0}), ("d2", {"a": 4.0, "b": 1.0}), ("d3", {"a": 1.0, "c": 9.0})]
        idx = build([(name, SparseVector.from_pairs(vec.items(), vocab)) for name, vec in rows], vocab)
        a, b = (SparseVector.from_pairs([(t, 1.0)], vocab) for t in "ab")
        assert search_cpt(idx, expand_query(a, b), a, b, 10, 10) == [("d1", 2.0), ("d2", 2.0), ("d3", 0.0)]
        other = Vocabulary(["c", "a", "b"])
        a_other, b_other = (SparseVector.from_pairs([(t, 1.0)], other) for t in "ab")
        with pytest.raises(VocabularyMismatchError):
            search(idx, a_other, 10)
        with pytest.raises(VocabularyMismatchError):
            search_cpt(idx, expand_query(a_other, b_other), a, b, 10, 10)


class TestPersistence:
    def test_round_trip_search_identical(self, tmp_path, vocab):
        rng = np.random.default_rng(107)
        v = Vocabulary(f"term-{i}" for i in range(40))
        vecs = [random_vector(rng, v, max_nnz=12) for _ in range(30)]
        names = [f"doc/{i}" for i in range(30)]
        idx = build(zip(names, vecs), v)
        path = tmp_path / "corpus.svix"
        save(idx, path)
        loaded = load(path)
        assert loaded.doc_names == idx.doc_names
        assert loaded.vocab.terms == v.terms
        for _ in range(10):
            q = random_vector(rng, v, max_nnz=8)
            q2 = SparseVector(q.ids, q.weights, loaded.vocab)
            assert search(idx, q, 10) == search(loaded, q2, 10)

    def test_empty_index_round_trip(self, tmp_path):
        vocab = Vocabulary(["x"])
        idx = build([], vocab)
        path = tmp_path / "empty.svix"
        save(idx, path)
        loaded = load(path)
        assert loaded.doc_count == 0
        q = SparseVector.from_pairs([("x", 1.0)], loaded.vocab)
        assert search(loaded, q, 3) == []

    def test_truncated_file_rejected(self, tmp_path, small_corpus):
        idx, _ = small_corpus
        path = tmp_path / "idx.svix"
        save(idx, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(IndexFormatError):
            load(path)

    def test_corrupt_byte_rejected(self, tmp_path, small_corpus):
        idx, _ = small_corpus
        path = tmp_path / "idx.svix"
        save(idx, path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_an_index"
        path.write_bytes(b"PLAINTEXT")
        with pytest.raises(IndexFormatError):
            load(path)

    @pytest.mark.parametrize("version", [999, 1, 2, 3])
    def test_version_mismatch_rejected(self, tmp_path, small_corpus, version):
        idx, _ = small_corpus
        path = tmp_path / "idx.svix"
        save(idx, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, version)  # change version, then re-checksum
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        message = f"unsupported format version {version}; rebuild the index with `setvec index`"
        with pytest.raises(IndexFormatError, match=message):
            load(path)

    @pytest.mark.parametrize("distinct", [256, 257, 65536, 65537])
    def test_round_trip_per_code_width(self, tmp_path, distinct):
        """Tables on each side of the 1-, 2- and 4-byte code limits: save writes the
        independent encoder's exact bytes, and load returns the built columns, table
        and codes included, bit for bit."""
        rng = np.random.default_rng(distinct)
        # Signed, nonzero and distinct; term "b" repeats a few of them.
        values = rng.permutation((np.arange(distinct) - distinct // 2 + 0.5) / 8.0)
        lengths = 1 + (np.arange(distinct) % 2 == 0)
        ids = np.zeros(int(lengths.sum()), dtype=np.uint32)
        ids[np.cumsum(lengths)[lengths == 2] - 1] = 1
        weights = np.empty(ids.size)
        weights[ids == 0] = values
        weights[ids == 1] = values[np.arange(np.count_nonzero(ids)) % 7]
        vocab = Vocabulary(["a", "b"])
        names = [f"doc{i}" for i in range(distinct)]
        idx = build(VectorBatch(names, lengths, ids, weights, vocab))
        saved, crafted = tmp_path / "saved.svix", tmp_path / "crafted.svix"
        save(idx, saved)
        # Term "a" lists every doc in order, then term "b" its docs.
        posted = np.concatenate([weights[ids == 0], weights[ids == 1]]).tolist()
        write_raw_index(crafted, vocab.terms, names, idx.offsets.tolist(), idx.doc_ids, posted)
        assert saved.read_bytes() == crafted.read_bytes()
        loaded = load(saved)
        assert loaded.doc_names == names and loaded.vocab.terms == vocab.terms
        for column in ("offsets", "doc_ids", "table", "codes"):
            got, want = getattr(loaded, column), getattr(idx, column)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("distinct, width", [(256, 1), (257, 2), (65536, 2), (65537, 4)])
    def test_search_per_code_width(self, tmp_path, monkeypatch, distinct, width):
        """At each code width, built and loaded indexes return the same hits, scored
        as dot() scores them bit for bit, over a head row, scatters, the positive
        k-th return and the touched fallback."""
        rng = np.random.default_rng(distinct)
        n_docs = distinct // 4 + 1
        # Every doc holds head term t0 and 3 of the 64 scattered terms t1..t64.
        picks = np.sort(np.argsort(rng.random((n_docs, 64)), axis=1)[:, :3] + 1, axis=1)
        ids = np.column_stack([np.zeros(n_docs, dtype=np.int64), picks]).ravel()
        values = (np.arange(distinct) - distinct // 2 + 0.5) / 8.0
        weights = rng.permutation(np.concatenate([values, values[: ids.size - distinct]]))
        vocab = Vocabulary(f"t{i}" for i in range(65))
        names = [f"d{i}" for i in range(n_docs)]
        batch = VectorBatch(names, np.full(n_docs, 4), ids, weights, vocab)
        built = build(batch)
        assert built.table.size == distinct and built.codes.dtype.itemsize == width
        save(built, tmp_path / "idx.svix")
        loaded = load(tmp_path / "idx.svix")
        # Mixed signs over the head term, all negative with and without it.
        queries = [{0: 1.5, 5: -2.0, 9: 0.75, 40: 1.25}, {0: -1.0, 7: -0.5}, {7: -0.5, 30: -1.25}]
        ranked = []
        real_rank = index_module._rank
        monkeypatch.setattr(index_module, "_rank", lambda ids, *rest: ranked.append(ids is None) or real_rank(ids, *rest))
        for qd in queries:
            q = SparseVector(list(qd), list(qd.values()), vocab)
            scored = sorted((-dot(q, vec), i) for i, (_, vec) in enumerate(batch) if qd.keys() & set(vec.ids.tolist()))
            for k in (10, n_docs + 1):
                expected = [(names[i], -s) for s, i in scored[:k]]
                assert _bits(search(built, q, k)) == _bits(expected)
                q_loaded = SparseVector(q.ids, q.weights, loaded.vocab)
                assert _bits(search(loaded, q_loaded, k)) == _bits(expected)
        assert set(built.head_rows()) == set(loaded.head_rows()) == {0}
        assert True in ranked and False in ranked

    def test_load_keeps_no_float64_weight_column(self, tmp_path):
        """load's traced peak holds at most the file, 1-byte codes and the doc ids
        while their gaps inflate (4 + 4 bytes): 9 bytes a posting plus the file.
        A float64 weight per posting, kept or passed through, adds 8 more."""
        rng = np.random.default_rng(17)
        n_docs, n_terms = 2000, 400
        present = rng.random((n_docs, n_terms)) < 0.5
        ids = np.nonzero(present)[1]
        weights = rng.integers(1, 5, size=ids.size) / 16.0
        vocab = Vocabulary(f"t{i}" for i in range(n_terms))
        path = tmp_path / "idx.svix"
        save(build(VectorBatch([f"d{i}" for i in range(n_docs)], present.sum(axis=1), ids, weights, vocab)), path)
        assert ids.size >= 100_000
        tracemalloc.start()
        try:
            loaded = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The strings and offsets take well under the 1 MiB of slack; 8 bytes a posting is 3.2 MB.
        assert peak < 9 * ids.size + path.stat().st_size + 2**20
        assert loaded.codes.itemsize == 1

    def test_load_inflates_no_whole_stream(self, tmp_path):
        """load's traced peak holds the 1-byte codes and the doc ids (1 + 4 bytes a
        posting): the file is read a piece at a time and never held, the streams
        inflate piece by piece into their arrays, and doc-id order is checked a
        block at a time.  Holding the file adds its size (317 KB here), inflating
        the whole gap stream before copying it into the doc ids 4 bytes a posting,
        and an order mask over every posting 1 byte."""
        rng = np.random.default_rng(17)
        n_docs, n_terms = 2000, 400
        present = rng.random((n_docs, n_terms)) < 0.5
        ids = np.nonzero(present)[1]
        weights = rng.integers(1, 5, size=ids.size) / 16.0
        vocab = Vocabulary(f"t{i}" for i in range(n_terms))
        path = tmp_path / "idx.svix"
        save(build(VectorBatch([f"d{i}" for i in range(n_docs)], present.sum(axis=1), ids, weights, vocab)), path)
        assert ids.size >= 400_000
        tracemalloc.start()
        try:
            loaded = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The strings, the offsets and the pieces fit in the 256 KiB of slack.
        assert peak < 5 * ids.size + 2**18
        assert loaded.codes.itemsize == 1

    def test_build_frees_the_term_order_before_counting(self):
        """build's traced peak is 17 bytes a posting with 1-byte codes: the
        term sort's int64 order beside the codes and two uint32 doc-id columns
        (8 + 1 + 4 + 4); the batch arrives with its weights coded.  Keeping
        that order while bincount takes an int64 copy of the term ids raised it
        to 21."""
        rng = np.random.default_rng(17)
        n_docs, n_terms = 2000, 400
        present = rng.random((n_docs, n_terms)) < 0.5
        ids = np.nonzero(present)[1]
        weights = rng.integers(1, 5, size=ids.size) / 16.0
        vocab = Vocabulary(f"t{i}" for i in range(n_terms))
        batch = VectorBatch([f"d{i}" for i in range(n_docs)], present.sum(axis=1), ids, weights, vocab)
        assert ids.size >= 400_000
        tracemalloc.start()
        try:
            idx = build(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The names' table and the offsets take well under one byte a posting.
        assert peak < 18 * ids.size
        assert idx.codes.itemsize == 1

    def test_unwritable_path(self, tmp_path, small_corpus):
        idx, _ = small_corpus
        with pytest.raises(OSError):
            save(idx, tmp_path / "missing" / "idx.svix")


def write_raw_index(path, terms, names, offsets, doc_ids, weights, table=None, codes=None,
                    name_lengths=None, name_blob=None, offsets_stream=None, tail=b"", cut=None):
    """Independent v4 encoder for crafted files; str or raw bytes strings, valid CRC.

    Every array is a level-1 zlib stream of its values' byte planes.  The
    weight table defaults to the sorted distinct weights and the codes to
    each weight's place in it; *table*, *codes*, *name_lengths* (the stream
    of the doc names' byte lengths, whose count stays the names'),
    *name_blob* (the bytes of the doc names' blob stream, whose stated size
    stays the names' bytes) and *offsets_stream* (the raw bytes of the
    offsets' stream) override what the other arguments imply.  *cut* keeps
    only that many bytes of the body, or, given a field's name such as "doc
    name blob size", the body up to one byte into that field, before the CRC
    is taken.
    """
    buf = bytearray()
    starts = {}  # each field's offset in the body, for a cut by name

    def put(field, data):
        starts[field] = len(buf)
        buf.extend(data)

    def byte_planes(fmt, values):
        raw = struct.pack(f"<{len(values)}{fmt}", *values)
        width = struct.calcsize(fmt)
        # Level 1, as save uses, so that a valid index encodes to save's very bytes.
        return zlib.compress(b"".join(raw[plane::width] for plane in range(width)), 1)

    def string_table(what, strings, lengths=None, blob=None):
        raw = [s if isinstance(s, bytes) else s.encode("utf-8") for s in strings]
        joined = b"".join(raw)
        put(f"{what} count", struct.pack("<I", len(raw)))
        put(f"{what} lengths", byte_planes("I", [len(r) for r in raw] if lengths is None else lengths))
        put(f"{what} blob size", struct.pack("<Q", len(joined)))
        put(f"{what} blob", byte_planes("B", joined if blob is None else blob))

    if table is None:
        table = sorted(set(weights))
    if codes is None:
        position = {w: i for i, w in enumerate(table)}
        codes = [position[w] for w in weights]
    code_fmt = "B" if len(table) <= 2**8 else "H" if len(table) <= 2**16 else "I"
    ids = [int(d) for d in doc_ids]
    gaps = [(d - prev) % 2**32 for prev, d in zip([0] + ids, ids)]
    put("header", b"SVIX" + struct.pack("<I", 4))
    string_table("vocabulary term", terms)
    string_table("doc name", names, name_lengths, name_blob)
    put("offsets", byte_planes("q", offsets) if offsets_stream is None else offsets_stream)
    put("weight table size", struct.pack("<I", len(table)))
    put("weight table", byte_planes("d", table))
    put("weights", byte_planes(code_fmt, codes))
    put("doc-id gaps", byte_planes("I", gaps) + tail)
    buf = buf[:starts[cut] + 1 if isinstance(cut, str) else cut]
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    path.write_bytes(bytes(buf))


# Two terms over three docs: "a" -> d0, d2; "b" -> d1.
VALID_PARTS = dict(
    terms=["a", "b"],
    names=["d0", "d1", "d2"],
    offsets=[0, 2, 3],
    doc_ids=[0, 2, 1],
    weights=[1.5, -2.0, 0.25],
)


# Crafted files the loader must refuse, as changes to VALID_PARTS, with the message they raise.
MALFORMED_PARTS = [
    ({"terms": [b"\xffa", "b"]}, "UTF-8"),
    ({"names": ["d0", b"d\xc3", "d2"]}, "UTF-8"),
    ({"terms": ["", "b"]}, "empty or duplicate vocabulary term"),
    ({"terms": ["a", "a"]}, "empty or duplicate vocabulary term"),
    ({"names": ["d0", "d1", "d0"]}, "empty or duplicate doc name"),
    ({"offsets": [1, 2, 3]}, "offsets"),
    ({"offsets": [0, 2, 1], "doc_ids": [0], "weights": [1.0]}, "offsets"),
    ({"offsets": [0, 2**62, 2**62]}, "offsets"),
    ({"offsets": [0, 2, 4]}, "weight stream does not hold 4 values"),
    ({"offsets": [0, 2, 2]}, "weight stream does not hold 2 values"),
    ({"doc_ids": [0, 3, 1]}, "doc id out of range"),
    ({"doc_ids": [2, 0, 1]}, "strictly increasing"),
    ({"doc_ids": [2, 2, 1]}, "strictly increasing"),
    ({"offsets": [0, 0, 3], "doc_ids": [0, 2, 1]}, "strictly increasing"),
    ({"weights": [1.5, float("nan"), 0.25]}, "non-finite"),
    ({"weights": [1.5, -2.0, float("-inf")]}, "non-finite"),
    ({"tail": b"\0"}, "trailing bytes"),
    ({"codes": [2, 3, 1]}, "weight code out of range"),
    ({"codes": [2, 255, 1]}, "weight code out of range"),
    ({"table": [0.25, -2.0, 1.5], "codes": [2, 1, 0]}, "weight table not strictly increasing"),
    ({"table": [-2.0, 0.25, 0.25, 1.5], "codes": [3, 0, 2]}, "weight table not strictly increasing"),
    ({"table": [-2.0, 0.25, float("nan")], "codes": [1, 0, 1]}, "non-finite"),
    ({"weights": [1.5, 0.0, 0.25]}, "zero or near-zero weight"),
    ({"weights": [1.5, -0.0, 0.25]}, "zero or near-zero weight"),
    ({"name_lengths": [2, 2, 3]}, "doc name lengths do not sum to the string blob size"),
    ({"name_lengths": [2, 2, 1]}, "doc name lengths do not sum to the string blob size"),
    ({"cut": "doc name blob size"}, "truncated doc name blob size"),
    ({"cut": 10}, "truncated index file"),
    # A valid blob, but the second length splits the 2-byte "é".
    ({"names": ["d0", "dé", "d2"], "name_lengths": [2, 2, 3]}, "invalid UTF-8 in a string block"),
    # Three names whose lengths stream holds two, and whose blob stream holds 5 of their 6 bytes.
    ({"name_lengths": [2, 2]}, "doc name lengths stream does not hold 3 values"),
    ({"name_blob": b"d0d1d"}, "doc name blob stream does not hold 6 values"),
    ({"offsets_stream": b"no zlib stream"}, "corrupt offsets stream"),
]

# Piece sizes for the loader's streams that split them, and their byte planes, in many places.
PIECE_SIZES = (1, 3, 7, 64)
# Pieces of a file's size: the loader's default and one of 64 KiB, larger than it.
WHOLE_PIECES = tuple(sorted({index_module.PIECE, 1 << 16}))


@st.composite
def raw_index_parts(draw):
    """write_raw_index arguments for a valid index: up to 6 terms over up to 8 docs
    named by 1 to 6 characters of any width, and a table of up to 300 weights, so
    that codes take 1 or 2 bytes."""
    n_docs = draw(st.integers(0, 8))
    n_terms = draw(st.integers(1, 6))
    name = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
    lists = [sorted(draw(st.sets(st.integers(0, max(n_docs - 1, 0)), max_size=n_docs))) for _ in range(n_terms)]
    table = [k / 16.0 for k in sorted(draw(st.sets(st.integers(-400, 400).filter(bool), min_size=1, max_size=300)))]
    n_postings = sum(map(len, lists))
    codes = draw(st.lists(st.integers(0, len(table) - 1), min_size=n_postings, max_size=n_postings))
    return dict(
        terms=[f"t{i}" for i in range(n_terms)],
        names=draw(st.lists(name, min_size=n_docs, max_size=n_docs, unique=True)),
        offsets=np.cumsum([0] + [len(ids) for ids in lists]).tolist(),
        doc_ids=[d for ids in lists for d in ids],
        weights=None,
        table=table,
        codes=codes,
    )


class TestLoaderStructure:
    def test_crafted_valid_file_loads(self, tmp_path):
        path = tmp_path / "ok.svix"
        write_raw_index(path, **VALID_PARTS)
        idx = load(path)
        assert idx.doc_names == ["d0", "d1", "d2"]
        ids, weights = idx.postings(idx.vocab.get("a"))
        assert ids.tolist() == [0, 2] and weights.tolist() == [1.5, -2.0]
        q = SparseVector.from_pairs([("a", 1.0), ("b", 1.0)], idx.vocab)
        assert search(idx, q, 5) == [("d0", 1.5), ("d1", 0.25), ("d2", -2.0)]

    def test_multibyte_strings_load(self, tmp_path):
        """Strings of 1- to 4-byte characters are sliced at their character offsets."""
        path = tmp_path / "utf8.svix"
        write_raw_index(path, **{**VALID_PARTS, "terms": ["añ", "€b"], "names": ["𝄞", "d", "日本語"]})
        idx = load(path)
        assert list(idx.vocab.terms) == ["añ", "€b"] and idx.doc_names == ["𝄞", "d", "日本語"]

    @pytest.mark.parametrize("change, message", MALFORMED_PARTS)
    def test_malformed_structure_rejected(self, tmp_path, change, message):
        path = tmp_path / "bad.svix"
        write_raw_index(path, **{**VALID_PARTS, **change})
        with pytest.raises(IndexFormatError, match=message):
            load(path)

    @pytest.mark.parametrize("change, message", MALFORMED_PARTS)
    def test_malformed_message_same_at_every_piece_size(self, tmp_path, monkeypatch, change, message):
        path = tmp_path / "bad.svix"
        write_raw_index(path, **{**VALID_PARTS, **change})
        with pytest.raises(IndexFormatError, match=message) as want:
            load(path)
        for piece in PIECE_SIZES:
            monkeypatch.setattr(index_module, "PIECE", piece)
            with pytest.raises(IndexFormatError) as got:
                load(path)
            assert str(got.value) == str(want.value)

    @settings(max_examples=40, deadline=None)
    @given(raw_index_parts())
    def test_piece_size_changes_no_loaded_column(self, tmp_path_factory, parts):
        """Pieces that split every stream, and its byte planes, in many places load
        the columns that one piece per stream loads, bit for bit: a zlib stream
        takes at least 8 bytes, so pieces of 1, 3 and 7 bytes split the string
        tables' lengths and blobs and the offsets as well as the postings."""
        path = tmp_path_factory.mktemp("pieces") / "idx.svix"
        write_raw_index(path, **parts)
        want = load(path)
        assert want.table.tolist() == parts["table"] and want.codes.tolist() == parts["codes"]
        assert want.doc_ids.tolist() == parts["doc_ids"] and want.offsets.tolist() == parts["offsets"]
        assert want.doc_names == parts["names"] and list(want.vocab.terms) == parts["terms"]
        for piece in PIECE_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(index_module, "PIECE", piece)
                got = load(path)
            assert got.doc_names == want.doc_names and got.vocab.terms == want.vocab.terms
            for column in ("offsets", "doc_ids", "table", "codes"):
                a, b = getattr(got, column), getattr(want, column)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("piece", PIECE_SIZES)
    def test_decreasing_pair_across_a_block_boundary_refused(self, tmp_path, monkeypatch, piece):
        """Doc-id order is checked in blocks of PIECE postings that overlap by one: a
        list whose only decreasing pair is its postings piece - 1 and piece, the last
        of one block and the first of the next, is refused."""
        ids = list(range(2 * piece + 2))
        ids[piece - 1], ids[piece] = ids[piece], ids[piece - 1]
        path = tmp_path / "idx.svix"
        write_raw_index(path, ["a"], [f"d{i}" for i in ids], [0, len(ids)], ids, [1.0] * len(ids))
        monkeypatch.setattr(index_module, "PIECE", piece)
        with pytest.raises(IndexFormatError, match="doc ids not strictly increasing within a posting list"):
            load(path)

    @pytest.mark.parametrize("piece", PIECE_SIZES)
    def test_list_starting_on_a_block_boundary_loads(self, tmp_path, monkeypatch, piece):
        """A list may start below the last doc id of the list before it, whether it
        starts just before, on or just after a block boundary."""
        n_docs = 2 * piece + 2
        monkeypatch.setattr(index_module, "PIECE", piece)
        for start in (piece - 1, piece, piece + 1):
            # Term "a" posts docs 0 .. start - 1, then term "b" every doc from 0.
            doc_ids = list(range(start)) + list(range(n_docs))
            path = tmp_path / f"start{start}.svix"
            write_raw_index(path, ["a", "b"], [f"d{i}" for i in range(n_docs)], [0, start, len(doc_ids)],
                            doc_ids, [1.0] * len(doc_ids))
            assert load(path).doc_ids.tolist() == doc_ids

    def test_stream_ends_on_or_inside_a_piece(self, tmp_path, monkeypatch):
        """The weight codes' stream is longer than its 3 codes, so its first piece
        reads all of it that fits: a piece of the stream's size ends the stream on
        the piece's boundary, and a piece one byte longer ends it inside, before the
        gap stream's first byte.  Both find the same end and load the same columns."""
        path = tmp_path / "idx.svix"
        write_raw_index(path, **VALID_PARTS)
        spans = []
        real_inflate = index_module._inflate

        def inflate(body, *rest):
            # The bytes left before and after the stream: its start and end from the file's end.
            start = -body.left()
            values = real_inflate(body, *rest)
            spans.append((start, -body.left()))
            return values

        monkeypatch.setattr(index_module, "_inflate", inflate)
        want = load(path)
        # The string tables' four streams, the offsets', the table's, the codes', then the gaps'.
        assert len(spans) == 8
        start, end = spans[6]
        assert end - start > 3 + 1
        for piece in (end - start, end - start + 1):
            monkeypatch.setattr(index_module, "PIECE", piece)
            spans.clear()
            got = load(path)
            assert spans[6] == (start, end)
            for column in ("doc_ids", "table", "codes"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_hostile_count_refused_before_allocating(self, tmp_path):
        """Offsets that claim 448 x 448 postings over a 3-posting stream are refused
        at zlib's 1032:1 bound, before a value is allocated: load's traced peak
        beyond the file stays within 64 KiB of a file with the same strings that
        claims one posting too many.  The claimed codes alone would take 196 KiB."""
        n = 448
        parts = {**VALID_PARTS, "terms": [f"t{i}" for i in range(n)], "names": [f"d{i}" for i in range(n)]}
        peaks = []
        for count, offsets in ((n * n, [0] + [n * (t + 1) for t in range(n)]), (4, [0, 2] + [4] * (n - 1))):
            path = tmp_path / f"claims-{count}.svix"
            write_raw_index(path, **{**parts, "offsets": offsets})
            tracemalloc.start()
            try:
                with pytest.raises(IndexFormatError, match=f"weight stream does not hold {count} values"):
                    load(path)
                peaks.append(tracemalloc.get_traced_memory()[1] - path.stat().st_size)
            finally:
                tracemalloc.stop()
        assert n * n >= 200_000
        assert peaks[0] < peaks[1] + 2**16

    def test_hostile_string_count_refused_before_allocating(self, tmp_path):
        """A vocabulary that claims 2**32 - 1 terms over a lengths stream of a few
        bytes is refused at zlib's 1032:1 bound before its lengths are allocated:
        load's traced peak stays under 64 KiB, where the claimed lengths alone
        would take 16 GiB."""
        path = tmp_path / "claims.svix"
        data = index_module.MAGIC + struct.pack("<II", 4, 2**32 - 1) + zlib.compress(bytes(16), 1) + bytes(8)
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        tracemalloc.start()
        try:
            with pytest.raises(IndexFormatError, match=f"vocabulary term lengths stream does not hold {2**32 - 1} values"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_overlong_stream_inflates_one_byte_past_its_size(self, tmp_path):
        """A codes stream of 2**20 codes where the offsets imply 3 is refused once it
        has inflated one byte past them: load's traced peak stays within 64 KiB of
        the file, where inflating the whole stream would take 1 MiB."""
        path = tmp_path / "overlong.svix"
        write_raw_index(path, **{**VALID_PARTS, "codes": [2, 0, 1] + [0] * (2**20 - 3)})
        tracemalloc.start()
        try:
            with pytest.raises(IndexFormatError, match="weight stream does not hold 3 values"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + 2**16

    def test_stream_cut_short_rejected_at_every_piece_size(self, tmp_path, monkeypatch):
        """A gap stream whose last bytes are cut off (the checksum taken after the cut)
        ends the file before zlib ends the stream."""
        path = tmp_path / "cut.svix"
        write_raw_index(path, **VALID_PARTS)
        write_raw_index(path, **VALID_PARTS, cut=path.stat().st_size - 4 - 2)
        for piece in (index_module.PIECE,) + PIECE_SIZES:
            monkeypatch.setattr(index_module, "PIECE", piece)
            with pytest.raises(IndexFormatError, match="doc-id gap stream does not hold 3 values"):
                load(path)

    @pytest.mark.parametrize("piece", WHOLE_PIECES + PIECE_SIZES)
    def test_flipped_or_cut_file_is_a_checksum_mismatch(self, tmp_path, monkeypatch, piece):
        """A byte flipped anywhere after the magic, the version and the CRC included, and
        a file cut short anywhere past the magic fail the checksum, whatever the parse
        of those bytes raised."""
        monkeypatch.setattr(index_module, "PIECE", piece)
        good = tmp_path / "ok.svix"
        write_raw_index(good, **VALID_PARTS)
        data = good.read_bytes()
        variants = [data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:] for at in range(4, len(data))]
        variants += [data[:size] for size in range(12, len(data))]
        path = tmp_path / "bad.svix"
        for variant in variants:
            path.write_bytes(variant)
            with pytest.raises(IndexFormatError, match="checksum mismatch"):
                load(path)

    @pytest.mark.parametrize("piece", WHOLE_PIECES + (7,))
    def test_load_reads_each_byte_once(self, tmp_path, monkeypatch, piece):
        """load reads a regular file through the read of the file it opens, each byte
        once, with at most 8 bytes to spare, on a file of more than one default
        piece; a checksum pass before the parse would read it twice."""
        monkeypatch.setattr(index_module, "PIECE", piece)
        rng = np.random.default_rng(7)
        present = rng.random((500, 300)) < 0.5
        ids = np.nonzero(present)[1]
        weights = rng.integers(-40, 40, size=ids.size) / 8.0 + 1 / 16
        vocab = Vocabulary(f"t{i}" for i in range(300))
        path = tmp_path / "idx.svix"
        save(build(VectorBatch([f"d{i}" for i in range(500)], present.sum(axis=1), ids, weights, vocab)), path)
        assert path.stat().st_size > 2**16
        read = []

        class CountingFile(io.FileIO):
            def read(self, count=-1):
                chunk = super().read(count)
                read.append(len(chunk))
                return chunk

        monkeypatch.setattr(index_module, "open", lambda file, mode, buffering: CountingFile(file, mode), raising=False)
        assert load(path).doc_names[-1] == "d499"
        assert path.stat().st_size <= sum(read) <= path.stat().st_size + 8

    @pytest.mark.parametrize("crc_offset", [0, 1])
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_version_is_checked_before_structure(self, tmp_path, version, crc_offset):
        """An old version's header over 40 bytes that are no version-4 body is refused
        for its version when its CRC is valid, and as a checksum mismatch when its
        CRC is off by one; as version 4, the same bytes fail on structure: their
        first four claim 0x03020100 vocabulary terms, whose lengths 36 bytes cannot
        inflate to."""
        path = tmp_path / "old.svix"

        def write(version, crc_offset):
            data = index_module.MAGIC + struct.pack("<I", version) + bytes(range(40))
            path.write_bytes(data + struct.pack("<I", (zlib.crc32(data) + crc_offset) & 0xFFFFFFFF))

        write(4, 0)
        with pytest.raises(IndexFormatError, match="vocabulary term lengths stream does not hold 50462976 values"):
            load(path)
        write(version, crc_offset)
        message = "checksum mismatch" if crc_offset else f"unsupported format version {version};"
        with pytest.raises(IndexFormatError, match=message):
            load(path)

    @pytest.mark.parametrize("rewrite", ["valid index", "byte flipped", "cut short"])
    def test_file_rewritten_after_its_checksum_is_refused(self, tmp_path, monkeypatch, rewrite):
        """A file rewritten in place after its stored CRC is read, before the parse, is refused
        as a checksum mismatch, whether its new bytes parse or not: the parse sums
        what it reads.  The valid index has the same size, doc names e0, e1 and e2,
        and its own valid CRC."""
        path = tmp_path / "idx.svix"
        write_raw_index(path, **VALID_PARTS)
        data = path.read_bytes()
        other = tmp_path / "other.svix"
        write_raw_index(other, **{**VALID_PARTS, "names": ["e0", "e1", "e2"]})
        assert load(other).doc_names == ["e0", "e1", "e2"] and other.stat().st_size == len(data)
        middle = len(data) // 2
        new = {
            "valid index": other.read_bytes(),
            "byte flipped": data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:],
            "cut short": data[:-7],
        }[rewrite]
        real_parse = index_module._parse

        def parse(body):
            with open(path, "r+b") as fh:
                fh.write(new)
                fh.truncate()
            return real_parse(body)

        monkeypatch.setattr(index_module, "_parse", parse)
        with pytest.raises(IndexFormatError, match="checksum mismatch"):
            load(path)

    def test_index_read_from_a_pipe_loads_the_same_columns(self, tmp_path):
        """A FIFO cannot be read twice, so load reads it whole: the columns equal the
        same file's, loaded a piece at a time, bit for bit.  The file is larger than
        a pipe's buffer, so the writer blocks until load reads."""
        rng = np.random.default_rng(5)
        present = rng.random((1000, 300)) < 0.5
        ids = np.nonzero(present)[1]
        weights = rng.integers(-40, 40, size=ids.size) / 8.0 + 1 / 16
        vocab = Vocabulary(f"t{i}" for i in range(300))
        path = tmp_path / "idx.svix"
        save(build(VectorBatch([f"d{i}" for i in range(1000)], present.sum(axis=1), ids, weights, vocab)), path)
        assert path.stat().st_size > 2**16
        fifo = tmp_path / "idx.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            got = load(fifo)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        want = load(path)
        assert got.doc_names == want.doc_names and got.vocab.terms == want.vocab.terms
        for column in ("offsets", "doc_ids", "table", "codes"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_malformed_index_is_a_data_error(self, tmp_path):
        index = tmp_path / "nan.svix"
        write_raw_index(index, **{**VALID_PARTS, "weights": [1.5, float("nan"), 0.25]})
        queries = tmp_path / "q.jsonl"
        queries.write_text('{"id": "q", "vector": {"a": 1.0}}\n')
        argv = ["search", "--index", str(index), "--queries", str(queries),
                "--out", str(tmp_path / "run.trec")]
        assert main(argv) == 2


@st.composite
def corpora(draw):
    """(vocab, [(name, vector)], late terms): empty docs and empty lists allowed."""
    n_terms = draw(st.integers(1, 8))
    vocab = Vocabulary(f"t{i}" for i in range(n_terms))
    doc = st.dictionaries(st.integers(0, n_terms - 1), lattice_weights)
    docs = draw(st.lists(doc, max_size=8))
    vectors = [
        (f"doc-{i}", SparseVector(list(d), list(d.values()), vocab)) for i, d in enumerate(docs)
    ]
    late = draw(st.integers(0, 3))
    return vocab, vectors, late


def check_index(idx):
    """Every structural invariant of an index, and search against a brute-force scan."""
    terms = idx.vocab.terms
    assert "" not in terms and len(set(terms)) == len(terms)
    assert len(set(idx.doc_names)) == idx.doc_count
    doc_dicts = [{} for _ in range(idx.doc_count)]
    for tid in range(len(terms) + 1):
        entry = idx.postings(tid)
        if entry is None:
            continue
        ids, weights = entry
        assert ids.size and np.all(np.diff(ids.astype(np.int64)) > 0)
        assert int(ids[-1]) < idx.doc_count and np.all(np.isfinite(weights))
        for d, w in zip(ids.tolist(), weights.tolist()):
            doc_dicts[d][tid] = w
    signed = [1.0 - 0.75 * (i % 3) for i in range(len(terms))]
    query = SparseVector(range(len(terms)), signed, idx.vocab)
    expected = brute_force(doc_dicts, idx.doc_names, dict(query.entries()), idx.doc_count + 1)
    assert search(idx, query, idx.doc_count + 1) == expected


class TestIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_save_load_round_trip(self, tmp_path_factory, corpus):
        vocab, vectors, late = corpus
        idx = build(vectors, vocab)
        for i in range(late):
            vocab.add(f"late{i}")
        path = tmp_path_factory.mktemp("rt") / "idx.svix"
        save(idx, path)
        loaded = load(path)
        check_index(loaded)
        assert loaded.doc_names == idx.doc_names
        assert loaded.vocab.terms == vocab.terms
        for tid in range(len(vocab) + 1):
            got, want = loaded.postings(tid), idx.postings(tid)
            assert (got is None) == (want is None)
            if want is not None:
                assert got[0].tolist() == want[0].tolist()
                assert got[1].tobytes() == want[1].tobytes()
        for _, vec in vectors:
            q = SparseVector(vec.ids, vec.weights, loaded.vocab)
            assert search(loaded, q, 10) == search(idx, vec, 10)

    @settings(max_examples=150, deadline=None)
    @given(corpora(), st.data())
    def test_flipped_byte_rejected_or_consistent(self, tmp_path_factory, corpus, data):
        vocab, vectors, late = corpus
        for i in range(late):
            vocab.add(f"late{i}")
        path = tmp_path_factory.mktemp("flip") / "idx.svix"
        save(build(vectors, vocab), path)
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(8, len(raw) - 5))
        raw[pos] ^= data.draw(st.integers(1, 255))
        struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        try:
            idx = load(path)
        except IndexFormatError:
            return
        check_index(idx)


# Multiples of 1/16 in [-1/2, 1/2] plus both signed zeros: few values, so ties are dense.
tied_scores = st.sampled_from([k / 16.0 for k in range(-8, 9)] + [-0.0])


@st.composite
def ranking_inputs(draw):
    """(doc ids, scores, k): unique ids (ascending, or in any order as CPT stage 2 passes them)."""
    ids = sorted(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True)))
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    scores = np.array(draw(st.lists(tied_scores, min_size=len(ids), max_size=len(ids))))
    n = scores.size
    desc = np.sort(scores)[::-1]
    # k = i cuts between ranks i and i + 1; inside a run of ties when they score the same.
    inside_ties = [i for i in range(1, n) if desc[i - 1] == desc[i]]
    ks = [1, n - 1, n, n + 1] + inside_ties
    k = draw(st.sampled_from([k for k in ks if k >= 1]))
    return np.array(ids, dtype=np.int64), scores, k


@st.composite
def sampled_ranking_inputs(draw):
    """(doc ids or None for positions, scores, k) with at least 8k scores, so that
    ``_rank`` bounds the k-th best from every 8th score first; ties are dense."""
    n = draw(st.integers(8, 400))
    scores = np.array(draw(st.lists(tied_scores, min_size=n, max_size=n)))
    k = draw(st.integers(1, n // 8))
    ids = None
    if draw(st.booleans()):
        ids = np.array(draw(st.permutations(range(0, 3 * n, 3))), dtype=np.int64)
    return ids, scores, k


class TestRank:
    """``_rank`` preselects by partition; it must equal a full lexsort bit for bit."""

    _TIED = (np.array([4, 1, 3, 0, 2], dtype=np.int64), np.array([2.0, 2.0, 0.0, 2.0, -0.0]))

    @settings(max_examples=300, deadline=None)
    @example((*_TIED, 2))  # the cut falls inside the run of 2.0s
    @example((*_TIED, 4))  # the cut falls between -0.0 and 0.0
    @given(ranking_inputs())
    def test_matches_full_lexsort(self, inputs):
        ids, scores, k = inputs
        order = np.lexsort((ids, -scores))[:k]
        got_ids, got_scores = _rank(ids, scores, k)
        assert got_ids.tolist() == ids[order].tolist()
        assert got_scores.view(np.int64).tolist() == scores[order].view(np.int64).tolist()

    @settings(max_examples=300, deadline=None)
    @example((None, np.full(64, 2.0), 8))  # every score tied at the sampled bound
    @example((None, np.array([0.5] * 56 + [1.0] * 7 + [0.0]), 8))  # the sample's k-th is a tie below the cut
    @example((np.arange(80, 0, -1), np.array([-0.0, 0.0] * 40), 10))  # signed zeros tie at the bound
    @given(sampled_ranking_inputs())
    def test_sampled_bound_matches_full_lexsort(self, inputs):
        ids, scores, k = inputs
        full_ids = np.arange(scores.size) if ids is None else ids
        order = np.lexsort((full_ids, -scores))[:k]
        got_ids, got_scores = _rank(ids, scores, k)
        assert got_ids.tolist() == full_ids[order].tolist()
        assert got_scores.view(np.int64).tolist() == scores[order].view(np.int64).tolist()
