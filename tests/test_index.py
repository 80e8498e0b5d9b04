import struct
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
    Vocabulary,
    build,
    cpt_score_factorized,
    expand_query,
    load,
    save,
    search,
    search_cpt,
    top_m,
)
from setvec.cli import main
from setvec.index import _rank

from conftest import random_lattice_vector, random_vector


def brute_force(doc_dicts, names, query_dict, k):
    """Independent oracle: ascending-term-id accumulation, same tie-break."""
    scored = []
    for doc_id, dd in enumerate(doc_dicts):
        shared = sorted(query_dict.keys() & dd.keys())
        if not shared:
            continue
        s = 0.0
        for t in shared:
            s += query_dict[t] * dd[t]
        scored.append((doc_id, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(names[doc_id], s) for doc_id, s in scored[:k]]


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

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            vocab = Vocabulary(f"t{i}" for i in range(int(rng.integers(5, 40))))
            n_docs = int(rng.integers(1, 60))
            vecs = [random_vector(rng, vocab, max_nnz=min(len(vocab), 10)) for _ in range(n_docs)]
            names = [f"d{i:03d}" for i in range(n_docs)]
            idx = build(zip(names, vecs), vocab)
            doc_dicts = [dict(v.entries()) for v in vecs]
            for _ in range(5):
                q = random_vector(rng, vocab, max_nnz=min(len(vocab), 8))
                qd = dict(q.entries())
                for k in (1, 3, n_docs + 5):
                    assert search(idx, q, k) == brute_force(doc_dicts, names, qd, k)

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
                expected.append((doc_id, cpt_score_factorized(at, bt, vec)))
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
        a = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        b = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        q = expand_query(a, b)
        with pytest.raises(CptDomainError):
            search_cpt(idx, q, a, b, k=5, candidate_pool=5)

    def test_negative_query_side_rejected(self, vocab):
        docs = [("d", SparseVector.from_pairs([("colombia", 1.0)], vocab))]
        idx = build(docs, vocab)
        pos = SparseVector.from_pairs([("colombia", 1.0)], vocab)
        neg = SparseVector.from_pairs([("colombia", -1.0)], vocab)
        q = expand_query(pos, pos)
        with pytest.raises(CptDomainError):
            search_cpt(idx, q, neg, pos, k=5, candidate_pool=5)


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

    @pytest.mark.parametrize("version", [999, 1])
    def test_version_mismatch_rejected(self, tmp_path, small_corpus, version):
        idx, _ = small_corpus
        path = tmp_path / "idx.svix"
        save(idx, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, version)  # change version, then re-checksum
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match=f"unsupported format version {version}"):
            load(path)

    def test_unwritable_path(self, tmp_path, small_corpus):
        idx, _ = small_corpus
        with pytest.raises(OSError):
            save(idx, tmp_path / "missing" / "idx.svix")


def write_raw_index(path, terms, names, offsets, doc_ids, weights, tail=b""):
    """Independent v2 encoder for crafted files; str or raw bytes strings, valid CRC."""
    buf = bytearray(b"SVIX" + struct.pack("<I", 2))
    for strings in (terms, names):
        buf += struct.pack("<I", len(strings))
        for s in strings:
            raw = s if isinstance(s, bytes) else s.encode("utf-8")
            buf += struct.pack("<I", len(raw)) + raw
    buf += np.asarray(offsets, dtype="<i8").tobytes()
    buf += zlib.compress(np.asarray(weights, dtype="<f8").tobytes())
    ids = np.asarray(doc_ids, dtype=np.int64)
    gaps = np.diff(ids, prepend=0) % 2**32
    buf += zlib.compress(gaps.astype("<u4").tobytes()) + tail
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


class TestLoaderStructure:
    def test_crafted_valid_file_loads(self, tmp_path):
        path = tmp_path / "ok.svix"
        write_raw_index(path, **VALID_PARTS)
        idx = load(path)
        assert idx.doc_names == ["d0", "d1", "d2"]
        ids, weights = idx.postings(idx.vocab.id_of("a"))
        assert ids.tolist() == [0, 2] and weights.tolist() == [1.5, -2.0]
        q = SparseVector.from_pairs([("a", 1.0), ("b", 1.0)], idx.vocab)
        assert search(idx, q, 5) == [("d0", 1.5), ("d1", 0.25), ("d2", -2.0)]

    @pytest.mark.parametrize(
        "change, message",
        [
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
        ],
    )
    def test_malformed_structure_rejected(self, tmp_path, change, message):
        path = tmp_path / "bad.svix"
        write_raw_index(path, **{**VALID_PARTS, **change})
        with pytest.raises(IndexFormatError, match=message):
            load(path)

    def test_malformed_index_is_a_data_error(self, tmp_path):
        index = tmp_path / "nan.svix"
        write_raw_index(index, **{**VALID_PARTS, "weights": [1.5, float("nan"), 0.25]})
        queries = tmp_path / "q.jsonl"
        queries.write_text('{"id": "q", "vector": {"a": 1.0}}\n')
        argv = ["search", "--index", str(index), "--queries", str(queries),
                "--out", str(tmp_path / "run.trec")]
        assert main(argv) == 2


# Multiples of 1/16 in [-4, 4], zero excluded: signed, exactly representable.
lattice_weights = st.integers(-64, 64).filter(bool).map(lambda k: k / 16.0)


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
                assert got[1].tolist() == want[1].tolist()
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
