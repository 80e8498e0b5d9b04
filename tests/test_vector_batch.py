"""The batch ingest path against the per-record code it replaced.

Every ``encode`` mode and ``index`` carry vectors as one :class:`VectorBatch`.
These oracles pin that its BM25 counter, writer, reader and index build
produce exactly what a per-document ``Counter``, per-record ``json.dumps``,
``SparseVector.from_pairs`` and a build over ``(name, SparseVector)`` pairs
produce, and that every bad record keeps its located message.
"""

import json
import math
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setvec import FormatError, NonFiniteError, SparseVector, Vocabulary, build, formats, lexical
from setvec.cli import main
from setvec.errors import VocabularyMismatchError
from setvec.formats import is_run_field, read_vectors, write_vectors
from setvec.lexical import encode_bm25
from setvec.sparse import NEAR_ZERO, VectorBatch

# Quotes, backslashes, control characters, non-ASCII and emoji; never a lone surrogate.
TEXT = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from('"\\\x00\x1f\x7f é∩😀 '),
    ),
    min_size=1,
    max_size=6,
)
EDGE_WEIGHTS = (1e-05, 1e16, 1e300, -1e300, -2.5, 0.1, 1 / 3, NEAR_ZERO, -NEAR_ZERO)
WEIGHT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda w: abs(w) >= NEAR_ZERO),
    st.sampled_from(EDGE_WEIGHTS),
    st.integers(-(10**6), 10**6).filter(bool),
    st.integers(2**53, 2**80),
)
# What a file may hold beyond that: weights a reader drops as near zero.
FILE_WEIGHT = st.one_of(WEIGHT, st.sampled_from((0.0, -0.0, 1e-13, -1e-300, 0)))
ORACLE = settings(max_examples=60, deadline=None)


# A name that a vector file may hold: one run field.
RUN_NAME = TEXT.filter(is_run_field)


@st.composite
def corpora(draw, weight=WEIGHT, name=TEXT):
    """(terms, [(name, {term: weight})]) with unique terms and names."""
    terms = draw(st.lists(TEXT, min_size=1, max_size=10, unique=True))
    names = draw(st.lists(name, max_size=6, unique=True))
    rows = [
        (name, draw(st.dictionaries(st.sampled_from(terms), weight, max_size=len(terms))))
        for name in names
    ]
    return terms, rows


def _pairs(terms, rows):
    vocab = Vocabulary(terms)
    return vocab, [(name, SparseVector.from_pairs(row.items(), vocab)) for name, row in rows]


def _old_write(pairs) -> bytes:
    """The per-record writer the batch writer replaced."""
    return "".join(
        json.dumps({"id": name, "vector": vec.to_dict()}, ensure_ascii=False) + "\n" for name, vec in pairs
    ).encode("utf-8")


def _bytes_of(items) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.jsonl"
        write_vectors(path, items)
        return path.read_bytes()


def _read(content: bytes, vocab: Vocabulary) -> VectorBatch:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.jsonl"
        path.write_bytes(content)
        return read_vectors(path, vocab)


# Corpora drawing from a few weights, so that rows and write blocks share them.
POOLED = st.lists(WEIGHT, min_size=1, max_size=3).flatmap(lambda pool: corpora(weight=st.sampled_from(pool)))


@ORACLE
@given(corpus=st.one_of(corpora(), POOLED), block_rows=st.integers(1, 3))
@example(corpus=(["a", 'é\\"q'], [("d1", {}), ("d2", {"a": -1e300, 'é\\"q': NEAR_ZERO}), ("d3", {})]), block_rows=2)
def test_batch_writer_matches_per_record_json_dumps(corpus, block_rows):
    vocab, pairs = _pairs(*corpus)
    expected = _old_write(pairs)
    batch = VectorBatch.stack(pairs, vocab)
    assert _bytes_of(batch) == expected
    with mock.patch.object(formats, "WRITE_BLOCK_ROWS", block_rows):
        assert _bytes_of(batch) == expected
    assert _bytes_of(pairs) == expected
    # encode writes a batch; compose writes its vectors one record at a time.
    assert _bytes_of(iter(batch)) == expected


def test_batch_writer_matches_per_record_json_dumps_with_many_distinct_weights():
    # 600 rows span three write blocks; 900 distinct weights, each in two rows; 401 terms.
    vocab = Vocabulary(f"t{i}" for i in range(401))
    pairs = [
        (f"d{i}", SparseVector.from_pairs(
            [(f"t{(i + 131 * j) % 401}", (-1) ** j * ((3 * i + j) % 900 + 1) / 7) for j in range(3)], vocab
        ))
        for i in range(600)
    ]
    batch = VectorBatch.stack(pairs, vocab)
    assert batch.table.size == 900
    assert _bytes_of(batch) == _old_write(pairs)


@ORACLE
@given(corpus=corpora(weight=FILE_WEIGHT, name=RUN_NAME))
def test_reader_matches_per_record_from_pairs(corpus):
    _, rows = corpus
    content = "".join(
        json.dumps({"id": name, "vector": row}, ensure_ascii=False) + "\n" for name, row in rows
    ).encode("utf-8")
    vocab, oracle_vocab = Vocabulary(), Vocabulary()
    batch = _read(content, vocab)
    expected = [
        (name, SparseVector.from_pairs([(t, float(w)) for t, w in row.items()], oracle_vocab))
        for name, row in rows
    ]
    assert vocab.terms == oracle_vocab.terms
    assert [name for name, _ in batch] == [name for name, _ in expected]
    for (_, got), (_, want) in zip(batch, expected):
        assert np.array_equal(got.ids, want.ids)
        assert got.weights.tobytes() == want.weights.tobytes()


@ORACLE
@given(corpus=corpora(name=RUN_NAME))
def test_read_then_write_round_trips_exactly(corpus):
    # Term ids follow first occurrence, as in a file that encode or index wrote.
    vocab, pairs = _pairs([], corpus[1])
    written = _bytes_of(VectorBatch.stack(pairs, vocab))
    assert _bytes_of(_read(written, Vocabulary())) == written


@ORACLE
@given(corpus=corpora())
def test_build_from_batch_equals_build_from_pairs(corpus):
    vocab, pairs = _pairs(*corpus)
    from_pairs = build(pairs, vocab)
    from_batch = build(VectorBatch.stack(pairs, vocab), vocab)
    assert from_batch.doc_names == from_pairs.doc_names
    for column in ("offsets", "doc_ids", "table", "codes"):
        got, want = getattr(from_batch, column), getattr(from_pairs, column)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


HUGE = "1" + "0" * 400
PAST_MAX = str(int(sys.float_info.max) + 1)  # an integer a float64 would round down to its max
FAULTS = [
    ('"x": true', "weight for 'x' is not a number"),
    ('"x": "1.0"', "weight for 'x' is not a number"),
    ('"x": null', "weight for 'x' is not a number"),
    ('"x": [1.0]', "weight for 'x' is not a number"),
    (f'"x": {HUGE}', "weight for 'x' is not finite"),
    (f'"x": -{PAST_MAX}', "weight for 'x' is not finite"),
    ('"x": NaN', "weight for 'x' is not finite"),
    ('"x": Infinity', "weight for 'x' is not finite"),
    ('"x": -Infinity', "weight for 'x' is not finite"),
    ('"x": 1e400', "weight for 'x' is not finite"),
    ('"": 1.0', "empty term"),
]


@pytest.mark.parametrize("pair, message", FAULTS, ids=[
    "bool", "string", "null", "list", "huge-int", "past-max-int", "nan", "inf", "minus-inf", "1e400", "empty-term",
])
@settings(max_examples=10, deadline=None)
@given(before=st.integers(0, 3), position=st.integers(0, 2))
def test_single_fault_keeps_message_and_line(pair, message, before, position):
    pairs = ['"a": 1.0', '"b": 2']
    pairs.insert(position, pair)
    lines = [f'{{"id": "d{i}", "vector": {{"a": 0.5}}}}' for i in range(before)]
    lines.append('{"id": "bad", "vector": {%s}}' % ", ".join(pairs))
    lines.append('{"id": "after", "vector": {"x": "late fault"}}')
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            read_vectors(path, Vocabulary())
    assert str(exc.value) == f"{path}:{before + 1}: {message}"


@pytest.mark.parametrize("line, message", [
    ('{"id": "d0", "vector": {"a": 1.0}}', "duplicate id 'd0'"),
    ('{"id": "d1", "vector": [["a", 1.0]]}', "'vector' must be an object"),
    ('{"id": "d1"}', "missing 'vector'"),
    ('{"id": "", "vector": {}}', "missing or invalid 'id'"),
])
def test_record_faults_keep_message_and_line(tmp_path, line, message):
    path = tmp_path / "v.jsonl"
    path.write_text('{"id": "d0", "vector": {"a": 1.0}}\n\n' + line + "\n")
    with pytest.raises(FormatError) as exc:
        read_vectors(path, Vocabulary())
    assert str(exc.value) == f"{path}:3: {message}"


def test_sum_overflow_alone_is_no_fault(tmp_path):
    # The finite-sum screen trips here; the per-pair check then passes the record.
    path = tmp_path / "v.jsonl"
    path.write_text('{"id": "d0", "vector": {"a": 1e308, "b": 1e308, "c": 3}}\n')
    (name, vec), = read_vectors(path, Vocabulary())
    assert vec.to_dict() == {"a": 1e308, "b": 1e308, "c": 3.0}


def _counter_encode_bm25(docs, vocab, k1, b) -> VectorBatch:
    """The per-document ``Counter`` encoder that the blocked count replaced."""
    names = []
    term_ids, tfs, doc_lens, nnzs = array("I"), array("I"), array("I"), array("I")
    for name, tokens in docs:
        counts = Counter(vocab.add_all(tokens))
        row = sorted(counts)
        names.append(name)
        term_ids.extend(row)
        tfs.extend(map(counts.__getitem__, row))
        doc_lens.append(len(tokens))
        nnzs.append(len(row))
    n = len(names)
    tids = np.frombuffer(term_ids, dtype=np.uint32)
    tf = np.frombuffer(tfs, dtype=np.uint32)
    total = sum(doc_lens)
    avgdl = total / n if total else 1.0
    dl = np.asarray(doc_lens, dtype=np.float64)
    df = np.bincount(tids, minlength=len(vocab)).tolist()
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df])
    norm = k1 * (1.0 - b + b * dl / avgdl)
    weights = idf[tids] * tf * (k1 + 1.0) / (tf + np.repeat(norm, nnzs))
    return VectorBatch(names, nnzs, tids, weights, vocab)


def _assert_same_encoding(docs, known, k1=lexical.DEFAULT_K1, b=lexical.DEFAULT_B):
    named = [(f"d{i}", tokens) for i, tokens in enumerate(docs)]
    vocab, oracle_vocab = Vocabulary(known), Vocabulary(known)
    got = encode_bm25(iter(named), vocab, k1=k1, b=b)
    want = _counter_encode_bm25(iter(named), oracle_vocab, k1, b)
    assert vocab.terms == oracle_vocab.terms
    assert got.names == want.names
    for column in ("offsets", "ids", "table", "codes"):
        got_column, want_column = getattr(got, column), getattr(want, column)
        assert got_column.dtype == want_column.dtype and got_column.tobytes() == want_column.tobytes()


TOKEN = st.sampled_from(["a", "b", "c", "dd", "é"])


@ORACLE
@given(
    docs=st.lists(st.lists(TOKEN, max_size=8), max_size=12),
    known=st.lists(st.one_of(TOKEN, st.sampled_from(["x", "y"])), unique=True, max_size=3),
    block=st.integers(1, 4),
    k1=st.floats(0.0, 5.0),
    b=st.floats(0.0, 1.0),
)
@example(docs=[["a"], [], [], ["b", "a", "a"], [], []], known=[], block=2, k1=0.9, b=0.4)
@example(docs=[[], [], ["c", "c"], []], known=["c", "x"], block=1, k1=1.2, b=1.0)
def test_blocked_count_matches_per_document_counter(docs, known, block, k1, b):
    with mock.patch.object(lexical, "ENCODE_BLOCK_DOCS", block):
        _assert_same_encoding(docs, known, k1, b)


def test_blocked_count_matches_per_document_counter_over_full_blocks():
    rng = np.random.default_rng(11)
    terms = [f"w{i}" for i in range(300)]
    docs = [[terms[t] for t in rng.integers(0, 300, size=rng.integers(0, 30))]
            for _ in range(2 * lexical.ENCODE_BLOCK_DOCS + 5)]
    docs[lexical.ENCODE_BLOCK_DOCS - 1] = docs[lexical.ENCODE_BLOCK_DOCS] = []
    _assert_same_encoding(docs, ["w7", "absent"])


def test_ingest_memory_is_bounded_per_block_and_per_weight(tmp_path):
    """encode_bm25's traced peak is its weighting step, which holds ids and tf
    (4 bytes a posting each) beside two float64 columns (8 each).  Sorting
    keys for the whole corpus at once, not a block at a time, adds an int64
    key and a uint32 id a token: about 24 bytes a posting here, two tokens a
    posting.  The batch codes its weights below that peak, and the writer
    then holds only the texts of a block and of each distinct weight, about
    3 bytes a posting.  A sorted copy of the weights in the writer (8 bytes
    a posting) with a whole-batch int64 argsort beside it (8 more) passes
    the writer's bound."""
    rng = np.random.default_rng(23)
    terms = [f"t{i}" for i in range(1000)]
    # 20 distinct terms a document, each twice: few distinct weights, two tokens a posting.
    docs = [(f"d{i}", [terms[t] for t in rng.choice(1000, size=20, replace=False)] * 2)
            for i in range(8 * lexical.ENCODE_BLOCK_DOCS)]
    tracemalloc.start()
    try:
        batch = encode_bm25(docs, Vocabulary())
        encode_peak = tracemalloc.get_traced_memory()[1]
        before_write = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_vectors(tmp_path / "v.jsonl", batch)
        write_peak = tracemalloc.get_traced_memory()[1] - before_write
    finally:
        tracemalloc.stop()
    postings = batch.ids.size
    assert postings == 20 * len(docs)
    assert encode_peak < 24 * postings + 3 * 2**20
    assert write_peak < 10 * postings + 2**20


def test_index_path_memory_holds_no_float64_column_beside_an_argsort(tmp_path):
    """The ``index`` command's path is read_vectors, then build.  The reader
    peaks in the batch's weight rule: the ids and float64 weights it read
    (4 + 8 bytes a posting), their magnitudes (8) and two masks (1 + 1).
    build peaks in its term sort: ids and 1-byte codes (4 + 1), the int64
    order (8), the gathered codes (1) and two uint32 doc-id columns (4 + 4).
    Both are 22 bytes a posting, plus the names.  A batch that kept its
    float64 weights for build to code with a whole-column int64 argsort
    would hold ids, weights, the argsort and its sorted copy at once:
    4 + 8 + 8 + 8 = 28 bytes a posting."""
    rng = np.random.default_rng(29)
    n_docs, per_doc, n_terms = 5000, 80, 2000
    ids = np.concatenate([rng.choice(n_terms, size=per_doc, replace=False) for _ in range(n_docs)])
    weights = rng.integers(1, 200, size=ids.size) / 16.0
    path = tmp_path / "v.jsonl"
    write_vectors(path, VectorBatch([f"d{i}" for i in range(n_docs)], [per_doc] * n_docs, ids, weights,
                                    Vocabulary(f"t{i}" for i in range(n_terms))))
    # Written again from what the reader made, every row's ids ascend, as in a file encode writes.
    write_vectors(path, read_vectors(path, Vocabulary()))
    tracemalloc.start()
    try:
        idx = build(read_vectors(path, Vocabulary()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.doc_ids.size == ids.size == 400_000
    assert idx.codes.itemsize == 1
    assert peak < 27 * ids.size + 2**20


class TestVectorBatch:
    def test_rows_are_sorted_and_pruned(self):
        vocab = Vocabulary(["a", "b", "c"])
        batch = VectorBatch(["x", "y", "z"], [3, 0, 2], [2, 0, 1, 1, 0], [3.0, 1e-13, 2.0, -1.0, 4.0], vocab)
        assert batch.offsets.tolist() == [0, 2, 2, 4]
        assert batch.ids.tolist() == [1, 2, 0, 1]
        assert batch.table.take(batch.codes).tolist() == [2.0, 3.0, 4.0, -1.0]
        assert [(n, v.to_dict()) for n, v in batch] == [
            ("x", {"b": 2.0, "c": 3.0}), ("y", {}), ("z", {"a": 4.0, "b": -1.0})
        ]

    def test_columns_are_read_only(self):
        batch = VectorBatch(["x"], [1], [0], [1.0], Vocabulary(["a"]))
        for column in (batch.offsets, batch.ids, batch.table, batch.codes):
            assert not column.flags.writeable

    def test_inputs_are_not_modified(self):
        ids = np.array([1, 0], dtype=np.uint32)
        VectorBatch(["x"], [2], ids, [1.0, 2.0], Vocabulary(["a", "b"]))
        assert ids.tolist() == [1, 0]

    @pytest.mark.parametrize("lengths, ids, weights, error", [
        ([2], [0, 0], [1.0, 2.0], ValueError),
        ([1], [5], [1.0], ValueError),
        ([3], [0, 1], [1.0, 2.0], ValueError),
        ([1, -1], [], [], ValueError),
        ([1], [0], [float("nan")], NonFiniteError),
        ([1], [0], [float("inf")], NonFiniteError),
    ])
    def test_rejects_bad_rows(self, lengths, ids, weights, error):
        with pytest.raises(error):
            VectorBatch([str(i) for i in range(len(lengths))], lengths, ids, weights, Vocabulary(["a", "b"]))

    @pytest.mark.parametrize("lengths, ids", [([1, 2], [0, 1, 1]), ([1, 3], [2, 2, 0, 2]), ([3, 1], [1, 0, 1, 2])])
    def test_rejects_an_id_repeated_in_a_row(self, lengths, ids):
        with pytest.raises(ValueError, match="a row holds the same term id twice"):
            VectorBatch(["x", "y"], lengths, ids, np.ones(len(ids)), Vocabulary(["a", "b", "c"]))

    def test_stack_requires_one_vocabulary(self):
        v1, v2 = Vocabulary(["a"]), Vocabulary(["a"])
        rows = [("x", SparseVector.from_pairs([("a", 1.0)], v1)), ("y", SparseVector.from_pairs([("a", 1.0)], v2))]
        with pytest.raises(VocabularyMismatchError):
            VectorBatch.stack(rows)
        with pytest.raises(VocabularyMismatchError):
            build(VectorBatch.stack(rows[:1]), v2)

    def test_empty_stack(self):
        batch = VectorBatch.stack([])
        assert len(batch) == 0 and list(batch) == []
        assert build(batch).doc_count == 0
        vocab = Vocabulary()
        assert VectorBatch.stack([], vocab).vocab is vocab
        assert build([], vocab).vocab is vocab

    def test_bm25_rows_are_canonical(self):
        vocab = Vocabulary()
        batch = encode_bm25([("d1", ["b", "a", "b"]), ("d2", []), ("d3", ["c", "a"])], vocab)
        assert isinstance(batch, VectorBatch)
        assert vocab.terms == ("b", "a", "c")
        assert batch.names == ["d1", "d2", "d3"]
        assert batch.offsets.tolist() == [0, 2, 2, 4]
        assert batch.ids.tolist() == [0, 1, 1, 2]


class TestVocabularyBulkLookup:
    def test_add_all_appends_in_first_occurrence_order(self):
        vocab = Vocabulary(["x"])
        assert vocab.add_all(["b", "x", "a", "b"]) == [1, 0, 2, 1]
        assert vocab.terms == ("x", "b", "a")

    @pytest.mark.parametrize("term", ["", 3, None])
    def test_rejects_empty_and_non_string_terms(self, term):
        vocab = Vocabulary()
        with pytest.raises(ValueError):
            vocab.add_all(["ok", term])
        with pytest.raises(ValueError):
            vocab.add(term)

    def test_unhashable_term_is_a_type_error(self):
        vocab = Vocabulary(["x"])
        with pytest.raises(TypeError):
            vocab.add(["y"])
        with pytest.raises(TypeError):
            vocab.add_all(["x", {"y"}])
        assert vocab.terms == ("x",)

    def test_lookups_never_append(self):
        vocab = Vocabulary(["x"])
        assert vocab.get("y") is None and "y" not in vocab
        assert vocab.terms == ("x",)


def test_ingest_builds_no_per_document_vector(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-document SparseVector was built")

    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(json.dumps({"id": f"d{i}", "text": f"birds {i} of colombia"}) + "\n" for i in range(5)))
    monkeypatch.setattr(SparseVector, "__init__", forbidden)
    monkeypatch.setattr(SparseVector, "_trusted", classmethod(forbidden))
    vectors, index = tmp_path / "v.jsonl", tmp_path / "i.svix"
    assert main(["encode", "--bm25", "--docs", str(docs), "--out", str(vectors)]) == 0
    assert main(["index", "--vectors", str(vectors), "--out", str(index)]) == 0
