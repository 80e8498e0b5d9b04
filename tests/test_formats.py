import json
import re

import numpy as np
import pytest

from setvec import (
    CompositionParams,
    FormatError,
    PseudoTermVector,
    SparseVector,
    Vocabulary,
    splade_activate,
)
from setvec.formats import (
    read_logits,
    read_per_query,
    read_qrels,
    read_queries,
    read_run,
    read_texts,
    read_vectors,
    write_search_results,
    write_vectors,
)

from conftest import random_vector


class TestVectors:
    def test_basic_parse(self, tmp_path, vocab):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id":"qA","vector":{"birds":1.0,"colombia":1.0}}\n')
        items = dict(read_vectors(path, vocab))
        assert items["qA"].to_dict() == {"birds": 1.0, "colombia": 1.0}

    def test_empty_vector_valid(self, tmp_path, vocab):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id":"d0","vector":{}}\n')
        items = dict(read_vectors(path, vocab))
        assert items["d0"].nnz == 0

    def test_non_numeric_weight_reports_line(self, tmp_path, vocab):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id":"a","vector":{"x":1.0}}\n{"id":"b","vector":{"x":"no"}}\n')
        with pytest.raises(FormatError, match=":2"):
            list(read_vectors(path, vocab))

    def test_duplicate_id_rejected(self, tmp_path, vocab):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id":"a","vector":{}}\n{"id":"a","vector":{}}\n')
        with pytest.raises(FormatError, match="duplicate"):
            list(read_vectors(path, vocab))

    def test_malformed_json_reports_line(self, tmp_path, vocab):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id":"a","vector":{}}\nnot json\n')
        with pytest.raises(FormatError, match=":2"):
            list(read_vectors(path, vocab))

    def test_round_trip_exact(self, tmp_path):
        vocab = Vocabulary(f"t{i}" for i in range(50))
        rng = np.random.default_rng(131)
        items = [(f"v{i}", random_vector(rng, vocab, max_nnz=20)) for i in range(20)]
        path = tmp_path / "v.jsonl"
        write_vectors(path, items)
        vocab2 = Vocabulary()
        loaded = dict(read_vectors(path, vocab2))
        for rec_id, vec in items:
            assert loaded[rec_id].to_dict() == vec.to_dict()

    def test_pseudo_term_dump_uses_pair_keys(self, tmp_path):
        vocab = Vocabulary(["edu", "intel"])
        ptv = PseudoTermVector(
            SparseVector.from_pairs([("edu", 2.25)], vocab), SparseVector.from_pairs([("intel", 1.0)], vocab)
        )
        path = tmp_path / "cpt.jsonl"
        write_vectors(path, [("q", ptv)])
        record = json.loads(path.read_text())
        assert record == {"id": "q", "pairs": {"edu∩intel": 1.5}}


class TestTexts:
    def test_parse(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1","text":"Birds of Colombia"}\n')
        assert list(read_texts(path)) == [("d1", "Birds of Colombia")]

    def test_missing_text_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1"}\n')
        with pytest.raises(FormatError, match="text"):
            list(read_texts(path))


class TestQueries:
    def _vectors(self, vocab):
        return {
            "qA": SparseVector.from_pairs([("a", 1.0)], vocab),
            "qB": SparseVector.from_pairs([("b", 1.0)], vocab),
        }

    def test_refs_resolved(self, tmp_path, vocab):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid":"q1","operator":"difference","method":"subtract","a_ref":"qA","b_ref":"qB"}\n'
        )
        queries = read_queries(path, self._vectors(vocab), vocab)
        assert queries[0].a.to_dict() == {"a": 1.0}
        assert queries[0].b.to_dict() == {"b": 1.0}

    def test_inline_vectors(self, tmp_path, vocab):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid":"q1","operator":"union","method":"add",'
            '"a":{"x":1.0},"b":{"y":2.0}}\n'
        )
        queries = read_queries(path, {}, vocab)
        assert queries[0].b.to_dict() == {"y": 2.0}

    def test_unknown_ref_rejected(self, tmp_path, vocab):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid":"q1","operator":"union","method":"add","a_ref":"qA","b_ref":"zzz"}\n'
        )
        with pytest.raises(FormatError, match="zzz"):
            read_queries(path, self._vectors(vocab), vocab)

    def test_ref_and_inline_conflict(self, tmp_path, vocab):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid":"q1","operator":"union","method":"add",'
            '"a_ref":"qA","a":{"x":1.0},"b_ref":"qB"}\n'
        )
        with pytest.raises(FormatError, match="not both"):
            read_queries(path, self._vectors(vocab), vocab)

    def test_method_override_and_params(self, tmp_path, vocab):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid":"q1","operator":"difference","method":"subtract","a_ref":"qA",'
            '"b_ref":"qB","params":{"lambda":0.25}}\n'
            '{"qid":"q2","operator":"atomic","a_ref":"qA"}\n'
        )
        queries = read_queries(path, self._vectors(vocab), vocab, method="nrf", params=CompositionParams(m=3))
        assert queries[0].method == "nrf"
        assert queries[0].params.lambda_ == 0.25
        assert queries[0].params.m == 3
        assert queries[1].method == "atomic"  # override never touches atomic rows

    def test_invalid_combination_reports_line(self, tmp_path, vocab):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid":"q1","operator":"union","method":"disentangled","a_ref":"qA","b_ref":"qB"}\n'
        )
        with pytest.raises(FormatError, match=":1"):
            read_queries(path, self._vectors(vocab), vocab)


class TestQrels:
    def test_parse(self, tmp_path):
        path = tmp_path / "q.qrels"
        path.write_text("q1 0 d7 1\nq1 0 d8 0\nq2 0 d7 2\n")
        qrels = read_qrels(path)
        assert qrels.grade("q1", "d7") == 1
        assert qrels.grade("q1", "d8") == 0
        assert qrels.relevant("q2") == {"d7"}

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        path = tmp_path / "q.qrels"
        path.write_text("q1 0 d1 1\nq1 0 d1 3\n")
        with pytest.warns(UserWarning, match="duplicate"):
            qrels = read_qrels(path)
        assert qrels.grade("q1", "d1") == 3

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "q.qrels"
        path.write_text("q1 0 d1\n")
        with pytest.raises(FormatError, match=":1"):
            read_qrels(path)


class TestRuns:
    def test_write_format(self, tmp_path):
        path = tmp_path / "r.trec"
        write_search_results(path, [("q1", [("d1", 1.25), ("d2", -0.5)])], tag="tagged")
        assert path.read_text() == (
            "q1 Q0 d1 1 1.250000 tagged\nq1 Q0 d2 2 -0.500000 tagged\n"
        )

    def test_round_trip_lossless_at_six_decimals(self, tmp_path):
        rng = np.random.default_rng(137)
        runs = {
            f"q{i}": sorted(
                ((f"d{j}", round(float(rng.normal()), 6)) for j in range(10)), key=lambda kv: (-kv[1], kv[0])
            )
            for i in range(5)
        }
        first = tmp_path / "a.trec"
        write_search_results(first, runs.items())
        loaded = read_run(first)
        assert loaded == {qid: dict(hits) for qid, hits in runs.items()}
        second = tmp_path / "b.trec"
        write_search_results(second, ((qid, list(scores.items())) for qid, scores in loaded.items()))
        assert first.read_bytes() == second.read_bytes()

    def test_nonmonotonic_rank_rejected(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 d1 2 1.0 t\nq1 Q0 d2 1 0.5 t\n")
        with pytest.raises(FormatError, match="nonmonotonic"):
            read_run(path)

    def test_hits_keep_file_order_and_scores_must_not_rise(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 zeta 1 1.0 t\nq1 Q0 alpha 2 1.0 t\nq1 Q0 beta 3 -0.0 t\nq1 Q0 mu 4 0.0 t\n")
        assert list(read_run(path)["q1"]) == ["zeta", "alpha", "beta", "mu"]
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 1.5 t\n")
        with pytest.raises(FormatError, match=":2: score '1.5' is above the previous hit's score for 'q1'"):
            read_run(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 d1 1 1.0\n")
        with pytest.raises(FormatError, match=":1"):
            read_run(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "r.trec"
        path.write_text(f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(FormatError, match=":2: score .* is not finite"):
            read_run(path)


class TestPerQuery:
    def test_last_column_and_last_row_win(self, tmp_path):
        path = tmp_path / "pq.tsv"
        path.write_text("q1\tndcg@10\t0.250000\r\n\nq2\t0.5\nq1\t0.75\n")
        assert read_per_query(path) == {"q1": 0.75, "q2": 0.5}

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "pq.tsv"
        path.write_text(f"q1\t0.5\n\nq2\t{value}\n")
        with pytest.raises(FormatError, match=":3: metric value .* is not finite"):
            read_per_query(path)


# Python's int() and float() read underscores and the digits of every script; no text
# file setvec reads may hold them in a number.
UNPLAIN_NUMBERS = [
    pytest.param(read_run, "q1 Q0 d1 1_0 2_5.0 t\n", ":1: bad rank or score", id="run-underscores"),
    pytest.param(read_run, "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 \u0662\u0660 1.0 t\n", ":2: bad rank or score", id="run-arabic-rank"),
    pytest.param(read_run, "q1 Q0 d1 1 \uff11.5 t\n", ":1: bad rank or score", id="run-fullwidth-score"),
    pytest.param(read_qrels, "q1 0 d1 1_0\n", ":1: grade '1_0' is not an integer", id="qrels-underscore"),
    pytest.param(read_qrels, "q1 0 d1 \u0662\n", ":1: grade '\u0662' is not an integer", id="qrels-arabic"),
    pytest.param(read_per_query, "q1\t0.5\nq2\t0_5\n", ":2: bad metric value", id="per-query-underscore"),
    pytest.param(read_per_query, "q1\tndcg@10\t\u0660.5\n", ":1: bad metric value", id="per-query-arabic"),
    pytest.param(
        lambda path: read_logits(path, Vocabulary()), "a\tb\n1.0\t1_0\n", ":2: non-numeric cell", id="logits-underscore"
    ),
    pytest.param(
        lambda path: read_logits(path, Vocabulary()), "a\n\u0967\n", ":2: non-numeric cell", id="logits-devanagari"
    ),
]


@pytest.mark.parametrize("reader, text, message", UNPLAIN_NUMBERS)
def test_number_with_underscore_or_non_ascii_digit_refused(tmp_path, reader, text, message):
    path = tmp_path / "numbers.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path) + message)}$"):
        reader(path)


class TestLogits:
    def test_grid_parse_and_activate(self, tmp_path, vocab):
        path = tmp_path / "grid.tsv"
        path.write_text("alpha\tbeta\n2.0\t-1.0\n0.5\t0.5\n")
        m = read_logits(path, vocab)
        assert m.values.shape[0] == 2
        vec = splade_activate(m)
        assert vec.to_dict() == pytest.approx(
            {"alpha": np.log1p(2.0), "beta": np.log1p(0.5)}
        )

    def test_ragged_row_rejected(self, tmp_path, vocab):
        path = tmp_path / "grid.tsv"
        path.write_text("a\tb\n1.0\n")
        with pytest.raises(FormatError, match=":2"):
            read_logits(path, vocab)

    def test_non_numeric_cell_rejected(self, tmp_path, vocab):
        path = tmp_path / "grid.tsv"
        path.write_text("a\nfoo\n")
        with pytest.raises(FormatError):
            read_logits(path, vocab)

    def test_header_only_rejected(self, tmp_path, vocab):
        path = tmp_path / "grid.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(FormatError):
            read_logits(path, vocab)

    def test_bad_cell_after_blank_lines_reports_its_line(self, tmp_path, vocab):
        path = tmp_path / "grid.tsv"
        path.write_text("a\tb\n\n1.0\t2.0\n\n1.0\tx\n")
        with pytest.raises(FormatError, match=r"grid\.tsv:5: non-numeric cell"):
            read_logits(path, vocab)

    def test_crlf_grid_reads_like_lf(self, tmp_path):
        lf = tmp_path / "lf.tsv"
        lf.write_bytes(b"alpha\tbeta\n2.0\t-1.0\n0.5\t0.5\n")
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        want = splade_activate(read_logits(lf, Vocabulary())).to_dict()
        assert splade_activate(read_logits(crlf, Vocabulary())).to_dict() == want
        assert set(want) == {"alpha", "beta"}

    def test_duplicate_header_terms_rejected(self, tmp_path, vocab):
        path = tmp_path / "grid.tsv"
        path.write_text("a\ta\n1.0\t2.0\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_logits(path, vocab)
