import json
import logging
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import setvec
from setvec import cli
from setvec.cli import main

from conftest import factorized_score


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))


@pytest.fixture
def birds_files(tmp_path):
    vectors = tmp_path / "atomic.jsonl"
    write_lines(
        vectors,
        json.dumps({"id": "qA", "vector": {"birds": 1.0, "fly": 1.0, "colombia": 1.0, "andes": 1.0}}),
        json.dumps({"id": "qB", "vector": {"birds": 1.0, "fly": 1.0, "venezuela": 1.0, "andes": 1.0}}),
    )
    queries = tmp_path / "queries.jsonl"
    write_lines(
        queries,
        json.dumps({"qid": "q1", "operator": "difference", "method": "subtract",
                    "a_ref": "qA", "b_ref": "qB"}),
    )
    return vectors, queries


class TestCompose:
    def test_disentangled_override(self, tmp_path, birds_files):
        vectors, queries = birds_files
        out = tmp_path / "composed.jsonl"
        code = main([
            "compose", "--queries", str(queries), "--vectors", str(vectors),
            "--method", "disentangled", "--out", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["id"] == "q1"
        assert record["vector"] == {
            "birds": 1.0, "fly": 1.0, "colombia": 1.0, "andes": 1.0, "venezuela": -1.0
        }

    def test_record_method_used_without_override(self, tmp_path, birds_files):
        vectors, queries = birds_files
        out = tmp_path / "composed.jsonl"
        assert main([
            "compose", "--queries", str(queries), "--vectors", str(vectors),
            "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["vector"] == {"colombia": 1.0, "venezuela": -1.0}

    def test_cpt_writes_pair_keys(self, tmp_path, birds_files):
        vectors, _ = birds_files
        queries = tmp_path / "iq.jsonl"
        write_lines(
            queries,
            json.dumps({"qid": "i1", "operator": "intersection", "method": "cpt",
                        "a_ref": "qA", "b_ref": "qB", "params": {"m": 2}}),
        )
        out = tmp_path / "composed.jsonl"
        assert main([
            "compose", "--queries", str(queries), "--vectors", str(vectors),
            "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert "vector" not in record
        assert all("∩" in key for key in record["pairs"])

    def test_cpt_rows_are_refused_by_search(self, tmp_path, indexed_corpus, capsys):
        queries = tmp_path / "iq.jsonl"
        write_lines(
            queries,
            json.dumps({"qid": "q1", "operator": "intersection", "method": "cpt",
                        "a": {"colombia": 1.0}, "b": {"venezuela": 1.0}}),
        )
        composed, run = tmp_path / "composed.jsonl", tmp_path / "run.trec"
        assert main(["compose", "--queries", str(queries), "--out", str(composed)]) == 0
        assert main([
            "search", "--index", str(indexed_corpus), "--queries", str(composed), "--out", str(run),
        ]) == 2
        assert f"{composed}:1: missing 'vector'" in capsys.readouterr().err
        assert not run.exists()

    def test_vector_file_composes_to_itself(self, tmp_path):
        """A vector file is a file of atomic queries, so compose writes back what encode wrote."""
        docs = tmp_path / "docs.jsonl"
        write_lines(
            docs,
            json.dumps({"id": "d1", "text": "Birds of Colombia, birds"}),
            json.dumps({"id": "d2", "text": "Coffee of Venezuela"}),
            json.dumps({"id": "d3", "text": ""}),
        )
        vectors, composed = tmp_path / "vectors.jsonl", tmp_path / "composed.jsonl"
        assert main(["encode", "--tf", "--docs", str(docs), "--out", str(vectors)]) == 0
        assert main(["compose", "--queries", str(vectors), "--out", str(composed)]) == 0
        assert composed.read_bytes() == vectors.read_bytes()

    def test_cpt_dump_bytes_pinned(self, tmp_path):
        # Term ids follow first occurrence (colombia 0, birds 1, andes 2, venezuela 3);
        # m=2 drops andes, and pairs come in id order, not key order.
        queries = tmp_path / "iq.jsonl"
        write_lines(
            queries,
            json.dumps({"qid": "i1", "operator": "intersection", "method": "cpt", "params": {"m": 2},
                        "a": {"colombia": 2.0, "birds": 3.0, "andes": 0.5},
                        "b": {"venezuela": 5.0, "birds": 1.0}}),
        )
        out = tmp_path / "composed.jsonl"
        assert main(["compose", "--queries", str(queries), "--out", str(out)]) == 0
        assert out.read_bytes() == (
            '{"id": "i1", "pairs": {"colombia∩birds": 1.4142135623730951, '
            '"colombia∩venezuela": 3.1622776601683795, "birds∩birds": 1.7320508075688772, '
            '"birds∩venezuela": 3.872983346207417}}\n'
        ).encode("utf-8")


@pytest.fixture
def indexed_corpus(tmp_path):
    docs = tmp_path / "docs.jsonl"
    write_lines(
        docs,
        json.dumps({"id": "d1", "vector": {"colombia": 1.0}}),
        json.dumps({"id": "d2", "vector": {"colombia": 1.0, "venezuela": 1.0}}),
        json.dumps({"id": "d3", "vector": {"venezuela": 1.0}}),
    )
    index = tmp_path / "corpus.svix"
    assert main(["index", "--vectors", str(docs), "--out", str(index)]) == 0
    return index


class TestSearch:
    def test_signed_query_run(self, tmp_path, indexed_corpus):
        queries = tmp_path / "q.jsonl"
        write_lines(
            queries,
            json.dumps({"id": "q1", "vector": {"colombia": 1.0, "venezuela": -1.0}}),
        )
        run = tmp_path / "run.trec"
        assert main([
            "search", "--index", str(indexed_corpus), "--queries", str(queries),
            "--k", "10", "--out", str(run),
        ]) == 0
        assert run.read_text() == (
            "q1 Q0 d1 1 1.000000 setvec\n"
            "q1 Q0 d2 2 0.000000 setvec\n"
            "q1 Q0 d3 3 -1.000000 setvec\n"
        )

    def test_query_records_compose_then_search(self, tmp_path, indexed_corpus):
        queries = tmp_path / "q.jsonl"
        write_lines(
            queries,
            json.dumps({"qid": "q1", "operator": "difference", "method": "subtract",
                        "a": {"colombia": 1.0}, "b": {"venezuela": 1.0}}),
        )
        run = tmp_path / "run.trec"
        assert main([
            "search", "--index", str(indexed_corpus), "--queries", str(queries),
            "--k", "10", "--out", str(run),
        ]) == 0
        lines = run.read_text().splitlines()
        assert lines[0].startswith("q1 Q0 d1 1 1.000000")

    def test_cpt_query_records(self, tmp_path, indexed_corpus):
        queries = tmp_path / "q.jsonl"
        write_lines(
            queries,
            json.dumps({"qid": "i1", "operator": "intersection", "method": "cpt",
                        "a": {"colombia": 1.0}, "b": {"venezuela": 1.0}}),
        )
        run = tmp_path / "run.trec"
        assert main([
            "search", "--index", str(indexed_corpus), "--queries", str(queries),
            "--k", "10", "--candidate-pool", "10", "--out", str(run),
        ]) == 0
        lines = run.read_text().splitlines()
        assert lines[0].startswith("i1 Q0 d2 1 1.000000")
        assert len(lines) == 3  # one-sided docs kept, scored 0

    def test_threads_do_not_change_output(self, tmp_path, indexed_corpus):
        queries = tmp_path / "q.jsonl"
        write_lines(
            queries,
            *[
                json.dumps({"id": f"q{i}", "vector": {"colombia": 1.0 + i, "venezuela": -0.5 * i}})
                for i in range(8)
            ],
        )
        run1 = tmp_path / "run1.trec"
        run4 = tmp_path / "run4.trec"
        base = ["search", "--index", str(indexed_corpus), "--queries", str(queries), "--k", "3"]
        assert main(base + ["--threads", "1", "--out", str(run1)]) == 0
        assert main(base + ["--threads", "4", "--out", str(run4)]) == 0
        assert run1.read_bytes() == run4.read_bytes()

    @pytest.mark.parametrize("records", ["query", "vector"])
    def test_queries_read_once_from_a_fifo_or_a_pipe(self, tmp_path, indexed_corpus, records):
        """A queries file that can be read only once, /dev/stdin fed through a pipe or a FIFO
        fed by a thread, gives the run of the same regular file.  The CLI runs in a
        subprocess with a timeout, so that a second open of the FIFO fails the test."""
        if records == "query":
            lines = [
                json.dumps({"qid": f"q{i}", "operator": "difference", "method": "subtract",
                            "a": {"colombia": 1.0 + i}, "b": {"venezuela": 1.0}})
                for i in range(3)
            ]
        else:
            lines = [
                json.dumps({"id": f"q{i}", "vector": {"colombia": 1.0, "venezuela": -0.5 * (i + 1)}})
                for i in range(3)
            ]
        queries = tmp_path / "q.jsonl"
        write_lines(queries, "", *lines)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(setvec.__file__)))

        def search(source, out, **stdin):
            argv = ["search", "--index", str(indexed_corpus), "--queries", source, "--k", "3", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "setvec.cli", *argv], env=env, check=True, timeout=60, **stdin)
            return out.read_bytes()

        want = search(str(queries), tmp_path / "file.trec")
        assert len(want.splitlines()) == 9
        assert search("/dev/stdin", tmp_path / "pipe.trec", input=queries.read_bytes()) == want
        fifo = tmp_path / "q.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(queries.read_bytes(),), daemon=True)
        writer.start()
        try:
            assert search(str(fifo), tmp_path / "fifo.trec") == want
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()


class TestEncode:
    def test_tf_and_bm25(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        write_lines(
            docs,
            json.dumps({"id": "d1", "text": "Birds of Colombia"}),
            json.dumps({"id": "d2", "text": "Birds of Venezuela, birds that fly"}),
        )
        tf_out = tmp_path / "tf.jsonl"
        assert main(["encode", "--docs", str(docs), "--tf", "--out", str(tf_out)]) == 0
        records = [json.loads(line) for line in tf_out.read_text().splitlines()]
        assert records[1]["vector"]["birds"] == 2.0

        bm25_out = tmp_path / "bm25.jsonl"
        assert main(["encode", "--docs", str(docs), "--bm25", "--out", str(bm25_out)]) == 0
        records = [json.loads(line) for line in bm25_out.read_text().splitlines()]
        # 'colombia' appears in 1 of 2 docs; 'birds' in both, so idf is lower.
        assert records[0]["vector"]["colombia"] > records[0]["vector"]["birds"]

    def test_logit_grid_activation(self, tmp_path):
        grid = tmp_path / "query1.tsv"
        grid.write_text("monarch\teuropean\n2.0\t-3.0\n0.5\t-2.0\n")
        out = tmp_path / "vec.jsonl"
        assert main([
            "encode", "--logits", str(grid), "--aggregation", "sum",
            "--epsilon", "0.25", "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["id"] == "query1"
        assert record["vector"]["monarch"] > 0
        assert record["vector"]["european"] < 0

        positive_only = tmp_path / "pos.jsonl"
        assert main([
            "encode", "--logits", str(grid), "--out", str(positive_only),
        ]) == 0
        assert "european" not in json.loads(positive_only.read_text())["vector"]

    def test_encode_activation_defaults_are_the_library_defaults(self):
        """encode --logits without activation flags activates as ``ActivationConfig()`` does."""
        args = cli.build_parser().parse_args(["encode", "--logits", "g.tsv", "--out", "v.jsonl"])
        cfg = setvec.ActivationConfig(args.epsilon, args.neg_formula, args.aggregation)
        assert cfg == setvec.ActivationConfig()

    def test_bm25_output_independent_of_hash_seed(self, tmp_path):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(300)]
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, *[
            json.dumps({"id": f"d{i}", "text": " ".join(rng.choice(words, size=rng.integers(1, 40)))})
            for i in range(60)
        ])
        src = os.path.dirname(os.path.dirname(setvec.__file__))
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            for argv in (
                ["encode", "--bm25", "--docs", str(docs), "--out", str(out / "vectors.jsonl")],
                ["index", "--vectors", str(out / "vectors.jsonl"), "--out", str(out / "corpus.svix")],
            ):
                subprocess.run([sys.executable, "-m", "setvec.cli", *argv], env=env, check=True, timeout=120)
            outputs.append(((out / "vectors.jsonl").read_bytes(), (out / "corpus.svix").read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    @pytest.mark.parametrize("flag", ["--k1=-1", "--k1=nan", "--k1=inf", "--b=2", "--b=-0.5", "--b=nan"])
    def test_bad_bm25_parameter_is_usage_error(self, tmp_path, flag):
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, json.dumps({"id": "d1", "text": "birds of colombia"}))
        out = tmp_path / "bm25.jsonl"
        assert main(["encode", "--docs", str(docs), "--bm25", flag, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad_line", [b"{not json", b'{"id": "d2", "text": "caf\xe9"}'],
                             ids=["json", "utf8"])
    def test_bm25_bad_corpus_is_data_error_without_output(self, tmp_path, capsys, bad_line):
        # The whole corpus is read before the output file is opened.
        docs = tmp_path / "docs.jsonl"
        docs.write_bytes(b'{"id": "d1", "text": "birds"}\n' + bad_line + b"\n")
        out = tmp_path / "bm25.jsonl"
        assert main(["encode", "--docs", str(docs), "--bm25", "--out", str(out)]) == 2
        assert f"{docs}:2: " in capsys.readouterr().err
        assert not out.exists()

    def test_tf_without_docs_is_usage_error(self, tmp_path):
        assert main(["encode", "--tf", "--out", str(tmp_path / "o.jsonl")]) == 1

    def test_stopwords(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, json.dumps({"id": "d1", "text": "birds of colombia"}))
        stop = tmp_path / "stop.txt"
        stop.write_text("of\n")
        out = tmp_path / "tf.jsonl"
        assert main([
            "encode", "--docs", str(docs), "--tf", "--stopwords", str(stop),
            "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert "of" not in record["vector"]

    @pytest.mark.parametrize("mode", ["--tf", "--bm25"])
    def test_stopwords_are_tokenized_like_text(self, tmp_path, mode):
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, json.dumps({"id": "d1", "text": "The birds AND the sea"}))
        stop = tmp_path / "stop.txt"
        stop.write_text("The\n  AND \n")
        out = tmp_path / "vectors.jsonl"
        assert main(["encode", mode, "--docs", str(docs), "--stopwords", str(stop), "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["vector"]) == ["birds", "sea"]

    @pytest.mark.parametrize("line, tokens", [("don't", "['don', 't']"), ("--", "[]"), ("birds of", "['birds', 'of']")])
    def test_stopword_that_is_not_one_token_is_located_data_error(self, tmp_path, capsys, line, tokens):
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, json.dumps({"id": "d1", "text": "birds of colombia"}))
        stop = tmp_path / "stop.txt"
        stop.write_text(f"of\n\n{line}\n")
        out = tmp_path / "vectors.jsonl"
        assert main(["encode", "--bm25", "--docs", str(docs), "--stopwords", str(stop), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {stop}:3: stopword {line!r} is not one token; it reads as {tokens}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--tf", "--bm25", "--logits"])
    def test_encode_logs_its_counts_at_info_only(self, tmp_path, caplog, monkeypatch, mode):
        if mode == "--logits":
            source = tmp_path / "grid.tsv"
            source.write_text("birds\tof\tsea\n1.0\t-2.0\t0.5\n")
            argv, expected = ["encode", "--logits", str(source)], "encoded 1 docs, 3 terms, 2 postings"
        else:
            source = tmp_path / "docs.jsonl"
            write_lines(source, json.dumps({"id": "d1", "text": "birds of colombia"}),
                        json.dumps({"id": "d2", "text": "birds birds sea"}))
            argv, expected = ["encode", mode, "--docs", str(source)], "encoded 2 docs, 4 terms, 5 postings"
        argv += ["--out", str(tmp_path / "vectors.jsonl")]
        monkeypatch.delenv("SETVEC_LOG", raising=False)
        assert main(argv) == 0
        assert not [r for r in caplog.records if r.name == "setvec"]
        caplog.set_level(logging.INFO, logger="setvec")
        assert main(argv) == 0
        assert [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "setvec"] == [
            (logging.INFO, expected)
        ]


class TestFuseEvalPairwise:
    def test_fuse(self, tmp_path):
        run_a = tmp_path / "a.trec"
        run_b = tmp_path / "b.trec"
        write_lines(run_a, "q1 Q0 d1 1 2.000000 t", "q1 Q0 d2 2 1.000000 t")
        write_lines(run_b, "q1 Q0 d2 1 3.000000 t", "q1 Q0 d1 2 1.000000 t")
        out = tmp_path / "fused.trec"
        assert main([
            "fuse", "--run-a", str(run_a), "--run-b", str(run_b),
            "--op", "minus", "--out", str(out),
        ]) == 0
        assert out.read_text() == "q1 Q0 d1 1 1.000000 setvec\nq1 Q0 d2 2 -2.000000 setvec\n"

    def test_fuse_scaled_warning_names_the_degenerate_qid(self, tmp_path, caplog):
        run_a = tmp_path / "a.trec"
        run_b = tmp_path / "b.trec"
        write_lines(run_a, "q2 Q0 d1 1 1.000000 t", "q2 Q0 d3 2 0.500000 t",
                    "q1 Q0 d1 1 2.000000 t", "q1 Q0 d2 2 2.000000 t")
        write_lines(run_b, "q1 Q0 d2 1 3.000000 t", "q1 Q0 d1 2 1.000000 t",
                    "q2 Q0 d1 1 4.000000 t", "q2 Q0 d3 2 2.000000 t")
        out = tmp_path / "fused.trec"
        # The CLI logs the library's warning instead of raising it as a Python warning.
        assert main([
            "fuse", "--run-a", str(run_a), "--run-b", str(run_b),
            "--op", "plus", "--scaled", "--out", str(out),
        ]) == 0
        assert "degenerate min-max scaling for run A (q1): all 2 scores" in caplog.text
        assert out.read_text() == (  # run A's qid order; q1's constant run A scales to 0
            "q2 Q0 d1 1 2.000000 setvec\nq2 Q0 d3 2 0.000000 setvec\n"
            "q1 Q0 d2 1 1.000000 setvec\nq1 Q0 d1 2 0.000000 setvec\n"
        )

    def test_fuse_overflow_is_named_data_error_without_output(self, tmp_path, capsys):
        """A fused score of inf fails its query, after an earlier query was written, and
        removes the --out file, even one that held an earlier run."""
        run_a = tmp_path / "a.trec"
        run_b = tmp_path / "b.trec"
        write_lines(run_a, "q0 Q0 d1 1 2.0 t", "q0 Q0 d2 2 1.0 t", "q1 Q0 d1 1 1e308 t", "q1 Q0 d2 2 -1e308 t")
        write_lines(run_b, "q0 Q0 d1 1 1.0 t", "q0 Q0 d2 2 0.5 t", "q1 Q0 d1 1 1e308 t")
        out = tmp_path / "fused.trec"
        out.write_text("an earlier run\n")
        argv = ["fuse", "--run-a", str(run_a), "--run-b", str(run_b), "--op", "plus", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: query 'q1': a fused score overflows to inf or nan\n"
        assert not out.exists()

    def test_fuse_scaled_run_wider_than_the_largest_float(self, tmp_path):
        """Under --scaled, a run whose scores span more than the largest float
        (1e308 - -1e308 overflows) scales to 1.0, 0.5 and 0.0 and fuses; run B's one
        score is a constant run, which scales to 0."""
        run_a = tmp_path / "a.trec"
        run_b = tmp_path / "b.trec"
        write_lines(run_a, "q1 Q0 d1 1 1e308 t", "q1 Q0 d3 2 0 t", "q1 Q0 d2 3 -1e308 t")
        write_lines(run_b, "q1 Q0 d1 1 1e308 t")
        out = tmp_path / "fused.trec"
        argv = ["fuse", "--run-a", str(run_a), "--run-b", str(run_b), "--op", "plus", "--scaled", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text() == (
            "q1 Q0 d1 1 1.000000 setvec\nq1 Q0 d3 2 0.500000 setvec\nq1 Q0 d2 3 0.000000 setvec\n"
        )

    def test_eval_report(self, tmp_path, capsys):
        run = tmp_path / "run.trec"
        write_lines(
            run,
            "q1 Q0 d1 1 3.000000 t",
            "q1 Q0 d3 2 2.000000 t",
            "q1 Q0 d2 3 1.000000 t",
        )
        qrels = tmp_path / "q.qrels"
        write_lines(qrels, "q1 0 d1 1", "q1 0 d2 1")
        report = tmp_path / "report.json"
        per_query = tmp_path / "per_query.tsv"
        assert main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--metrics", "ndcg@3,recall@2",
            "--out", str(report), "--per-query", str(per_query),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["metrics"]["ndcg@3"] == pytest.approx(0.9197, abs=1e-4)
        assert payload["metrics"]["recall@2"] == 0.5
        assert "q1\tndcg@3" in per_query.read_text()
        assert "ndcg@3" in capsys.readouterr().out

    def test_eval_scores_the_written_tie_order(self, tmp_path, capsys):
        """search breaks the tie by ingestion order (zeta first); eval must score
        that ranking, not one re-sorted by doc name."""
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, json.dumps({"id": "zeta", "vector": {"x": 1.0}}),
                    json.dumps({"id": "alpha", "vector": {"x": 1.0}}))
        index = tmp_path / "corpus.svix"
        assert main(["index", "--vectors", str(docs), "--out", str(index)]) == 0
        queries = tmp_path / "q.jsonl"
        write_lines(queries, json.dumps({"id": "q1", "vector": {"x": 1.0}}))
        run = tmp_path / "run.trec"
        assert main(["search", "--index", str(index), "--queries", str(queries), "--out", str(run)]) == 0
        assert run.read_text().splitlines()[0] == "q1 Q0 zeta 1 1.000000 setvec"
        qrels = tmp_path / "q.qrels"
        write_lines(qrels, "q1 0 zeta 1")
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--metrics", "ndcg@1"]) == 0
        assert "ndcg@1  1.0000" in capsys.readouterr().out

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_eval_matches_ndcg_over_the_search_order(self, tmp_path_factory, data):
        """Doc names shuffled against ingestion order make name order and the doc-id
        tie order disagree; eval --per-query must equal nDCG over search's own order."""
        # Multiples of 1/4: few values, so scores tie often, and every sum is exact.
        weight = st.integers(-8, 8).filter(bool).map(lambda k: k / 4.0)
        vector = st.dictionaries(st.sampled_from("xyz"), weight, min_size=1)
        n_docs = data.draw(st.integers(2, 8))
        names = data.draw(st.permutations([f"d{i}" for i in range(n_docs)]))
        docs = [data.draw(vector) for _ in names]
        queries = data.draw(st.lists(vector, min_size=1, max_size=3))
        grades = data.draw(st.lists(st.integers(0, 2), min_size=n_docs, max_size=n_docs).filter(any))

        vocab = setvec.Vocabulary()
        idx = setvec.build([(n, setvec.SparseVector.from_pairs(d.items(), vocab)) for n, d in zip(names, docs)], vocab)
        qrels = setvec.Qrels()
        for name, grade in zip(names, grades):
            for qid in range(len(queries)):
                qrels.set(f"q{qid}", name, grade)
        expected = {}
        for qid, q in enumerate(queries):
            hits = setvec.search(idx, setvec.SparseVector.from_pairs(q.items(), vocab), n_docs)
            if hits:
                expected[f"q{qid}"] = f"{setvec.ndcg_at_k([n for n, _ in hits], qrels, f'q{qid}', 3):.6f}"
        assume(expected)

        tmp = tmp_path_factory.mktemp("ties")
        write_lines(tmp / "docs.jsonl", *(json.dumps({"id": n, "vector": d}) for n, d in zip(names, docs)))
        write_lines(tmp / "q.jsonl", *(json.dumps({"id": f"q{i}", "vector": q}) for i, q in enumerate(queries)))
        write_lines(tmp / "q.qrels", *(f"q{i} 0 {n} {g}" for i in range(len(queries)) for n, g in zip(names, grades)))
        assert main(["index", "--vectors", str(tmp / "docs.jsonl"), "--out", str(tmp / "idx.svix")]) == 0
        assert main(["search", "--index", str(tmp / "idx.svix"), "--queries", str(tmp / "q.jsonl"),
                     "--k", str(n_docs), "--out", str(tmp / "run.trec")]) == 0
        assert main(["eval", "--run", str(tmp / "run.trec"), "--qrels", str(tmp / "q.qrels"),
                     "--metrics", "ndcg@3", "--per-query", str(tmp / "pq.tsv")]) == 0
        rows = [line.split("\t") for line in (tmp / "pq.tsv").read_text().splitlines()]
        assert {qid: value for qid, _, value in rows} == expected

    def test_eval_refuses_a_rising_score(self, tmp_path, capsys):
        run = tmp_path / "run.trec"
        write_lines(run, "q1 Q0 d1 1 1.000000 t", "q2 Q0 d1 1 5.000000 t", "q1 Q0 d2 2 2.000000 t")
        qrels = tmp_path / "q.qrels"
        write_lines(qrels, "q1 0 d1 1")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 2
        assert f"{run}:3: score '2.000000' is above the previous hit's score for 'q1'" in capsys.readouterr().err

    def test_pairwise(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_lines(
            pairs,
            json.dumps({"qid_a": "qa", "qid_b": "qb", "doc_a": "da", "doc_b": "db"}),
        )
        scores = tmp_path / "scores.trec"
        write_lines(
            scores,
            "qa Q0 da 1 2.000000 t", "qa Q0 db 2 1.000000 t",
            "qb Q0 db 1 2.000000 t", "qb Q0 da 2 1.000000 t",
        )
        assert main(["pairwise", "--pairs", str(pairs), "--scores", str(scores)]) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_analyze_interference(self, tmp_path, capsys):
        queries = tmp_path / "q.jsonl"
        write_lines(
            queries,
            json.dumps({"qid": "q1", "operator": "difference", "method": "subtract",
                        "a": {"x": 1.0}, "b": {"y": 1.0}}),
            json.dumps({"qid": "q2", "operator": "difference", "method": "subtract",
                        "a": {"x": 1.0}, "b": {"x": 1.0}}),
        )
        metrics = tmp_path / "m.tsv"
        write_lines(metrics, "q1\t0.8", "q2\t0.2")
        report = tmp_path / "report.json"
        assert main([
            "analyze-interference", "--queries", str(queries),
            "--per-query-metrics", str(metrics), "--bins", "2", "--out", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "0.8000" in out and "0.2000" in out
        assert report.read_text() == (
            '[\n  {\n    "low": 0.0,\n    "high": 0.0,\n    "mean_metric": 0.8,\n    "count": 1\n  },\n'
            '  {\n    "low": 1.0,\n    "high": 1.0,\n    "mean_metric": 0.2,\n    "count": 1\n  }\n]\n'
        )

    def test_interference_refuses_default_eval_output(self, tmp_path, capsys):
        """eval's default metrics write two rows per qid; analyze-interference would bin one
        of them, so it names the line and asks for a one-metric file."""
        run, qrels, queries, per_query = (tmp_path / name for name in ("r.trec", "q.qrels", "q.jsonl", "pq.tsv"))
        write_lines(run, "q1 Q0 d2 1 2.000000 t", "q1 Q0 d1 2 1.000000 t")
        write_lines(qrels, "q1 0 d1 1")
        write_lines(queries, json.dumps({"qid": "q1", "operator": "difference", "method": "subtract",
                                         "a": {"x": 1.0}, "b": {"y": 1.0}}))
        analyze = ["analyze-interference", "--queries", str(queries), "--per-query-metrics", str(per_query),
                   "--bins", "1"]
        assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--per-query", str(per_query)]) == 0
        capsys.readouterr()
        assert main(analyze) == 2
        err = capsys.readouterr().err
        assert f"{per_query}:2: 'q1' has values for 'ndcg@10' and 'recall@100'" in err
        assert "eval --metrics ndcg@10" in err
        eval_one = ["eval", "--run", str(run), "--qrels", str(qrels), "--metrics", "ndcg@10"]
        assert main([*eval_one, "--per-query", str(per_query)]) == 0
        assert main(analyze) == 0
        assert "0.6309" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["fuse", "eval", "analyze-interference"])
    def test_data_warnings_are_log_lines(self, tmp_path, command):
        """A data warning reaches the CLI user as one ``WARNING setvec:`` line with its
        text unchanged, not as a Python warning that prints a source path and code."""
        run, qrels, queries, per_query = (tmp_path / name for name in ("r.trec", "q.qrels", "q.jsonl", "pq.tsv"))
        write_lines(run, "q1 Q0 d1 1 2.000000 t", "q1 Q0 d2 2 2.000000 t")
        ranked = tmp_path / "ranked.trec"
        write_lines(ranked, "q1 Q0 d2 1 3.000000 t", "q1 Q0 d1 2 1.000000 t")
        write_lines(qrels, "q1 0 d1 1", "q1 0 d1 2")
        write_lines(queries, json.dumps({"qid": "q1", "operator": "difference", "method": "subtract",
                                         "a": {"x": 1.0}, "b": {"y": 1.0}}))
        write_lines(per_query, "q1\t0.5")
        argv, text = {
            "fuse": (["fuse", "--run-a", str(run), "--run-b", str(ranked), "--op", "plus", "--scaled",
                      "--out", str(tmp_path / "f")],
                     "degenerate min-max scaling for run A (q1): all 2 scores equal; mapping to 0"),
            "eval": (["eval", "--run", str(run), "--qrels", str(qrels), "--metrics", "ndcg@10"],
                     f"{qrels}:2: duplicate qrel (q1, d1); last wins"),
            "analyze-interference": (["analyze-interference", "--queries", str(queries),
                                      "--per-query-metrics", str(per_query), "--bins", "3"],
                                     "only 1 queries for 3 bins; using 1"),
        }[command]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(setvec.__file__)))
        env.pop("SETVEC_LOG", None)
        done = subprocess.run([sys.executable, "-m", "setvec.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == f"WARNING setvec: {text}\n"
        assert ".py:" not in done.stderr


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["search", "--nonsense"]) == 1
        assert main([]) == 1

    def test_out_of_range_flag(self, tmp_path, indexed_corpus):
        queries = tmp_path / "q.jsonl"
        write_lines(queries, json.dumps({"id": "q1", "vector": {"colombia": 1.0}}))
        assert main([
            "search", "--index", str(indexed_corpus), "--queries", str(queries),
            "--k", "0", "--out", str(tmp_path / "r.trec"),
        ]) == 1

    @pytest.mark.parametrize("value, shown", [("0", "0"), ("-3", "-3"), ("abc", None), ("1.5", None)])
    @pytest.mark.parametrize("command, flag", [
        ("search", "--k"), ("search", "--candidate-pool"), ("analyze-interference", "--bins"),
        ("search", "--threads"), ("index", "--threads"), ("search", "--m"), ("compose", "--m"),
    ])
    def test_count_flags_share_the_count_rule(self, tmp_path, capsys, indexed_corpus, command, flag, value, shown):
        queries, out = tmp_path / "q.jsonl", tmp_path / "out"
        write_lines(queries, json.dumps({"id": "q1", "vector": {"colombia": 1.0}}))
        if command == "search":
            argv = ["search", "--index", str(indexed_corpus), "--queries", str(queries)]
        elif command == "index":
            argv = ["index", "--vectors", str(queries)]
        elif command == "compose":
            argv = ["compose", "--queries", str(queries)]
        else:
            argv = ["analyze-interference", "--queries", str(queries), "--per-query-metrics", str(queries)]
        assert main([*argv, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: argument {flag}: " in err
        if shown is not None:
            assert f"value must be a positive integer, got {shown}" in err
        assert not out.exists()

    def test_data_error_missing_file(self, tmp_path):
        assert main(["index", "--vectors", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.svix")]) == 2

    def test_data_error_bad_json(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["index", "--vectors", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_log_level_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SETVEC_LOG", "loud")
        assert main(["index", "--vectors", str(tmp_path / "v.jsonl"), "--out", str(tmp_path / "o")]) == 1
        assert "debug, info, warning, error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("search", "--m=0"), ("search", "--lambda=-1"), ("search", "--lambda=nan"),
        ("compose", "--m=0"), ("compose", "--lambda=-1"),
        ("eval", "--metrics=ndcg@x"), ("eval", "--metrics=,"), ("eval", "--metrics=ndcg@10,NDCG@10"),
        ("eval", "--metrics=ndcg@²"),  # a digit to str.isdigit, not to int()
    ])
    def test_bad_query_default_is_usage_error(self, tmp_path, capsys, indexed_corpus, birds_files, command, flag):
        vectors, queries = birds_files
        out = tmp_path / "out"
        argv = [command, "--queries", str(queries), "--vectors", str(vectors), flag, "--out", str(out)]
        if command == "search":
            argv += ["--index", str(indexed_corpus)]
        if command == "eval":
            run, qrels = tmp_path / "run.trec", tmp_path / "q.qrels"
            write_lines(run, "q1 Q0 d1 1 1.000000 t")
            write_lines(qrels, "q1 0 d1 1")
            argv = ["eval", "--run", str(run), "--qrels", str(qrels), flag, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()
        if command == "eval":
            err = capsys.readouterr().err
            assert "metric" in err
            if flag == "--metrics=ndcg@10,NDCG@10":
                assert "metric 'ndcg@10' is requested twice" in err
            if flag == "--metrics=ndcg@²":
                assert "bad metric 'ndcg@²'" in err


HUGE = "1" + "0" * 400  # a JSON integer no float can hold


def _query(method, params):
    operator = "intersection" if method == "cpt" else "difference"
    return json.dumps({"qid": "q1", "operator": operator, "method": method,
                       "a": {"x": 1.0}, "b": {"y": 1.0}, "params": params})


@pytest.mark.parametrize("command, line, line_no", [
    ("index", '{"id": "d1", "vector": {"x": %s}}' % HUGE, 1),
    ("compose", '{"qid": "q1", "operator": "atomic", "method": "atomic", "a": {"x": -%s}}' % HUGE, 1),
    ("compose", _query("cpt", {"m": 0}), 1),
    ("compose", _query("cpt", {"m": 2.7}), 1),
    ("compose", _query("cpt", {"m": True}), 1),
    ("compose", _query("cpt", {"m": "5"}), 1),
    ("compose", _query("nrf", {"lambda": -1}), 1),
    ("compose", _query("nrf", {"lambda": True}), 1),
    ("compose", _query("nrf", {"lambda": "0.5"}), 1),
    ("index", '{"id": "d1", "vector": {"": 1.0}}', 1),
    ("compose", '{"qid": "q1", "operator": "union", "method": "add", "a": {"x": 1.0}, "b": {"": 1.0}}', 1),
    ("index", "[1, 2]", 1),
    ("compose", '{"qid": "q1", "method": "subtract", "a": {"x": 1.0}, "b": {"y": 1.0}}', 1),
    ("compose", _query("nrf", [0.5]), 1),
    ("compose", _query("nrf", {"lamda": 2.0}), 1),
    ("compose", _query("cpt", {"M": 2}), 1),
    ("eval --qrels", "q1 0 d1 x", 1),
    ("eval --qrels", "q1 0 d1 -1", 1),
    ("eval --run", "q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t", 2),
    ("encode --logits", "a\t\tb\n1.0\t2.0\t3.0", 1),
    ("encode --logits", "a\tb\n1.0\tnan", 2),
    ("analyze-interference", "q1\tndcg@10\textra\t0.5", 1),
], ids=["vector-weight-overflow", "inline-weight-overflow", "m-0", "m-2.7", "m-true", "m-str",
        "lambda-neg", "lambda-true", "lambda-str", "vector-empty-term", "inline-empty-term",
        "not-an-object", "no-operator", "params-not-object", "params-lamda", "params-M", "grade-not-int", "grade-negative",
        "run-duplicate-doc", "logit-empty-term", "logit-non-finite", "per-query-four-columns"])
def test_malformed_value_is_located_data_error(tmp_path, capsys, command, line, line_no):
    path = tmp_path / "input.jsonl"
    write_lines(path, line)
    run, qrels = tmp_path / "run.trec", tmp_path / "q.qrels"
    write_lines(run, "q1 Q0 d1 1 1.000000 t")
    write_lines(qrels, "q1 0 d1 1")
    queries = tmp_path / "queries.jsonl"
    write_lines(queries, _query("subtract", {}))
    argv = {
        "index": ["index", "--vectors", str(path)],
        "compose": ["compose", "--queries", str(path)],
        "eval --qrels": ["eval", "--run", str(run), "--qrels", str(path)],
        "eval --run": ["eval", "--run", str(path), "--qrels", str(qrels)],
        "encode --logits": ["encode", "--logits", str(path)],
        "analyze-interference": ["analyze-interference", "--queries", str(queries),
                                 "--per-query-metrics", str(path)],
    }[command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:{line_no}: " in capsys.readouterr().err


# Each row: the input under test, the valid inputs around it, and the command that reads it.
def _bad_utf8_cases(tmp_path):
    run = tmp_path / "run.trec"
    write_lines(run, "q1 Q0 d1 1 1.000000 t")
    qrels = tmp_path / "q.qrels"
    write_lines(qrels, "q1 0 d1 1")
    docs = tmp_path / "docs.jsonl"
    write_lines(docs, json.dumps({"id": "d1", "text": "birds"}))
    queries = tmp_path / "queries.jsonl"
    write_lines(queries, json.dumps({"qid": "q1", "operator": "difference", "method": "subtract",
                                     "a": {"x": 1.0}, "b": {"y": 1.0}}))
    out = str(tmp_path / "out")
    return {
        "qrels": (b"q1 0 d1 1\n", lambda bad: ["eval", "--run", str(run), "--qrels", bad]),
        "run": (b"q1 Q0 d1 1 1.0 t\n", lambda bad: ["eval", "--run", bad, "--qrels", str(qrels)]),
        "logits": (b"a\tb\n1.0\t2.0\n", lambda bad: ["encode", "--logits", bad, "--out", out]),
        "stopwords": (b"of\n", lambda bad: ["encode", "--tf", "--docs", str(docs), "--stopwords", bad,
                                            "--out", out]),
        "per-query": (b"q1\t0.5\n", lambda bad: ["analyze-interference", "--queries", str(queries),
                                                 "--per-query-metrics", bad]),
    }


@pytest.mark.parametrize("kind", ["qrels", "run", "logits", "stopwords", "per-query"])
def test_bad_utf8_is_located_data_error(tmp_path, capsys, kind):
    good_line, argv = _bad_utf8_cases(tmp_path)[kind]
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(good_line + b"\n" + b"caf\xe9\n")  # a blank line, then the bad one
    bad_line_no = good_line.count(b"\n") + 2
    assert main(argv(str(bad))) == 2
    assert f"{bad}:{bad_line_no}: not valid UTF-8" in capsys.readouterr().err


def test_failed_encode_leaves_no_output(tmp_path, capsys):
    # Every mode reads all its input before it opens --out, so a failure on
    # line 3 leaves an earlier run's file as it was.
    docs = tmp_path / "docs.jsonl"
    docs.write_bytes(b'{"id": "d1", "text": "birds"}\n\n{"id": "d2", "text": "caf\xe9"}\n')
    grid = tmp_path / "grid.tsv"
    grid.write_bytes(b"birds\tcolombia\n1.0\t2.0\n0.5\tnan\n")
    out = tmp_path / "vectors.jsonl"
    out.write_text("stale output of an earlier run\n")
    for argv, bad in (
        (["--tf", "--docs", str(docs)], docs),
        (["--bm25", "--docs", str(docs)], docs),
        (["--logits", str(grid)], grid),
    ):
        assert main(["encode", *argv, "--out", str(out)]) == 2
        assert f"{bad}:3: " in capsys.readouterr().err
        assert out.read_text() == "stale output of an earlier run\n"


@pytest.mark.parametrize("unwritable", ["--out", "--per-query"])
def test_failed_eval_leaves_neither_output(tmp_path, capsys, unwritable):
    # --out and --per-query are written as one unit: whichever of them cannot
    # be written, the other one is not left behind either.
    run, qrels = tmp_path / "run.trec", tmp_path / "q.qrels"
    write_lines(run, "q1 Q0 d1 1 1.000000 t")
    write_lines(qrels, "q1 0 d1 1")
    outputs = {"--out": tmp_path / "rep.json", "--per-query": tmp_path / "pq.tsv"}
    outputs[unwritable] = tmp_path / "missing-dir" / outputs[unwritable].name
    argv = ["eval", "--run", str(run), "--qrels", str(qrels), "--metrics", "ndcg@1"]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert main(argv) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.qrels", "run.trec"]


@pytest.mark.parametrize("command", ["compose", "search"])
def test_failed_query_is_named_and_leaves_no_output(tmp_path, capsys, indexed_corpus, command):
    queries = tmp_path / "q.jsonl"
    write_lines(
        queries,
        json.dumps({"qid": "ok", "operator": "atomic", "method": "atomic", "a": {"colombia": 1.0}}),
        json.dumps({"qid": "zero-b", "operator": "difference", "method": "orthogonal",
                    "a": {"colombia": 1.0}, "b": {}}),
    )
    out = tmp_path / "out"
    argv = [command, "--queries", str(queries), "--out", str(out)]
    if command == "search":
        argv += ["--index", str(indexed_corpus), "--threads", "1"]
    assert main(argv) == 2
    assert f"error: {queries}: query 'zero-b': cannot project onto a zero vector" in capsys.readouterr().err
    assert not out.exists()


_VECTOR_RECORD = json.dumps({"id": "v1", "vector": {"colombia": 1.0}})
_QUERY_RECORD = json.dumps({"qid": "q1", "operator": "atomic", "method": "atomic", "a": {"colombia": 1.0}})


@pytest.mark.parametrize("lines, key", [
    ((_VECTOR_RECORD, _QUERY_RECORD), "id"),
    ((_QUERY_RECORD, _VECTOR_RECORD), "qid"),
], ids=["vector-then-query", "query-then-vector"])
@pytest.mark.parametrize("command", ["compose", "search"])
def test_first_record_decides_the_kind_of_every_record(tmp_path, capsys, indexed_corpus, command, lines, key):
    """A queries file holds vector records or query records, never both: the second
    kind is refused at its line, with no output."""
    queries = tmp_path / "q.jsonl"
    write_lines(queries, *lines)
    out = tmp_path / "out"
    argv = [command, "--queries", str(queries), "--out", str(out)]
    if command == "search":
        argv += ["--index", str(indexed_corpus)]
    assert main(argv) == 2
    assert f"error: {queries}:2: missing or invalid {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_streams_hits_and_a_later_failure_leaves_no_run(tmp_path, capsys, monkeypatch, indexed_corpus, threads):
    """search hands each query's hits to the run writer as they are produced, so a
    query that fails after earlier hits were written leaves no --out file, not even
    the earlier run that --out held; compose behaves the same."""
    queries = tmp_path / "q.jsonl"
    write_lines(
        queries,
        json.dumps({"qid": "ok", "operator": "atomic", "method": "atomic", "a": {"colombia": 1.0}}),
        json.dumps({"qid": "zero-b", "operator": "difference", "method": "orthogonal",
                    "a": {"colombia": 1.0}, "b": {}}),
    )
    out = tmp_path / "run.trec"
    out.write_text("q0 Q0 d1 1 1.000000 setvec\n")
    written = []
    write = setvec.formats.write_search_results

    def recording(path, results, tag):
        def each():
            for qid, hits in results:
                written.append(qid)
                yield qid, hits
        write(path, each(), tag=tag)

    monkeypatch.setattr(cli.formats, "write_search_results", recording)
    argv = ["search", "--index", str(indexed_corpus), "--queries", str(queries), "--threads", threads, "--out", str(out)]
    assert main(argv) == 2
    assert written == ["ok"]
    assert f"error: {queries}: query 'zero-b': cannot project onto a zero vector" in capsys.readouterr().err
    assert not out.exists()


_OVERFLOWS = {
    "nrf": {"operator": "difference", "method": "nrf", "a": {"x": 1.0}, "b": {"y": 10.0},
            "params": {"lambda": 1e308}},
    "add": {"operator": "union", "method": "add", "a": {"y": 1e308}, "b": {"y": 1e308}},
    "atomic": {"operator": "atomic", "method": "atomic", "a": {"x": 1e200}},
    "cpt": {"operator": "intersection", "method": "cpt", "a": {"y": 1e308}, "b": {"z": 1e308}},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,qid", [
    ("compose", "nrf"), ("compose", "add"), ("compose", "cpt"),
    ("search", "nrf"), ("search", "add"), ("search", "atomic"), ("search", "cpt"),
])
def test_overflow_is_named_data_error_without_output(tmp_path, capsys, command, qid):
    """A weight or a score that overflows to inf/nan fails the query instead of being written."""
    queries = tmp_path / "q.jsonl"
    write_lines(queries, json.dumps({"qid": qid, **_OVERFLOWS[qid]}))
    out = tmp_path / "out"
    argv = [command, "--queries", str(queries), "--out", str(out)]
    if command == "search":
        docs = tmp_path / "docs.jsonl"
        write_lines(docs, json.dumps({"id": "d1", "vector": {"x": 1e200, "y": 1.0}}),
                    json.dumps({"id": "d2", "vector": {"y": 2.0, "z": 1.0}}))
        index = tmp_path / "corpus.svix"
        assert main(["index", "--vectors", str(docs), "--out", str(index)]) == 0
        argv += ["--index", str(index), "--threads", "1"]
    assert main(argv) == 2
    assert f"error: {queries}: query '{qid}': " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record", [
    {"qid_a": ["qa"], "qid_b": "qb", "doc_a": "da", "doc_b": "db"},
    {"qid_a": "qa", "qid_b": "qb", "doc_a": 1, "doc_b": "db"},
    {"qid_a": "qa", "qid_b": "qb", "doc_a": "da"},
], ids=["list", "number", "missing"])
def test_bad_pair_record_is_located_data_error(tmp_path, capsys, record):
    pairs = tmp_path / "pairs.jsonl"
    write_lines(pairs, json.dumps({"qid_a": "qa", "qid_b": "qb", "doc_a": "da", "doc_b": "db"}),
                json.dumps(record))
    scores = tmp_path / "scores.trec"
    write_lines(scores, "qa Q0 da 1 2.0 t", "qa Q0 db 2 1.0 t", "qb Q0 db 1 2.0 t", "qb Q0 da 2 1.0 t")
    assert main(["pairwise", "--pairs", str(pairs), "--scores", str(scores)]) == 2
    assert f"{pairs}:2: " in capsys.readouterr().err


def test_interference_record_without_method_names_no_flag(tmp_path, capsys):
    """analyze-interference has no --method, so a record without one is only the file's fault."""
    queries, metrics = tmp_path / "q.jsonl", tmp_path / "m.tsv"
    write_lines(queries, json.dumps({"qid": "q1", "operator": "difference", "a": {"x": 1.0}, "b": {"y": 1.0}}))
    write_lines(metrics, "q1\t0.5")
    assert main(["analyze-interference", "--queries", str(queries), "--per-query-metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert f"{queries}:1: " in err
    assert "--method" not in err


def test_interference_without_difference_queries_is_data_error(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    write_lines(queries, json.dumps({"qid": "q1", "operator": "atomic", "method": "atomic", "a": {"x": 1.0}}))
    metrics = tmp_path / "m.tsv"
    write_lines(metrics, "q1\t0.5")
    assert main(["analyze-interference", "--queries", str(queries), "--per-query-metrics", str(metrics)]) == 2
    assert "no difference queries" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("encode", r'{"id": "d\ud800", "text": "birds"}'),
    ("encode", r'{"id": "d2", "text": "birds \udfff of colombia"}'),
    ("index", r'{"id": "d\uDBFF", "vector": {"x": 1.0}}'),
    ("index", r'{"id": "d2", "vector": {"x\ud800": 1.0}}'),
    ("compose", r'{"qid": "q\ud800", "operator": "atomic", "method": "atomic", "a": {"x": 1.0}}'),
    ("compose", r'{"qid": "q2", "operator": "atomic", "method": "atomic", "a": {"\udc00": 1.0}}'),
], ids=["encode-id", "encode-text", "index-id", "index-term", "compose-qid", "compose-term"])
def test_lone_surrogate_escape_is_located_data_error(tmp_path, capsys, command, line):
    path = tmp_path / "input.jsonl"
    good = {
        "encode": '{"id": "d1", "text": "birds"}',
        "index": '{"id": "d1", "vector": {"x": 1.0}}',
        "compose": '{"qid": "q1", "operator": "atomic", "method": "atomic", "a": {"x": 1.0}}',
    }[command]
    write_lines(path, good, line)
    out = tmp_path / "out"
    argv = {
        "encode": ["encode", "--bm25", "--docs", str(path)],
        "index": ["index", "--vectors", str(path)],
        "compose": ["compose", "--queries", str(path)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{path}:2: a string escapes a lone UTF-16 surrogate" in capsys.readouterr().err
    assert not out.exists()


def test_deeply_nested_json_is_located_data_error(tmp_path, capsys):
    vectors = tmp_path / "v.jsonl"
    write_lines(vectors, '{"id": "d1", "vector": {}}', "[" * 100_000)
    out = tmp_path / "i.svix"
    assert main(["index", "--vectors", str(vectors), "--out", str(out)]) == 2
    assert f"{vectors}:2: invalid JSON (nested too deeply)" in capsys.readouterr().err
    assert not out.exists()


def test_escaped_surrogate_pair_reads_as_one_character(tmp_path):
    vectors = tmp_path / "v.jsonl"
    write_lines(vectors, r'{"id": "d\ud83d\ude00", "vector": {"\ud83d\ude00": 1.5}}')
    out = tmp_path / "copy.jsonl"
    index = tmp_path / "i.svix"
    assert main(["index", "--vectors", str(vectors), "--out", str(index)]) == 0
    idx = setvec.load(index)
    assert idx.doc_names == ["d\U0001F600"]
    assert idx.vocab.terms == ("\U0001F600",)
    queries = tmp_path / "q.jsonl"
    write_lines(queries, r'{"qid": "q\uD83D\uDE00", "operator": "atomic", "method": "atomic", "a": {"\ud83d\ude00": 2.0}}')
    assert main(["compose", "--queries", str(queries), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == '{"id": "q\U0001F600", "vector": {"\U0001F600": 2.0}}\n'


# str.split() also splits on non-ASCII whitespace: a no-break space and an em space.
_UNSTORABLE = ["doc one", "doc\u00a0one", "doc\u2003one", "tab\tbed"]


@pytest.mark.parametrize("name", _UNSTORABLE)
@pytest.mark.parametrize("field", ["doc name", "qid"])
def test_run_field_with_whitespace_is_data_error(tmp_path, capsys, field, name):
    """A name that read_run would split is refused when a run is written, also for an
    index that the library built (the readers refuse such ids before that)."""
    doc, qid = (name, "q1") if field == "doc name" else ("d1", name)
    vocab = setvec.Vocabulary()
    index = tmp_path / "corpus.svix"
    rows = [("d0", {"x": 2.0}), (doc, {"x": 1.0})]
    setvec.save(setvec.build([(n, setvec.SparseVector.from_pairs(v.items(), vocab)) for n, v in rows], vocab), index)
    run = tmp_path / "run.txt"
    if field == "doc name":
        queries = tmp_path / "q.jsonl"
        write_lines(queries, json.dumps({"id": qid, "vector": {"x": 1.0}}))
        assert main(["search", "--index", str(index), "--queries", str(queries), "--out", str(run)]) == 2
        message = capsys.readouterr().err
    else:
        with pytest.raises(setvec.FormatError) as exc:
            setvec.formats.write_search_results(run, [(qid, [(doc, 1.0)])])
        message = f"error: {exc.value}"
    assert f"error: {run}: {field} {name!r} is empty or holds whitespace" in message
    assert not run.exists()


def _unstorable_id_case(tmp_path, command, name):
    """argv for *command* whose input (returned) holds the id *name* on line 1."""
    out = tmp_path / "out"
    if command in ("encode", "encode-tf"):
        path = tmp_path / "docs.jsonl"
        write_lines(path, json.dumps({"id": name, "text": "birds of colombia"}))
        mode = "--bm25" if command == "encode" else "--tf"
        return path, ["encode", mode, "--docs", str(path), "--out", str(out)], out
    if command == "index":
        path = tmp_path / "v.jsonl"
        write_lines(path, json.dumps({"id": name, "vector": {"x": 1.0}}))
        return path, ["index", "--vectors", str(path), "--out", str(out)], out
    path = tmp_path / "q.jsonl"
    write_lines(path, json.dumps({"qid": name, "operator": "atomic", "a": {"x": 1.0}}))
    if command == "compose":
        return path, ["compose", "--queries", str(path), "--out", str(out)], out
    vocab = setvec.Vocabulary()
    index = tmp_path / "i.svix"
    setvec.save(setvec.build([("d1", setvec.SparseVector.from_pairs([("x", 1.0)], vocab))], vocab), index)
    if command == "search-vectors":
        write_lines(path, json.dumps({"id": name, "vector": {"x": 1.0}}))
    return path, ["search", "--index", str(index), "--queries", str(path), "--out", str(out)], out


@pytest.mark.parametrize("name", _UNSTORABLE)
@pytest.mark.parametrize("command", ["encode", "encode-tf", "index", "compose", "search", "search-vectors"])
def test_unstorable_id_is_refused_where_it_is_read(tmp_path, capsys, command, name):
    """Every id that may reach a run is checked as its file is read: exit 2, the line named, no output."""
    path, argv, out = _unstorable_id_case(tmp_path, command, name)
    key = "qid" if command in ("compose", "search") else "id"
    assert main(argv) == 2
    assert f"error: {path}:1: {key} {name!r} is empty or holds whitespace" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag", ["my tag", "", "t\u00a0x", "t\u3000x"])
@pytest.mark.parametrize("command", ["search", "fuse"])
def test_run_tag_with_whitespace_is_usage_error(tmp_path, capsys, indexed_corpus, command, tag):
    out = tmp_path / "run.txt"
    if command == "search":
        queries = tmp_path / "q.jsonl"
        write_lines(queries, json.dumps({"id": "q1", "vector": {"colombia": 1.0}}))
        argv = ["search", "--index", str(indexed_corpus), "--queries", str(queries)]
    else:
        run = tmp_path / "a.trec"
        write_lines(run, "q1 Q0 d1 1 1.0 t")
        argv = ["fuse", "--run-a", str(run), "--run-b", str(run), "--op", "plus"]
    assert main([*argv, "--tag", tag, "--out", str(out)]) == 1
    assert f"argument --tag: {tag!r} is empty or holds whitespace" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_names_without_whitespace_round_trip(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    write_lines(docs, json.dumps({"id": "döc·1", "vector": {"x": 1.0}}))
    index = tmp_path / "corpus.svix"
    assert main(["index", "--vectors", str(docs), "--out", str(index)]) == 0
    queries = tmp_path / "q.jsonl"
    write_lines(queries, json.dumps({"id": "q·é", "vector": {"x": 1.0}}))
    run = tmp_path / "run.txt"
    assert main(["search", "--index", str(index), "--queries", str(queries), "--tag", "tåg", "--out", str(run)]) == 0
    assert run.read_text(encoding="utf-8") == "q·é Q0 döc·1 1 1.000000 tåg\n"
    qrels = tmp_path / "qrels"
    write_lines(qrels, "q·é 0 döc·1 1")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--metrics", "ndcg@1"]) == 0
    assert "ndcg@1  1.0000" in capsys.readouterr().out


def test_logits_with_a_shared_stem_are_usage_error(tmp_path, capsys):
    grids = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        grids.append(tmp_path / folder / "x.tsv")
        write_lines(grids[-1], "t1\tt2", "1.0\t2.0")
    out = tmp_path / "vectors.jsonl"
    assert main(["encode", "--logits", *map(str, grids), "--out", str(out)]) == 1
    assert "--logits files share the stem 'x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stem", ["my grid", "tab\tgrid", "no-break\u00a0space"])
def test_logits_with_a_stem_no_run_can_store_are_usage_error(tmp_path, capsys, stem):
    # index would refuse the id the stem names, so encode refuses it first.
    (tmp_path / "g").mkdir()
    grid = tmp_path / "g" / f"{stem}.tsv"
    write_lines(grid, "t1\tt2", "1.0\t2.0")
    out = tmp_path / "vectors.jsonl"
    assert main(["encode", "--logits", str(grid), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--logits file {str(grid)!r} has the stem" in err
    assert not out.exists()


def test_interference_failure_names_the_query(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    write_lines(
        queries,
        json.dumps({"qid": "q0", "operator": "difference", "method": "subtract", "a": {"x": 1.0}, "b": {"y": 1.0}}),
        json.dumps({"qid": "q1", "operator": "difference", "method": "subtract", "a": {"x": 1.0}, "b": {}}),
    )
    metrics = tmp_path / "m.tsv"
    write_lines(metrics, "q0\t0.5", "q1\t0.25")
    report = tmp_path / "report.json"
    argv = ["analyze-interference", "--queries", str(queries), "--per-query-metrics", str(metrics)]
    assert main([*argv, "--out", str(report)]) == 2
    assert f"error: {queries}: query 'q1': cosine undefined for zero-norm vectors" in capsys.readouterr().err
    assert not report.exists()


def _oracle_run(doc_rows, query_rows, k=10):
    """The expected run, scored in process over a vocabulary that holds every term: ``dot``,
    or for cpt the factorized pseudo-term score over every doc that ``maxpool(a, b)`` touches."""
    vocab = setvec.Vocabulary()
    docs = [(name, setvec.SparseVector.from_pairs(vec.items(), vocab)) for name, vec in doc_rows]
    lines = []
    for row in query_rows:
        a, b = (setvec.SparseVector.from_pairs(row[side].items(), vocab) for side in "ab")
        params = setvec.CompositionParams(m=row.get("params", {}).get("m", 5))
        rep = setvec.compose(setvec.CompositionalQuery(row["qid"], row["operator"], row["method"], a, b, params))
        if isinstance(rep, setvec.PseudoTermVector):
            reach, score = setvec.maxpool(a, b), lambda d: factorized_score(rep.x, rep.y, d)
        else:
            reach, score = rep, lambda d: setvec.dot(rep, d)
        scored = sorted((-score(d), i) for i, (_, d) in enumerate(docs) if np.intersect1d(reach.ids, d.ids).size)
        for rank, (neg_score, i) in enumerate(scored[:k], start=1):
            lines.append(f"{row['qid']} Q0 {docs[i][0]} {rank} {-neg_score:.6f} setvec\n")
    return "".join(lines)


_INDEXED = [
    ("d1", {"a": 1.0, "b": 0.5}),
    ("d2", {"a": 0.25, "c": 2.0}),
    ("d3", {"b": 1.5, "c": 1.0}),
    ("d4", {"b": 1.0}),
]
_MISSING_TERM_QUERIES = [
    # |b|^2 counts zz: the coefficient a.b/|b|^2 is 1/10 where the index alone would give 1.
    {"qid": "orth", "operator": "difference", "method": "orthogonal",
     "a": {"a": 1.0, "b": 1.0}, "b": {"a": 1.0, "zz": 3.0}},
    # zz is outside a's support, so b* keeps it; it scores nothing.
    {"qid": "dis", "operator": "difference", "method": "disentangled",
     "a": {"a": 1.0}, "b": {"c": 1.0, "zz": 2.0, "yy": 0.5}},
    # zz is A's top-1 term: it takes the only slot, and every doc scores 0.
    {"qid": "cpt", "operator": "intersection", "method": "cpt", "params": {"m": 1},
     "a": {"zz": 5.0, "a": 1.0}, "b": {"c": 1.0}},
    {"qid": "cpt2", "operator": "intersection", "method": "cpt", "params": {"m": 2},
     "a": {"zz": 5.0, "a": 1.0}, "b": {"c": 1.0, "yy": 2.0}},
]


def test_search_with_query_terms_missing_from_the_index(tmp_path):
    """Query terms the index lacks still shape the composed query, as if the index knew them."""
    docs = tmp_path / "docs.jsonl"
    write_lines(docs, *(json.dumps({"id": name, "vector": vec}) for name, vec in _INDEXED))
    index = tmp_path / "corpus.svix"
    assert main(["index", "--vectors", str(docs), "--out", str(index)]) == 0
    queries = tmp_path / "q.jsonl"
    write_lines(queries, *map(json.dumps, _MISSING_TERM_QUERIES))
    run = tmp_path / "run.txt"
    assert main(["search", "--index", str(index), "--queries", str(queries), "--threads", "1",
                 "--out", str(run)]) == 0
    text = run.read_text()
    assert text == _oracle_run(_INDEXED, _MISSING_TERM_QUERIES)
    lines = text.splitlines()
    # Dropping the missing term would change the orthogonal run ...
    without = [{**_MISSING_TERM_QUERIES[0], "b": {"a": 1.0}}]
    orth = "".join(line + "\n" for line in lines if line.startswith("orth "))
    assert orth and orth != _oracle_run(_INDEXED, without)
    # ... and with m=1 the missing top term leaves every touched doc at 0.
    cpt = [line.split() for line in lines if line.startswith("cpt ")]
    assert cpt and {fields[4] for fields in cpt} == {"0.000000"}
    assert any(float(line.split()[4]) > 0 for line in lines if line.startswith("cpt2 "))
