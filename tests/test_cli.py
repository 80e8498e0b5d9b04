import json
import os
import subprocess
import sys

import numpy as np
import pytest

import setvec
from setvec import cli
from setvec.cli import main


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
        assert all("∩" in key for key in record["vector"])

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
            '{"id": "i1", "vector": {"colombia∩birds": 1.4142135623730951, '
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

    @pytest.mark.parametrize("cpus, workers", [(8, 3), (2, 2)])
    def test_worker_count_capped(self, tmp_path, indexed_corpus, monkeypatch, cpus, workers):
        # A recording stand-in for the pool, so no thread is ever started.
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        queries = tmp_path / "q.jsonl"
        write_lines(queries, *[json.dumps({"id": f"q{i}", "vector": {"colombia": 1.0}}) for i in range(3)])
        run = tmp_path / "run.trec"
        assert main([
            "search", "--index", str(indexed_corpus), "--queries", str(queries),
            "--threads", "64", "--out", str(run),
        ]) == 0
        assert created == [workers]
        assert len(run.read_text().splitlines()) == 6

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
    ])
    def test_count_flags_share_the_count_rule(self, tmp_path, capsys, indexed_corpus, command, flag, value, shown):
        queries, out = tmp_path / "q.jsonl", tmp_path / "out"
        write_lines(queries, json.dumps({"id": "q1", "vector": {"colombia": 1.0}}))
        if command == "search":
            argv = ["search", "--index", str(indexed_corpus), "--queries", str(queries)]
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
    ])
    def test_bad_query_default_is_usage_error(self, tmp_path, indexed_corpus, birds_files, command, flag):
        vectors, queries = birds_files
        out = tmp_path / "out"
        argv = [command, "--queries", str(queries), "--vectors", str(vectors), flag, "--out", str(out)]
        if command == "search":
            argv += ["--index", str(indexed_corpus)]
        assert main(argv) == 1
        assert not out.exists()


HUGE = "1" + "0" * 400  # a JSON integer no float can hold


def _query(method, params):
    operator = "intersection" if method == "cpt" else "difference"
    return json.dumps({"qid": "q1", "operator": operator, "method": method,
                       "a": {"x": 1.0}, "b": {"y": 1.0}, "params": params})


@pytest.mark.parametrize("command, line", [
    ("index", '{"id": "d1", "vector": {"x": %s}}' % HUGE),
    ("compose", '{"qid": "q1", "operator": "atomic", "method": "atomic", "a": {"x": -%s}}' % HUGE),
    ("compose", _query("cpt", {"m": 0})),
    ("compose", _query("cpt", {"m": 2.7})),
    ("compose", _query("cpt", {"m": True})),
    ("compose", _query("cpt", {"m": "5"})),
    ("compose", _query("nrf", {"lambda": -1})),
    ("compose", _query("nrf", {"lambda": True})),
    ("compose", _query("nrf", {"lambda": "0.5"})),
    ("index", '{"id": "d1", "vector": {"": 1.0}}'),
    ("compose", '{"qid": "q1", "operator": "union", "method": "add", "a": {"x": 1.0}, "b": {"": 1.0}}'),
], ids=["vector-weight-overflow", "inline-weight-overflow", "m-0", "m-2.7", "m-true", "m-str",
        "lambda-neg", "lambda-true", "lambda-str", "vector-empty-term", "inline-empty-term"])
def test_malformed_value_is_located_data_error(tmp_path, capsys, command, line):
    path = tmp_path / "input.jsonl"
    write_lines(path, line)
    flag = "--vectors" if command == "index" else "--queries"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:1: " in capsys.readouterr().err


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
    # --tf streams: line 1's vector is produced before line 3 fails.
    docs = tmp_path / "docs.jsonl"
    docs.write_bytes(b'{"id": "d1", "text": "birds"}\n\n{"id": "d2", "text": "caf\xe9"}\n')
    out = tmp_path / "tf.jsonl"
    out.write_text("stale output of an earlier run\n")
    assert main(["encode", "--tf", "--docs", str(docs), "--out", str(out)]) == 2
    assert f"{docs}:3: " in capsys.readouterr().err
    assert not out.exists()


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
    setvec.save(setvec.build([(n, setvec.SparseVector.from_dict(v, vocab)) for n, v in rows], vocab), index)
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
    docs = [(name, setvec.SparseVector.from_dict(vec, vocab)) for name, vec in doc_rows]
    lines = []
    for row in query_rows:
        a, b = (setvec.SparseVector.from_dict(row[side], vocab) for side in "ab")
        params = setvec.CompositionParams(m=row.get("params", {}).get("m", 5))
        rep = setvec.compose(setvec.CompositionalQuery(row["qid"], row["operator"], row["method"], a, b, params))
        if isinstance(rep, setvec.PseudoTermVector):
            reach, score = setvec.maxpool(a, b), lambda d: setvec.cpt_score_factorized(rep.x, rep.y, d)
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
