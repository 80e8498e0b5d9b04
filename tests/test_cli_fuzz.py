"""Property: no malformed input file makes the CLI report an internal error.

Each input kind has a valid file and a command that reads it beside other
valid inputs.  Hypothesis replaces the file with random bytes, with a few
byte mutations of the valid one, or (for the JSON kinds) with the valid one
after JSON string escapes are spliced into its keys and string values.  The
command must succeed or fail with a data error (exit 2, never 3), and a
failed command must leave no output file.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setvec.cli import main


def _jsonl(*records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


VALID = {
    "texts": _jsonl({"id": "d1", "text": "Birds of Colombia fly"},
                    {"id": "d2", "text": "birds of Venezuela, café"}),
    "vectors": _jsonl({"id": "d1", "vector": {"birds": 1.0, "colombia": 0.5}},
                      {"id": "d2", "vector": {"birds": 2, "venezuela": -1.5}}),
    "queries": _jsonl(
        {"qid": "q1", "operator": "difference", "method": "orthogonal", "a_ref": "qA", "b_ref": "qB"},
        {"qid": "q2", "operator": "difference", "method": "nrf", "a": {"birds": 1.0}, "b": {"fly": 1.0},
         "params": {"lambda": 0.5}},
        {"qid": "q3", "operator": "intersection", "method": "cpt", "a_ref": "qA", "b_ref": "qB",
         "params": {"m": 2}},
        {"qid": "q4", "operator": "union", "method": "maxpool", "a_ref": "qA", "b": {"colombia": 2.0}},
        {"qid": "q5", "operator": "atomic", "method": "atomic", "a_ref": "qB"},
    ),
    "query-vectors": _jsonl({"id": "v1", "vector": {"birds": 1.0, "venezuela": -1.0}},
                            {"id": "v2", "vector": {"colombia": 0.25}}),
    "pairs": _jsonl({"qid_a": "q1", "qid_b": "q2", "doc_a": "d1", "doc_b": "d2"}),
    "run": b"q1 Q0 d1 1 2.500000 t\nq1 Q0 d2 2 -1.000000 t\nq2 Q0 d2 1 1.000000 t\nq2 Q0 d1 2 0.5 t\n",
    "qrels": b"q1 0 d1 1\nq1 0 d2 0\nq2 0 d2 2\n",
    "logits": b"birds\tcolombia\tvenezuela\n2.0\t-3.0\t0.5\n0.25\t1.5\t-0.75\n",
    "per-query": b"q1\tndcg@10\t0.5\nq2\t0.25\n",
    "stopwords": b"of\nthe\n",
}


def _command(kind: str, bad: str, base: Path, out: str) -> list[str]:
    b = {name: str(base / name) for name in ("docs", "atomic", "queries", "run", "qrels", "index")}
    return {
        "texts": ["encode", "--bm25", "--docs", bad, "--out", out],
        "vectors": ["index", "--vectors", bad, "--out", out],
        "queries": ["search", "--index", b["index"], "--queries", bad, "--vectors", b["atomic"],
                    "--threads", "1", "--out", out],
        "query-vectors": ["search", "--index", b["index"], "--queries", bad, "--threads", "1", "--out", out],
        "pairs": ["pairwise", "--pairs", bad, "--scores", b["run"], "--out", out],
        "run": ["eval", "--run", bad, "--qrels", b["qrels"], "--metrics", "ndcg@2,recall@1", "--out", out],
        "qrels": ["eval", "--run", b["run"], "--qrels", bad, "--per-query", out],
        "logits": ["encode", "--logits", bad, "--aggregation", "sum", "--out", out],
        "per-query": ["analyze-interference", "--queries", b["queries"], "--vectors", b["atomic"],
                      "--per-query-metrics", bad, "--bins", "2", "--out", out],
        "stopwords": ["encode", "--tf", "--docs", b["docs"], "--stopwords", bad, "--out", out],
    }[kind]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    base = tmp_path_factory.mktemp("valid")
    (base / "docs").write_bytes(VALID["texts"])
    (base / "atomic").write_bytes(_jsonl({"id": "qA", "vector": {"birds": 1.0, "colombia": 1.0}},
                                         {"id": "qB", "vector": {"birds": 1.0, "venezuela": 1.0}}))
    (base / "queries").write_bytes(VALID["queries"])
    (base / "run").write_bytes(VALID["run"])
    (base / "qrels").write_bytes(VALID["qrels"])
    # cpt queries need a nonnegative corpus.
    (base / "vectors").write_bytes(_jsonl({"id": "d1", "vector": {"birds": 1.0, "colombia": 0.5}},
                                          {"id": "d2", "vector": {"birds": 2.0, "venezuela": 1.5}}))
    assert main(["index", "--vectors", str(base / "vectors"), "--out", str(base / "index")]) == 0
    return base


# Bytes that JSON, TREC and TSV parsing and UTF-8 decoding react to.
BYTE = st.one_of(st.sampled_from(b'\x00\x80\xc3\xe9\xff\n\r\t {}[]":,-.019eEnaINfy'), st.integers(0, 255))


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or pos == len(data):
            data.insert(pos, draw(BYTE))
        elif op == "replace":
            data[pos] = draw(BYTE)
        else:
            del data[pos]
    return bytes(data)


def _check(kind: str, content: bytes, base: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "input"
        bad.write_bytes(content)
        out = Path(tmp) / "out"
        code = main(_command(kind, str(bad), base, str(out)))
        assert code in (0, 2)
        if code:
            assert not out.exists()


FUZZ = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", sorted(VALID))
@FUZZ
@given(data=st.data())
def test_mutated_input_never_exits_3(base, kind, data):
    _check(kind, data.draw(mutated(VALID[kind])), base)


@pytest.mark.parametrize("kind", sorted(VALID))
@FUZZ
@given(content=st.binary(max_size=120))
def test_random_bytes_never_exit_3(base, kind, content):
    _check(kind, content, base)


# Decoded characters that json.dumps writes back as escapes: lone surrogates,
# NUL, a backslash, a quote and an emoji (an escaped surrogate pair).
ESCAPED = ("\ud800", "\udfff", "\x00", "\\", '"', "\U0001F600")
JSON_KINDS = sorted(kind for kind, valid in VALID.items() if valid.startswith(b"{"))


def _string_slots(node):
    """(object, key, is_key) for every key and every string value below *node*."""
    for key, value in node.items():
        yield node, key, True
        if isinstance(value, str):
            yield node, key, False
        elif isinstance(value, dict):
            yield from _string_slots(value)


@st.composite
def escaped(draw, valid: bytes) -> bytes:
    records = [json.loads(line) for line in valid.decode("utf-8").splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        node, key, is_key = draw(st.sampled_from([s for r in records for s in _string_slots(r)]))
        old = key if is_key else node[key]
        pos = draw(st.integers(0, len(old)))
        new = old[:pos] + draw(st.sampled_from(ESCAPED)) + old[pos:]
        if is_key:
            items = list(node.items())
            node.clear()
            node.update((new if k == key else k, v) for k, v in items)
        else:
            node[key] = new
    return "".join(json.dumps(r) + "\n" for r in records).encode("ascii")


@pytest.mark.parametrize("kind", JSON_KINDS)
@FUZZ
@given(data=st.data())
def test_escaped_strings_never_exit_3(base, kind, data):
    _check(kind, data.draw(escaped(VALID[kind])), base)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_input_succeeds(base, kind):
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "input"
        good.write_bytes(VALID[kind])
        out = Path(tmp) / "out"
        assert main(_command(kind, str(good), base, str(out))) == 0
        assert out.exists()
