"""Property: no malformed input file or flag value makes the CLI report an internal error.

Each input kind has a valid file and a command that reads it beside other
valid inputs.  Hypothesis replaces the file with random bytes, with a few
byte mutations of the valid one, or (for the JSON kinds) with the valid one
after JSON string escapes are spliced into its keys and string values.  The
command must succeed or fail with a data error (exit 2, never 3), and a
failed command must leave no output file.  A last property gives random
text to one value-taking flag of a command that succeeds as given: the
command may succeed or fail with a usage or data error, never exit 3.
"""

import argparse
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setvec.cli import build_parser, main


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
    # The other inputs of the flag-value properties.
    (base / "grid.tsv").write_bytes(VALID["logits"])
    (base / "stopwords").write_bytes(VALID["stopwords"])
    (base / "pairs").write_bytes(VALID["pairs"])
    (base / "per-query").write_bytes(b"q1\t0.5\nq2\t0.25\n")
    # Difference queries only, which every difference --method can override.
    (base / "differences").write_bytes(b"".join(VALID["queries"].splitlines(keepends=True)[:2]))
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


# One command per subcommand (two for encode's modes) that succeeds as given;
# between them they take every value-taking flag of the parser.
def _valid_argv(name: str, base: Path, out: str) -> list[str]:
    b = {kind: str(base / kind) for kind in ("docs", "atomic", "queries", "run", "qrels", "index", "vectors")}
    return {
        "encode-docs": ["encode", "--bm25", "--docs", b["docs"], "--k1", "0.9", "--b", "0.4",
                        "--stopwords", str(base / "stopwords")],
        "encode-logits": ["encode", "--logits", str(base / "grid.tsv"), "--epsilon", "0.1",
                          "--neg-formula", "corrected", "--aggregation", "absmax"],
        "index": ["index", "--vectors", b["vectors"], "--threads", "2"],
        "compose": ["compose", "--queries", str(base / "differences"), "--vectors", b["atomic"], "--method", "nrf",
                    "--lambda", "0.5", "--m", "3"],
        "search": ["search", "--index", b["index"], "--queries", b["queries"], "--vectors", b["atomic"],
                   "--k", "2", "--lambda", "0.5", "--m", "2", "--candidate-pool", "10", "--tag", "t",
                   "--threads", "1"],
        "fuse": ["fuse", "--run-a", b["run"], "--run-b", b["run"], "--op", "plus", "--tag", "t"],
        "eval": ["eval", "--run", b["run"], "--qrels", b["qrels"], "--metrics", "ndcg@2",
                 "--per-query", str(Path(out).with_suffix(".tsv"))],
        "pairwise": ["pairwise", "--pairs", str(base / "pairs"), "--scores", b["run"]],
        "analyze-interference": ["analyze-interference", "--queries", str(base / "differences"),
                                 "--vectors", b["atomic"],
                                 "--per-query-metrics", str(base / "per-query"), "--bins", "2"],
    }[name] + ["--out", out]


def _value_flags(command: str) -> list[str]:
    parser = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(a.option_strings[0] for a in parser.choices[command]._actions
                  if a.option_strings and a.nargs != 0 and not isinstance(a, argparse._HelpAction))


# Flags whose value names a file.  Their text becomes a file name inside the
# example's own folder, so that no example reads or writes anywhere else.
PATH_FLAGS = {"--docs", "--logits", "--out", "--stopwords", "--vectors", "--queries", "--index", "--run-a",
              "--run-b", "--run", "--qrels", "--per-query", "--pairs", "--scores", "--per-query-metrics"}
# Values that number and metric parsers react to: superscript and
# Arabic-Indic digits, overflows, signs, spaces and an option.
SPECIAL_VALUES = ["", " ", "0", "-1", "1e400", "-1e400", "nan", "inf", "9" * 40, "²", "١٢", "0x10",
                  "ndcg@²", "recall@0", "ndcg@1,", "1_0", "+3", "3.", ".5e-3", "--help"]
# Besides those, any text an argv can hold: no NUL, and no lone surrogate.
FLAG_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12),
    st.sampled_from(SPECIAL_VALUES),
)
COMMANDS = ["encode-docs", "encode-logits", "index", "compose", "search", "fuse", "eval", "pairwise",
            "analyze-interference"]


def _run_with(name: str, base: Path, tmp: str, flag: str, value: str) -> int:
    """The valid command *name* with *flag* given *value* instead, or in addition."""
    argv = _valid_argv(name, base, str(Path(tmp) / "out"))
    if flag in PATH_FLAGS:
        value = str(Path(tmp) / value.replace("/", "_"))
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    return main([*argv, f"{flag}={value}"])


@pytest.mark.parametrize("name", COMMANDS)
def test_valid_flag_values_succeed(base, name):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        assert main(_valid_argv(name, base, out)) == 0
        assert Path(out).exists()


@pytest.mark.parametrize("name", COMMANDS)
def test_special_flag_values_never_exit_3(base, name):
    flags = [flag for flag in _value_flags(_valid_argv(name, base, "out")[0]) if flag not in PATH_FLAGS]
    with tempfile.TemporaryDirectory() as tmp:
        for flag in flags:
            for value in SPECIAL_VALUES:
                assert _run_with(name, base, tmp, flag, value) in (0, 1, 2), (flag, value)


@pytest.mark.parametrize("name", COMMANDS)
@FUZZ
@given(data=st.data())
def test_random_flag_value_never_exits_3(base, name, data):
    flag = data.draw(st.sampled_from(_value_flags(_valid_argv(name, base, "out")[0])), label="flag")
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_with(name, base, tmp, flag, data.draw(FLAG_TEXT, label="value")) in (0, 1, 2)
