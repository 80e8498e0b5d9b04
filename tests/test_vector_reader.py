"""``read_vectors`` against the stdlib-only reader it replaced.

``read_vectors`` parses each line with orjson and keeps orjson's record only
when it is a plain vector record (``formats._plain_vector``); every other
line is read again by ``json.loads``.  These tests pin that the reader
returns what the ``json``-only reader returned, batch and vocabulary, or
raises the same located ``FormatError``, and that plain records never reach
``json.loads``.
"""

import json
import math
import struct
import sys
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setvec import FormatError, Vocabulary, formats
from setvec.formats import read_vectors, write_vectors
from setvec.sparse import NEAR_ZERO, VectorBatch

PLAIN_LIMIT = 2.0**63
PAST_MAX = int(sys.float_info.max) + 1  # an integer a float64 would round down to its max
PROPERTY = settings(max_examples=200, deadline=None)


def _stdlib_read_vectors(path, vocab: Vocabulary) -> VectorBatch:
    """The reader before orjson: every line through ``json.loads`` and ``_screened``."""
    seen: set[str] = set()
    names: list[str] = []
    term_ids, weights, lengths = array("I"), array("d"), array("I")
    for line_no, record in formats._jsonl_records(path):
        where = f"{path}:{line_no}"
        names.append(formats._unique_id(record, "id", seen, where))
        if "vector" not in record:
            raise FormatError(f"{where}: missing 'vector'")
        mapping = formats._screened(record["vector"], where)
        term_ids.extend(vocab.add_all(mapping))
        weights.extend(mapping.values())
        lengths.append(len(mapping))
    return VectorBatch(
        names, lengths, np.frombuffer(term_ids, dtype=np.uint32), np.frombuffer(weights), vocab
    )


def _outcome(reader, content: bytes) -> tuple:
    """What *reader* makes of *content*: the batch's columns as exact text, or the error,
    with the vocabulary as it was left either way."""
    vocab = Vocabulary()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.jsonl"
        path.write_bytes(content)
        try:
            batch = reader(path, vocab)
        except FormatError as exc:
            return "error", str(exc).replace(str(path), "v.jsonl"), vocab.terms
    weights = [w.hex() for w in batch.table.take(batch.codes).tolist()]
    columns = (batch.names, batch.offsets.tolist(), batch.ids.tolist(), weights)
    return "batch", columns, vocab.terms


def _json_calls(content: bytes) -> int:
    """How many lines of *content* ``read_vectors`` passes to ``json.loads``."""
    with mock.patch.object(formats, "_record", wraps=formats._record) as record:
        _outcome(read_vectors, content)
    return record.call_count


def _assert_same(content: bytes) -> None:
    assert _outcome(read_vectors, content) == _outcome(_stdlib_read_vectors, content)


def _from_bits(sign: int, exponent: int, mantissa: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


# Every finite float64 that a batch keeps: biased exponents 983 and up reach below NEAR_ZERO.
KEPT_FLOAT = st.builds(
    _from_bits, st.integers(0, 1), st.integers(983, 2046), st.integers(0, 2**52 - 1)
).filter(lambda w: abs(w) >= NEAR_ZERO)


@PROPERTY
@given(weights=st.lists(KEPT_FLOAT, min_size=1, max_size=12))
def test_written_weights_read_back_bit_for_bit(weights):
    """One row per weight, as ``write_vectors`` writes it; rows below 2**63 stay off ``json``."""
    vocab = Vocabulary(["x"])
    batch = VectorBatch([f"d{i}" for i in range(len(weights))], [1] * len(weights), [0] * len(weights), weights, vocab)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.jsonl"
        write_vectors(path, batch)
        content = path.read_bytes()
    kind, (names, _, _, read), _ = _outcome(read_vectors, content)
    assert kind == "batch" and names == batch.names
    assert read == [w.hex() for w in weights]
    assert _json_calls(content) == sum(abs(w) >= PLAIN_LIMIT for w in weights)


NUMBER = st.from_regex(r"\A-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?\Z")


@PROPERTY
@given(numbers=st.lists(NUMBER, min_size=1, max_size=6))
def test_any_json_number_reads_as_json_reads_it(numbers):
    """Number texts no writer makes (long mantissas, exponents, integers, -0) included."""
    lines = [f'{{"id": "d{i}", "vector": {{"x": {n}, "y": 0.5}}}}' for i, n in enumerate(numbers)]
    _assert_same("\n".join(lines).encode())


TERM = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False), TERM
)
JSON_VALUE = st.recursive(
    SCALAR, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TERM, inner, max_size=3), max_leaves=6
)
RECORD = st.dictionaries(
    st.sampled_from(["id", "vector", "extra"]),
    st.one_of(TERM, st.dictionaries(TERM, st.one_of(st.floats(allow_nan=False), SCALAR), max_size=4), JSON_VALUE),
)


@PROPERTY
@given(records=st.lists(RECORD, min_size=1, max_size=4))
def test_any_json_record_reads_as_json_reads_it(records):
    content = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    _assert_same(content.encode("utf-8"))


GOOD = b'{"id": "d0", "vector": {"a": 0.5, "b": -1.25}}\n'


def _vector_line(weight: str) -> bytes:
    return b'{"id": "d", "vector": {"c": 2.0, "x": %s}}' % weight.encode()


LINES = {
    # Integers around int64 and uint64, where orjson switches to a float, and past float64's max.
    "2**63-1": _vector_line(str(2**63 - 1)),
    "2**63": _vector_line(str(2**63)),
    "2**64": _vector_line(str(2**64)),
    "-2**63-1": _vector_line(str(-(2**63) - 1)),
    "int-max+1": _vector_line(str(PAST_MAX)),
    "-int-max-1": _vector_line(str(-PAST_MAX)),
    # Floats at and past the plain limit.
    "float-2**63": _vector_line(repr(PLAIN_LIMIT)),
    "float-below-2**63": _vector_line(repr(math.nextafter(PLAIN_LIMIT, 0.0))),
    "1e300": _vector_line("1e300"),
    "sum-overflow": _vector_line("1e308, \"y\": 1e308"),
    "nan": _vector_line("NaN"),
    "infinity": _vector_line("Infinity"),
    "minus-infinity": _vector_line("-Infinity"),
    "1e400": _vector_line("1e400"),
    "tiny": _vector_line("5e-324"),
    "minus-zero": _vector_line("-0.0"),
    "true": _vector_line("true"),
    "null": _vector_line("null"),
    "string": _vector_line('"1.0"'),
    "nested": _vector_line("[1.0]"),
    # Escaped surrogates: lone, reversed, and a valid pair.
    "lone-in-id": b'{"id": "d\\ud800", "vector": {"x": 1.0}}',
    "lone-in-term": b'{"id": "d", "vector": {"x\\udfff": 1.0}}',
    "reversed-pair": b'{"id": "d", "vector": {"x\\udc00\\ud800": 1.0}}',
    "valid-pair": b'{"id": "d", "vector": {"x\\ud83d\\ude00": 1.0}}',
    "raw-surrogate": b'{"id": "d", "vector": {"x\xed\xa0\x80": 1.0}}',
    "bad-utf8": b'{"id": "d\xff", "vector": {"x": 1.0}}',
    "raw-tab": b'{"id": "d", "vector": {"x\ty": 1.0}}',
    # Terms and vectors.
    "empty-term": b'{"id": "d", "vector": {"": 1.0}}',
    "empty-vector": b'{"id": "d", "vector": {}}',
    "vector-list": b'{"id": "d", "vector": [["x", 1.0]]}',
    "no-vector": b'{"id": "d"}',
    # Ids.
    "empty-id": b'{"id": "", "vector": {"x": 1.0}}',
    "int-id": b'{"id": 7, "vector": {"x": 1.0}}',
    "spaced-id": b'{"id": "d 1", "vector": {"x": 1.0}}',
    "repeated-id": b'{"id": "d0", "vector": {"x": 1.0}}',
    # Keys.
    "extra-key": b'{"id": "d", "vector": {"x": 1.0}, "extra": 1}',
    "duplicate-term": b'{"id": "d", "vector": {"x": 1.0, "y": 2.0, "x": 3.0}}',
    "duplicate-id-key": b'{"id": "d", "vector": {"x": 1.0}, "id": "e"}',
    "duplicate-vector-key": b'{"id": "d", "vector": {"x": 1.0}, "vector": {"y": 2.0}}',
    # Lines.
    "bom": b'\xef\xbb\xbf{"id": "d", "vector": {"x": 1.0}}',
    "array": b'[{"id": "d", "vector": {"x": 1.0}}]',
    "number": b"1.5",
    "null-line": b"null",
    "trailing-data": b'{"id": "d", "vector": {"x": 1.0}} 1',
    "crlf": b'{"id": "d", "vector": {"x": 1.0}}\r',
    "form-feed-only": b"\x0c",
    "nbsp-after": b'{"id": "d", "vector": {"x": 1.0}}\xc2\xa0',
}
LINES.update(
    (f"depth-{depth}", b'{"id": "d", "vector": {"x": 1.0}, "extra": %s}' % (b"[" * depth + b"]" * depth))
    for depth in (*range(990, 1031, 10), 1022, 1023, 1024, 1025)
)


@pytest.mark.parametrize("line", LINES.values(), ids=LINES.keys())
def test_line_reads_as_json_reads_it(line):
    """Each line alone, between two good lines and after a blank one."""
    _assert_same(line + b"\n")
    _assert_same(GOOD + b"\n" + line + b"\n" + GOOD.replace(b"d0", b"d9"))


def test_plain_records_never_reach_json():
    plain = [LINES[name] for name in ("float-below-2**63", "minus-zero", "tiny", "valid-pair", "duplicate-term", "crlf")]
    content = GOOD + b"".join(line.replace(b'"d"', b'"p%d"' % i) + b"\n" for i, line in enumerate(plain)) + b"\n \n"
    names, _, _, _ = _outcome(read_vectors, content)[1]
    assert len(names) == 1 + len(plain)
    assert _json_calls(content) == 0
