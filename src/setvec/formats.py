"""File formats: every text file setvec reads or writes goes through this module.

All text files are UTF-8.  ``_lines`` is the one reader: it decodes each line
on its own, accepts LF and CRLF, skips blank lines and reports a bad line as
``path:N:``.  ``_write`` is the one writer: it streams lines to one or more
outputs and removes every output it wrote if producing one fails.  Term
strings are opaque here.  A JSON string may not escape a lone UTF-16
surrogate, which no UTF-8 output could hold.

``read_vectors`` reads the whole file into one :class:`VectorBatch`, so its
memory grows with the number of (term, weight) entries; ``write_vectors``
streams a batch out in blocks of rows.

``read_vectors`` parses each line with orjson, about three times as fast as
``json.loads`` on the vectors ``encode`` writes, and keeps orjson's record
only for a plain vector record: keys exactly ``"id"`` (a str) and
``"vector"``, a non-empty object of float weights below 2**63 in magnitude
with no empty term.  On such a line both parsers agree and every check
passes.  Every other line is read again by ``json.loads`` with its located
errors, the lone-surrogate rule and ``_screened``: orjson reads an integer
beyond int64 and uint64 as a float, nests to its own depth limit and words
its errors its own way.  Every other reader stays on ``json`` for the same
reasons (a query's ``"m": 2**64`` must stay an integer), and gains little:
text and query files are small next to a vectors file.

Vector JSONL     {"id": "...", "vector": {"term": weight, ...}}
Pseudo-term rows {"id": "...", "pairs": {"termA∩termB": weight, ...}}  (written, never read)
Text JSONL       {"id": "...", "text": "..."}
Query JSONL      {"qid": "...", "operator": "...", "method": "...",
                  "a_ref": "..."| "a": {...}, "b_ref"|"b": ...,
                  "params": {"lambda": 0.5, "m": 5}}   (or vector records: read_queries)
TREC qrels       qid 0 docid grade
Run              qid Q0 docid rank score tag      (rank 1-based, 6-decimal scores)
Logit grid       TSV; first row = term strings, later rows = positions.
Pairs JSONL      {"qid_a": "...", "qid_b": "...", "doc_a": "...", "doc_b": "..."}
Per-query TSV    qid<TAB>value or qid<TAB>metric<TAB>value (one metric per qid)
Stopwords        one token per line
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
import warnings
from array import array
from json.encoder import encode_basestring  # json.dumps(s, ensure_ascii=False) of a str, without an encoder per call
from typing import Iterable, Iterator, Mapping

import numpy as np

from .activations import LogitMatrix
from .compose import OP_ATOMIC, CompositionalQuery, CompositionParams
from .cpt import PseudoTermVector
from .errors import FormatError
from .evaluation import PairedQueries
from .lexical import tokenize
from .sparse import SparseVector, VectorBatch, Vocabulary

DEFAULT_RUN_TAG = "setvec"
PAIR_FIELDS = ("qid_a", "qid_b", "doc_a", "doc_b")
WRITE_BLOCK_ROWS = 256  # vector records joined into one string per write
_PLAIN_LIMIT = 2.0**63  # orjson reads an integer literal beyond int64 and uint64 as a float at least this large


def _lines(path, raw: bool = False) -> Iterator[tuple[int, str | bytes]]:
    """Yield ``(line number, line)`` for each non-blank line, without its line end.

    With *raw*, yield every line as the bytes read, line end included, for a
    reader that parses most lines itself and passes the rest to :func:`_text`.
    """
    with open(path, "rb") as fh:
        if raw:
            yield from enumerate(fh, start=1)
            return
        for line_no, raw_line in enumerate(fh, start=1):
            line = _text(path, line_no, raw_line)
            if line is not None:
                yield line_no, line


def _text(path, line_no: int, raw: bytes) -> str | None:
    """Line *line_no* of *path* decoded and without its line end, or None when it is blank."""
    try:
        line = raw.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})") from None
    return line if line.strip() else None


def _write(*outputs: tuple[object, Iterable[str]]) -> None:
    """Stream each ``(path, lines)`` output to its path as UTF-8, in order; if producing or
    writing any of them fails, remove every file written so far."""
    written = []  # only a regular file is removed: never unlink /dev/null or a pipe
    try:
        for path, lines in outputs:
            with open(path, "w", encoding="utf-8") as fh:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    written.append(path)
                fh.writelines(lines)
    except BaseException:
        for path in dict.fromkeys(written):  # a path given twice is removed once
            os.remove(path)
        raise


def _jsonl_records(path) -> Iterator[tuple[int, dict]]:
    for line_no, line in _lines(path):
        yield line_no, _record(f"{path}:{line_no}", line)


def _record(where: str, line: str) -> dict:
    """The JSON object on *line*, read by ``json.loads``; *where* locates its errors."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise FormatError(f"{where}: invalid JSON (nested too deeply)") from None
    if not isinstance(record, dict):
        raise FormatError(f"{where}: expected a JSON object")
    # json.loads accepts an escaped lone surrogate, which no UTF-8 output can hold.
    if ("\\ud" in line or "\\uD" in line) and _has_lone_surrogate(record):
        raise FormatError(f"{where}: a string escapes a lone UTF-16 surrogate")
    return record


def _has_lone_surrogate(record: dict) -> bool:
    try:
        json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _unique_id(record: dict, key: str, seen: set[str], where: str) -> str:
    rec_id = record.get(key)
    if not isinstance(rec_id, str) or not rec_id:
        raise FormatError(f"{where}: missing or invalid {key!r}")
    _run_field(where, key, rec_id)  # a run file must be able to store every id read
    if rec_id in seen:
        raise FormatError(f"{where}: duplicate {key} {rec_id!r}")
    seen.add(rec_id)
    return rec_id


def _screened(mapping, where: str) -> dict:
    """*mapping*, once it is an object of usable ``(term, weight)`` pairs; otherwise
    the located error for its first unusable pair."""
    if not isinstance(mapping, dict):
        raise FormatError(f"{where}: 'vector' must be an object")
    for term, weight in mapping.items():
        if not term:
            raise FormatError(f"{where}: empty term")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise FormatError(f"{where}: weight for {term!r} is not a number")
        # An integer too large for a float is as unusable as inf.
        if not -sys.float_info.max <= weight <= sys.float_info.max:
            raise FormatError(f"{where}: weight for {term!r} is not finite")
    return mapping


def _vector_from_json(mapping, vocab: Vocabulary, where: str) -> SparseVector:
    mapping = _screened(mapping, where)
    return SparseVector(vocab.add_all(mapping), list(mapping.values()), vocab)


def _plain_vector(record) -> dict | None:
    """The ``"vector"`` of *record*, an ``orjson.loads`` result, when *record* is a plain
    vector record (see the module docstring); None for anything else.

    On a plain record orjson returns what ``json.loads`` returns and every
    check of :func:`_screened` passes, so it needs no second pass.
    """
    if type(record) is not dict or len(record) != 2 or type(record.get("id")) is not str:
        return None
    vector = record.get("vector")
    if type(vector) is not dict or not vector or "" in vector:
        return None
    values = vector.values()
    if {float}.issuperset(map(type, values)) and -_PLAIN_LIMIT < min(values) and max(values) < _PLAIN_LIMIT:
        return vector
    return None


def read_vectors(path, vocab: Vocabulary) -> VectorBatch:
    """Read every (id, vector) record into one batch; duplicate ids are rejected.

    Each line is parsed by orjson first; a line that is not a plain vector
    record (:func:`_plain_vector`) is read again by ``json.loads``, with the
    checks and located errors of every other JSONL reader.
    """
    # Imported here, not at the top: no other reader uses orjson, and a `search`
    # child given no --vectors never loads it.
    from orjson import JSONDecodeError, loads

    seen: set[str] = set()
    names: list[str] = []
    term_ids, weights, lengths = array("I"), array("d"), array("I")
    for line_no, raw in _lines(path, raw=True):
        where = f"{path}:{line_no}"
        try:
            record = loads(raw)
        except JSONDecodeError:
            record = None
        mapping = _plain_vector(record)
        if mapping is None:
            line = _text(path, line_no, raw)
            if line is None:
                continue
            record = _record(where, line)
        names.append(_unique_id(record, "id", seen, where))
        if mapping is None:
            if "vector" not in record:
                raise FormatError(f"{where}: missing 'vector'")
            mapping = _screened(record["vector"], where)
        term_ids.fromlist(vocab.add_all(mapping))
        weights.fromlist(list(mapping.values()))  # faster than extending from the view
        lengths.append(len(mapping))
    return VectorBatch(
        names, lengths, np.frombuffer(term_ids, dtype=np.uint32), np.frombuffer(weights), vocab
    )


def _json_key(term: str) -> str:
    return encode_basestring(term) + ": "


def _json_value(weight: float) -> str:
    return repr(weight) + ", "


def _records(
    names: list[str], bounds: list[int], keys: Iterable[str], values: Iterable[str], field: str = "vector"
) -> str:
    """Records ``{"id": name, field: {...}}`` as ``json.dumps(record, ensure_ascii=False)`` writes them.

    Record ``i`` holds entries ``bounds[i] - bounds[0]`` up to
    ``bounds[i + 1] - bounds[0]`` of *keys* (``'"term": '``) and *values*
    (``'weight, '``).  All pieces are joined once, so only the first and the
    last piece of a record are touched one by one.
    """
    base = bounds[0]
    pieces: list = [None] * (2 * (bounds[-1] - base))
    pieces[0::2] = keys
    pieces[1::2] = values
    lead = ""  # records without entries that come before every entry
    for name, start, end in zip(names, bounds, bounds[1:]):
        head = '{"id": ' + encode_basestring(name) + f', "{field}": {{'
        first, last = 2 * (start - base), 2 * (end - base) - 1
        if last < first:
            if first:
                pieces[first - 1] += head + "}}\n"
            else:
                lead += head + "}}\n"
        else:
            pieces[first] = head + pieces[first]
            pieces[last] = pieces[last][:-2] + "}}\n"
    return lead + "".join(pieces)


def _batch_lines(batch: VectorBatch) -> Iterator[str]:
    """The records of *batch* in blocks of rows; each term and each distinct weight is formatted once.

    A weight's text is found by its code, its position in the batch's table
    of sorted distinct weights (the table an index file stores).  Texts are
    gathered from object arrays, faster than one list lookup per entry.
    """
    keys = np.array([_json_key(term) for term in batch.vocab.terms], dtype=object)
    values = np.array([_json_value(weight) for weight in batch.table.tolist()], dtype=object)
    bounds = batch.offsets.tolist()
    for lo in range(0, len(batch), WRITE_BLOCK_ROWS):
        hi = min(lo + WRITE_BLOCK_ROWS, len(batch))
        rows = slice(bounds[lo], bounds[hi])
        yield _records(
            batch.names[lo:hi], bounds[lo : hi + 1], keys[batch.ids[rows]].tolist(), values[batch.codes[rows]].tolist()
        )


def _item_lines(items: Iterable[tuple[str, SparseVector | PseudoTermVector]]) -> Iterator[str]:
    for rec_id, vec in items:
        row = vec.to_dict()
        field = "pairs" if isinstance(vec, PseudoTermVector) else "vector"
        yield _records([rec_id], [0, len(row)], map(_json_key, row), map(_json_value, row.values()), field)


def write_vectors(
    path, items: VectorBatch | Iterable[tuple[str, SparseVector | PseudoTermVector]]
) -> None:
    """Inverse of :func:`read_vectors`; weights round-trip exactly.

    A :class:`VectorBatch`, what ``encode`` builds, is written in blocks of rows, and
    ``(id, vector)`` pairs, what ``compose`` yields, one at a time in the same bytes.
    Pseudo-term vectors serialize under ``"pairs"`` with ``termA∩termB`` keys
    (debug form); a vector reader refuses such a row as missing ``'vector'``.
    """
    _write((path, _batch_lines(items) if isinstance(items, VectorBatch) else _item_lines(items)))


def read_texts(path) -> Iterator[tuple[str, str]]:
    """Stream (id, text) records for the lexical encoders."""
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        rec_id = _unique_id(record, "id", seen, where)
        text = record.get("text")
        if not isinstance(text, str):
            raise FormatError(f"{where}: missing or invalid 'text'")
        yield rec_id, text


def read_queries(
    path,
    vectors: Mapping[str, SparseVector],
    vocab: Vocabulary,
    method: str | None = None,
    params: CompositionParams = CompositionParams(),
) -> list[CompositionalQuery]:
    """Parse query records, resolving a_ref/b_ref against *vectors*, or vector records.

    The first record decides the kind of every record.  One with an ``"id"``
    and no ``"operator"`` makes a file of vector records, as
    :func:`read_vectors` reads them, each an ``atomic`` query; any other makes
    a file of query records.  The file is read once, so it may be a pipe.
    *method*, when given, overrides the method of every non-atomic record;
    *params* supplies the lambda and m that a record's params leave out.
    """
    queries = []
    seen: set[str] = set()
    vector_file = None
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        if vector_file is None:
            vector_file = "id" in record and "operator" not in record
        if vector_file:
            qid = _unique_id(record, "id", seen, where)
            if "vector" not in record:
                raise FormatError(f"{where}: missing 'vector'")
            a = _vector_from_json(record["vector"], vocab, where)
            queries.append(CompositionalQuery(qid=qid, operator=OP_ATOMIC, method="atomic", a=a))
            continue
        qid = _unique_id(record, "qid", seen, where)
        operator = record.get("operator")
        if not isinstance(operator, str):
            raise FormatError(f"{where}: missing 'operator'")
        if operator == OP_ATOMIC:
            record_method = "atomic"  # a method override never applies to pass-through queries
        else:
            record_method = method or record.get("method")
        if not isinstance(record_method, str):
            raise FormatError(f"{where}: missing 'method'")

        def _side(name: str) -> SparseVector | None:
            ref = record.get(f"{name}_ref")
            inline = record.get(name)
            if ref is not None and inline is not None:
                raise FormatError(f"{where}: give either '{name}_ref' or '{name}', not both")
            if ref is not None:
                if not isinstance(ref, str) or ref not in vectors:
                    raise FormatError(f"{where}: unknown vector reference {ref!r}")
                return vectors[ref]
            if inline is not None:
                return _vector_from_json(inline, vocab, where)
            return None

        a = _side("a")
        if a is None:
            raise FormatError(f"{where}: query needs 'a_ref' or an inline 'a'")
        b = _side("b")
        raw_params = record.get("params", {})
        if not isinstance(raw_params, dict):
            raise FormatError(f"{where}: 'params' must be an object")
        for key in raw_params:
            if key not in ("lambda", "m"):
                raise FormatError(f"{where}: unknown params key {key!r}; expected 'lambda' or 'm'")
        try:
            query = CompositionalQuery(
                qid=qid,
                operator=operator,
                method=record_method,
                a=a,
                b=b,
                params=CompositionParams(
                    lambda_=raw_params.get("lambda", params.lambda_), m=raw_params.get("m", params.m)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        queries.append(query)
    return queries


def plain_number(parse, s: str):
    """``parse(s)`` (``int`` or ``float``), refusing the underscores and non-ASCII digits Python reads;
    the one number rule for the files and the CLI's flags."""
    if "_" in s or not s.isascii():
        raise ValueError(f"not a plain ASCII number: {s!r}")
    return parse(s)


def read_qrels(path) -> dict[str, dict[str, int]]:
    """TREC qrels as ``{qid: {doc: grade}}``, grades nonnegative integers; a duplicate
    (qid, doc) keeps the last grade, with a warning."""
    qrels: dict[str, dict[str, int]] = {}
    for line_no, line in _lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path}:{line_no}: expected 'qid 0 docid grade'")
        qid, _, doc, grade_str = parts
        try:
            grade = plain_number(int, grade_str)
        except ValueError:
            raise FormatError(f"{path}:{line_no}: grade {grade_str!r} is not an integer") from None
        if grade < 0:
            raise FormatError(f"{path}:{line_no}: negative grade")
        judged = qrels.setdefault(qid, {})
        if doc in judged:
            warnings.warn(f"{path}:{line_no}: duplicate qrel ({qid}, {doc}); last wins")
        judged[doc] = grade
    return qrels


def read_run(path) -> dict[str, dict[str, float]]:
    """TREC run file as ``{qid: {doc: score}}``, each query's hits in file (rank) order.

    Within a query, ranks must increase and scores must not; scores are finite.
    """
    runs: dict[str, dict[str, float]] = {}
    last_rank: dict[str, int] = {}
    last_score: dict[str, float] = {}
    for line_no, line in _lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(f"{path}:{line_no}: expected 'qid Q0 docid rank score tag'")
        qid, _, doc, rank_str, score_str, _tag = parts
        try:
            rank = plain_number(int, rank_str)
            score = plain_number(float, score_str)
        except ValueError:
            raise FormatError(f"{path}:{line_no}: bad rank or score") from None
        if not math.isfinite(score):
            raise FormatError(f"{path}:{line_no}: score {score_str!r} is not finite")
        if rank <= last_rank.get(qid, 0):
            raise FormatError(f"{path}:{line_no}: nonmonotonic rank for {qid!r}")
        if score > last_score.get(qid, math.inf):
            raise FormatError(
                f"{path}:{line_no}: score {score_str!r} is above the previous hit's score for {qid!r}"
            )
        last_rank[qid] = rank
        last_score[qid] = score
        scores = runs.setdefault(qid, {})
        if doc in scores:
            raise FormatError(f"{path}:{line_no}: duplicate doc {doc!r} for {qid!r}")
        scores[doc] = score
    return runs


def is_run_field(s: str) -> bool:
    """True when *s* reads back as one field of a run line, which :func:`read_run` splits on whitespace."""
    return s.split() == [s]


def _run_field(path, what: str, s: str) -> str:
    if not is_run_field(s):
        raise FormatError(f"{path}: {what} {s!r} is empty or holds whitespace, which a run file cannot store")
    return s


def write_search_results(path, results: Iterable[tuple[str, list]], tag: str = DEFAULT_RUN_TAG) -> None:
    """Emit (qid, ranked hits) pairs as a run, preserving the given ranking.

    Every qid, doc name and the tag must pass :func:`is_run_field`; only the
    names written are checked.
    """
    _run_field(path, "tag", tag)

    def lines():
        for qid, hits in results:
            _run_field(path, "qid", qid)
            for rank, (doc, score) in enumerate(hits, start=1):
                yield f"{qid} Q0 {_run_field(path, 'doc name', doc)} {rank} {score:.6f} {tag}\n"

    _write((path, lines()))


def read_logits(path, vocab: Vocabulary) -> LogitMatrix:
    """Tab-separated grid: header row of term strings, then one row per position."""
    lines = list(_lines(path))
    if len(lines) < 2:
        raise FormatError(f"{path}: need a header row and at least one position row")
    (header_no, header), *body = lines
    terms = header.split("\t")
    if any(not t for t in terms):
        raise FormatError(f"{path}:{header_no}: empty term in header")
    if len(set(terms)) != len(terms):
        raise FormatError(f"{path}:{header_no}: duplicate terms in header")
    rows = []
    for line_no, line in body:
        cells = line.split("\t")
        if len(cells) != len(terms):
            raise FormatError(f"{path}:{line_no}: expected {len(terms)} columns, got {len(cells)}")
        try:
            row = [plain_number(float, c) for c in cells]
        except ValueError:
            raise FormatError(f"{path}:{line_no}: non-numeric cell") from None
        if not all(math.isfinite(v) for v in row):
            raise FormatError(f"{path}:{line_no}: non-finite cell")
        rows.append(row)
    try:
        return LogitMatrix.from_terms(np.asarray(rows, dtype=np.float64), terms, vocab)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_stopwords(path) -> set[str]:
    """One stopword per line, read by :func:`~setvec.lexical.tokenize` as document text is,
    so ``The`` drops ``the``; a line that is not exactly one token is a data error."""
    words = set()
    for line_no, line in _lines(path):
        tokens = tokenize(line)
        if len(tokens) != 1:
            raise FormatError(f"{path}:{line_no}: stopword {line.strip()!r} is not one token; it reads as {tokens}")
        words.add(tokens[0])
    return words


def read_pairs(path) -> list[PairedQueries]:
    """Pairs JSONL for pairwise accuracy, at least one pair; every field is a string."""
    pairs = []
    for line_no, record in _jsonl_records(path):
        for name in PAIR_FIELDS:
            if not isinstance(record.get(name), str):
                raise FormatError(f"{path}:{line_no}: missing or non-string field {name!r}")
        pairs.append(PairedQueries(*(record[name] for name in PAIR_FIELDS)))
    if not pairs:
        raise FormatError(f"{path}: no pairs; pairwise accuracy needs at least one")
    return pairs


def read_per_query(path) -> dict[str, float]:
    """Per-query TSV of ``qid<TAB>value`` or ``qid<TAB>metric<TAB>value`` rows; a repeated
    qid keeps its last value, but its three-column rows must all name one metric."""
    values: dict[str, float] = {}
    metrics: dict[str, str] = {}
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if not 2 <= len(parts) <= 3:
            raise FormatError(f"{path}:{line_no}: expected qid<TAB>value or qid<TAB>metric<TAB>value")
        try:
            value = plain_number(float, parts[-1])
        except ValueError:
            raise FormatError(f"{path}:{line_no}: bad metric value") from None
        if not math.isfinite(value):
            raise FormatError(f"{path}:{line_no}: metric value {parts[-1]!r} is not finite")
        if len(parts) == 3 and metrics.setdefault(parts[0], parts[1]) != parts[1]:
            raise FormatError(
                f"{path}:{line_no}: {parts[0]!r} has values for {metrics[parts[0]]!r} and {parts[1]!r}; "
                "pass a one-metric file, for example from `eval --metrics ndcg@10`"
            )
        values[parts[0]] = value
    return values


def write_eval(out, report, per_query_path, per_query: Mapping[str, Mapping[str, float]]) -> None:
    """``eval``'s outputs, each skipped when its path is None: the JSON *report* at *out*
    (sorted keys) and ``qid<TAB>metric<TAB>value`` rows, one per query and metric in the
    given order, at *per_query_path*.  If either cannot be written, neither is left."""
    rows = (f"{qid}\t{label}\t{value:.6f}\n" for qid, row in per_query.items() for label, value in row.items())
    outputs = [(out, _json_lines(report, sort_keys=True)), (per_query_path, rows)]
    _write(*[(path, lines) for path, lines in outputs if path])


def _json_lines(payload, sort_keys: bool) -> list[str]:
    return [json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"]


def write_json(path, payload) -> None:
    """A JSON report: two-space indent and a final newline."""
    _write((path, _json_lines(payload, sort_keys=False)))
