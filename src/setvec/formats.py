"""File formats: every text file setvec reads or writes goes through this module.

All text files are UTF-8.  ``_lines`` is the one reader: it decodes each line
on its own, accepts LF and CRLF, skips blank lines and reports a bad line as
``path:N:``.  ``_write`` is the one writer: it streams lines and removes its
output if producing one fails.  Term strings are opaque here.  A JSON string
may not escape a lone UTF-16 surrogate, which no UTF-8 output could hold.

``read_vectors`` reads the whole file into one :class:`VectorBatch`, so its
memory grows with the number of (term, weight) entries; ``write_vectors``
streams a batch out in blocks of rows.

Vector JSONL     {"id": "...", "vector": {"term": weight, ...}}
Text JSONL       {"id": "...", "text": "..."}
Query JSONL      {"qid": "...", "operator": "...", "method": "...",
                  "a_ref": "..."| "a": {...}, "b_ref"|"b": ...,
                  "params": {"lambda": 0.5, "m": 5}}
Qrels            qid 0 docid grade
Run              qid Q0 docid rank score tag      (rank 1-based, 6-decimal scores)
Logit grid       TSV; first row = term strings, later rows = positions.
Pairs JSONL      {"qid_a": "...", "qid_b": "...", "doc_a": "...", "doc_b": "..."}
Per-query TSV    qid<TAB>value (or qid<TAB>metric<TAB>value, as eval writes it)
Stopwords        one word per line
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
import warnings
from array import array
from typing import Iterable, Iterator, Mapping

import numpy as np

from .activations import LogitMatrix
from .compose import (
    DEFAULT_LAMBDA,
    DEFAULT_M,
    OP_ATOMIC,
    CompositionalQuery,
    CompositionParams,
)
from .cpt import PseudoTermVector
from .errors import FormatError
from .evaluation import PairedQueries, Qrels
from .fusion import ScoredRun
from .sparse import SparseVector, VectorBatch, Vocabulary

DEFAULT_RUN_TAG = "setvec"
PAIR_FIELDS = ("qid_a", "qid_b", "doc_a", "doc_b")
WRITE_BLOCK_ROWS = 256  # vector records joined into one string per write


def _lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line, without its line end."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})") from None
            if line.strip():
                yield line_no, line


def _write(path, lines: Iterable[str]) -> None:
    """Stream *lines* to *path* as UTF-8; if producing or writing one fails, remove the file."""
    regular = False  # only a regular file is removed: never unlink /dev/null or a pipe
    try:
        with open(path, "w", encoding="utf-8") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.writelines(lines)
    except BaseException:
        if regular:
            os.remove(path)
        raise


def _jsonl_records(path) -> Iterator[tuple[int, dict]]:
    for line_no, line in _lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise FormatError(f"{path}:{line_no}: invalid JSON (nested too deeply)") from None
        if not isinstance(record, dict):
            raise FormatError(f"{path}:{line_no}: expected a JSON object")
        # json.loads accepts an escaped lone surrogate, which no UTF-8 output can hold.
        if ("\\ud" in line or "\\uD" in line) and _has_lone_surrogate(record):
            raise FormatError(f"{path}:{line_no}: a string escapes a lone UTF-16 surrogate")
        yield line_no, record


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


def _check_pairs(mapping: dict, where: str) -> None:
    """Raise the located error for the first unusable ``(term, weight)`` pair, if any."""
    for term, weight in mapping.items():
        if not term:
            raise FormatError(f"{where}: empty term")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise FormatError(f"{where}: weight for {term!r} is not a number")
        # An integer too large for a float is as unusable as inf.
        if not -sys.float_info.max <= weight <= sys.float_info.max:
            raise FormatError(f"{where}: weight for {term!r} is not finite")


def _screened(mapping, where: str) -> dict:
    """*mapping*, once it is known to be an object of usable ``(term, weight)`` pairs.

    Bulk screens pass a mapping of float weights with a finite sum (NaN and
    inf poison a sum) and no empty term.  Only when one trips does the
    per-pair check run: it raises the located error, or passes integer
    weights and finite weights whose sum overflows.
    """
    if not isinstance(mapping, dict):
        raise FormatError(f"{where}: 'vector' must be an object")
    values = mapping.values()
    if "" in mapping or set(map(type, values)) - {float} or not math.isfinite(sum(values, 0.0)):
        _check_pairs(mapping, where)
    return mapping


def _vector_from_json(mapping, vocab: Vocabulary, where: str) -> SparseVector:
    mapping = _screened(mapping, where)
    return SparseVector(vocab.add_all(mapping), list(mapping.values()), vocab)


def read_vectors(path, vocab: Vocabulary) -> VectorBatch:
    """Read every (id, vector) record into one batch; duplicate ids are rejected."""
    seen: set[str] = set()
    names: list[str] = []
    term_ids, weights, lengths = array("I"), array("d"), array("I")
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        names.append(_unique_id(record, "id", seen, where))
        if "vector" not in record:
            raise FormatError(f"{where}: missing 'vector'")
        mapping = _screened(record["vector"], where)
        term_ids.extend(vocab.add_all(mapping))
        weights.extend(mapping.values())
        lengths.append(len(mapping))
    return VectorBatch(
        names, lengths, np.frombuffer(term_ids, dtype=np.uint32), np.frombuffer(weights), vocab
    )


def _json_key(term: str) -> str:
    return json.dumps(term, ensure_ascii=False) + ": "


def _json_value(weight: float) -> str:
    return repr(weight) + ", "


class _WeightTexts(dict):
    """``weight -> repr(weight) + ", "``, computed once per distinct weight."""

    def __missing__(self, weight: float) -> str:
        text = _json_value(weight)
        if weight:  # 0.0 and -0.0 share a key but not a repr
            self[weight] = text
        return text


def _records(names: list[str], bounds: list[int], keys: Iterable[str], values: Iterable[str]) -> str:
    """Vector records as ``json.dumps(record, ensure_ascii=False)`` writes them.

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
        head = '{"id": ' + json.dumps(name, ensure_ascii=False) + ', "vector": {'
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
    """The records of *batch* in blocks of rows; each term is escaped once."""
    keys = [_json_key(term) for term in batch.vocab.terms]
    values = _WeightTexts()
    bounds = batch.offsets.tolist()
    for lo in range(0, len(batch), WRITE_BLOCK_ROWS):
        hi = min(lo + WRITE_BLOCK_ROWS, len(batch))
        rows = slice(bounds[lo], bounds[hi])
        yield _records(
            batch.names[lo:hi],
            bounds[lo : hi + 1],
            map(keys.__getitem__, batch.ids[rows].tolist()),
            map(values.__getitem__, batch.weights[rows].tolist()),
        )


def _item_lines(items: Iterable[tuple[str, SparseVector | PseudoTermVector]]) -> Iterator[str]:
    for rec_id, vec in items:
        row = vec.to_dict()
        yield _records([rec_id], [0, len(row)], map(_json_key, row), map(_json_value, row.values()))


def write_vectors(
    path, items: VectorBatch | Iterable[tuple[str, SparseVector | PseudoTermVector]]
) -> None:
    """Inverse of :func:`read_vectors`; weights round-trip exactly.

    Pseudo-term vectors serialize with ``termA∩termB`` keys (debug form; they
    cannot be read back as plain vectors).
    """
    _write(path, _batch_lines(items) if isinstance(items, VectorBatch) else _item_lines(items))


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


def is_query_file(path) -> bool:
    """True when the first record of a JSONL file is a query record (has 'operator')."""
    for _, record in _jsonl_records(path):
        return "operator" in record
    return False


def read_queries(
    path,
    vectors: Mapping[str, SparseVector],
    vocab: Vocabulary,
    default_method: str | None = None,
    default_lambda: float = DEFAULT_LAMBDA,
    default_m: int = DEFAULT_M,
) -> list[CompositionalQuery]:
    """Parse query records, resolving a_ref/b_ref against *vectors*.

    *default_method* overrides the per-record method when given; the lambda/m
    defaults apply only where a record's params omit them.
    """
    queries = []
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        qid = _unique_id(record, "qid", seen, where)
        operator = record.get("operator")
        if not isinstance(operator, str):
            raise FormatError(f"{where}: missing 'operator'")
        if operator == OP_ATOMIC:
            method = "atomic"  # a method override never applies to pass-through queries
        else:
            method = default_method or record.get("method")
        if not isinstance(method, str):
            raise FormatError(f"{where}: no method in record and no --method override")

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
        lambda_ = raw_params.get("lambda", default_lambda)
        m = raw_params.get("m", default_m)
        try:
            query = CompositionalQuery(
                qid=qid,
                operator=operator,
                method=method,
                a=a,
                b=b,
                params=CompositionParams(lambda_=lambda_, m=m),
            )
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        queries.append(query)
    return queries


def read_qrels(path) -> Qrels:
    """TREC qrels; duplicate (qid, doc) keeps the last grade, with a warning."""
    qrels = Qrels()
    seen: set[tuple[str, str]] = set()
    for line_no, line in _lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path}:{line_no}: expected 'qid 0 docid grade'")
        qid, _, doc, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise FormatError(f"{path}:{line_no}: grade {grade_str!r} is not an integer") from None
        if grade < 0:
            raise FormatError(f"{path}:{line_no}: negative grade")
        if (qid, doc) in seen:
            warnings.warn(f"{path}:{line_no}: duplicate qrel ({qid}, {doc}); last wins")
        seen.add((qid, doc))
        qrels.set(qid, doc, grade)
    return qrels


def read_run(path) -> dict[str, ScoredRun]:
    """TREC run file grouped by qid; ranks must increase within a query, scores be finite."""
    runs: dict[str, ScoredRun] = {}
    last_rank: dict[str, int] = {}
    for line_no, line in _lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(f"{path}:{line_no}: expected 'qid Q0 docid rank score tag'")
        qid, _, doc, rank_str, score_str, _tag = parts
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError:
            raise FormatError(f"{path}:{line_no}: bad rank or score") from None
        if not math.isfinite(score):
            raise FormatError(f"{path}:{line_no}: score {score_str!r} is not finite")
        if rank <= last_rank.get(qid, 0):
            raise FormatError(f"{path}:{line_no}: nonmonotonic rank for {qid!r}")
        last_rank[qid] = rank
        run = runs.setdefault(qid, ScoredRun(qid=qid))
        if doc in run.scores:
            raise FormatError(f"{path}:{line_no}: duplicate doc {doc!r} for {qid!r}")
        run.scores[doc] = score
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

    _write(path, lines())


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
            row = [float(c) for c in cells]
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
    """One stopword per line; surrounding whitespace is ignored."""
    return {line.strip() for _, line in _lines(path)}


def read_pairs(path) -> list[PairedQueries]:
    """Pairs JSONL for pairwise accuracy; every field is a string."""
    pairs = []
    for line_no, record in _jsonl_records(path):
        for name in PAIR_FIELDS:
            if not isinstance(record.get(name), str):
                raise FormatError(f"{path}:{line_no}: missing or non-string field {name!r}")
        pairs.append(PairedQueries(*(record[name] for name in PAIR_FIELDS)))
    return pairs


def read_per_query(path) -> dict[str, float]:
    """Per-query TSV: qid in the first column, value in the last; a repeated qid keeps its last value."""
    values: dict[str, float] = {}
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) < 2:
            raise FormatError(f"{path}:{line_no}: expected qid<TAB>value")
        try:
            value = float(parts[-1])
        except ValueError:
            raise FormatError(f"{path}:{line_no}: bad metric value") from None
        if not math.isfinite(value):
            raise FormatError(f"{path}:{line_no}: metric value {parts[-1]!r} is not finite")
        values[parts[0]] = value
    return values


def write_per_query(path, per_query: Mapping[str, Mapping[str, float]]) -> None:
    """``qid<TAB>metric<TAB>value`` rows, one per query and metric, in the given order."""
    lines = (
        f"{qid}\t{label}\t{value:.6f}\n"
        for qid, row in per_query.items()
        for label, value in row.items()
    )
    _write(path, lines)


def write_json(path, payload, sort_keys: bool = False) -> None:
    """A JSON report: two-space indent and a final newline."""
    _write(path, [json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"])
