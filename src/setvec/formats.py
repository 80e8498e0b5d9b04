"""File formats: vector/query/text JSONL, TREC qrels and runs, logit grids.

All files are UTF-8.  Term strings are treated as opaque here; any
normalization belongs to the lexical layer.  Readers stream line by line and
report the offending line number on malformed input.

Vector JSONL     {"id": "...", "vector": {"term": weight, ...}}
Text JSONL       {"id": "...", "text": "..."}
Query JSONL      {"qid": "...", "operator": "...", "method": "...",
                  "a_ref": "..."| "a": {...}, "b_ref"|"b": ...,
                  "params": {"lambda": 0.5, "m": 5}}
Qrels            qid 0 docid grade
Run              qid Q0 docid rank score tag      (rank 1-based, 6-decimal scores)
Logit grid       TSV; first row = term strings, later rows = positions.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
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
from .evaluation import Qrels
from .fusion import ScoredRun
from .sparse import SparseVector, Vocabulary

DEFAULT_RUN_TAG = "setvec"


def _jsonl_records(path) -> Iterator[tuple[int, dict]]:
    # Decoded line by line, so that bad UTF-8 is reported with its line.
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise FormatError(f"{path}:{line_no}: expected a JSON object")
            yield line_no, record


def _vector_from_json(mapping, vocab: Vocabulary, where: str) -> SparseVector:
    if not isinstance(mapping, dict):
        raise FormatError(f"{where}: 'vector' must be an object")
    pairs = []
    for term, weight in mapping.items():
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise FormatError(f"{where}: weight for {term!r} is not a number")
        # An integer too large for a float is as unusable as inf.
        if not -sys.float_info.max <= weight <= sys.float_info.max:
            raise FormatError(f"{where}: weight for {term!r} is not finite")
        pairs.append((term, float(weight)))
    return SparseVector.from_pairs(pairs, vocab)


def read_vectors(path, vocab: Vocabulary) -> Iterator[tuple[str, SparseVector]]:
    """Stream (id, vector) records; duplicate ids are rejected."""
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        rec_id = record.get("id")
        if not isinstance(rec_id, str) or not rec_id:
            raise FormatError(f"{where}: missing or invalid 'id'")
        if rec_id in seen:
            raise FormatError(f"{where}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        if "vector" not in record:
            raise FormatError(f"{where}: missing 'vector'")
        yield rec_id, _vector_from_json(record["vector"], vocab, where)


def write_vectors(path, items: Iterable[tuple[str, SparseVector | PseudoTermVector]]) -> None:
    """Inverse of :func:`read_vectors`; weights round-trip exactly.

    Pseudo-term vectors serialize with ``termA∩termB`` keys (debug form; they
    cannot be read back as plain vectors).
    """
    with open(path, "w", encoding="utf-8") as fh:
        for rec_id, vec in items:
            record = {"id": rec_id, "vector": vec.to_dict()}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_texts(path) -> Iterator[tuple[str, str]]:
    """Stream (id, text) records for the lexical encoders."""
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        rec_id = record.get("id")
        text = record.get("text")
        if not isinstance(rec_id, str) or not rec_id:
            raise FormatError(f"{where}: missing or invalid 'id'")
        if rec_id in seen:
            raise FormatError(f"{where}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        if not isinstance(text, str):
            raise FormatError(f"{where}: missing or invalid 'text'")
        yield rec_id, text


def read_queries(
    path,
    vectors: Mapping[str, SparseVector],
    vocab: Vocabulary,
    default_method: str | None = None,
    default_lambda: float | None = None,
    default_m: int | None = None,
) -> list[CompositionalQuery]:
    """Parse query records, resolving a_ref/b_ref against *vectors*.

    *default_method* overrides the per-record method when given; the lambda/m
    defaults apply only where a record's params omit them.
    """
    queries = []
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path):
        where = f"{path}:{line_no}"
        qid = record.get("qid")
        if not isinstance(qid, str) or not qid:
            raise FormatError(f"{where}: missing or invalid 'qid'")
        if qid in seen:
            raise FormatError(f"{where}: duplicate qid {qid!r}")
        seen.add(qid)
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
                if ref not in vectors:
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
        lambda_ = raw_params.get(
            "lambda", default_lambda if default_lambda is not None else DEFAULT_LAMBDA
        )
        m = raw_params.get("m", default_m if default_m is not None else DEFAULT_M)
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
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
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
    """TREC run file grouped by qid; ranks must increase within a query."""
    runs: dict[str, ScoredRun] = {}
    last_rank: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise FormatError(
                    f"{path}:{line_no}: expected 'qid Q0 docid rank score tag'"
                )
            qid, _, doc, rank_str, score_str, _tag = parts
            try:
                rank = int(rank_str)
                score = float(score_str)
            except ValueError:
                raise FormatError(f"{path}:{line_no}: bad rank or score") from None
            if rank <= last_rank.get(qid, 0):
                raise FormatError(f"{path}:{line_no}: nonmonotonic rank for {qid!r}")
            last_rank[qid] = rank
            run = runs.setdefault(qid, ScoredRun(qid=qid))
            if doc in run.scores:
                raise FormatError(f"{path}:{line_no}: duplicate doc {doc!r} for {qid!r}")
            run.scores[doc] = score
    return runs


def write_search_results(path, results: Iterable[tuple[str, list]], tag: str = DEFAULT_RUN_TAG) -> None:
    """Emit (qid, ranked hits) pairs as a run, preserving the given ranking."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, hits in results:
            for rank, (doc, score) in enumerate(hits, start=1):
                fh.write(f"{qid} Q0 {doc} {rank} {score:.6f} {tag}\n")


def read_logits(path, vocab: Vocabulary) -> LogitMatrix:
    """Tab-separated grid: header row of term strings, then one row per position."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if len(lines) < 2:
        raise FormatError(f"{path}: need a header row and at least one position row")
    terms = lines[0].split("\t")
    if any(not t for t in terms):
        raise FormatError(f"{path}:1: empty term in header")
    if len(set(terms)) != len(terms):
        raise FormatError(f"{path}:1: duplicate terms in header")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(terms):
            raise FormatError(
                f"{path}:{line_no}: expected {len(terms)} columns, got {len(cells)}"
            )
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
