"""Batch command-line interface.

Every subcommand reads and writes the documented file formats, so stages can
be chained through files and tested in isolation.  Outputs are deterministic:
the same inputs and flags produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Set SETVEC_LOG=debug|info|warning|error to control log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import warnings
from collections import Counter

from . import formats
from .activations import AGGREGATIONS, NEG_FORMULAS, ActivationConfig, activate
from .compose import DEFAULT_LAMBDA, OP_DIFFERENCE, CompositionalQuery, CompositionParams, compose
from .cpt import DEFAULT_M, PseudoTermVector
from .errors import NonFiniteError, SetvecError, UndefinedMetricError, ZeroNormError
from .evaluation import DEFAULT_BINS, interference_bins, ndcg_at_k, pairwise_accuracy, recall_at_k
from .fusion import FUSE_OPS, fuse, min_max_scale
from .index import build, load, save, search, search_cpt
from .lexical import DEFAULT_B, DEFAULT_K1, encode_bm25, encode_tf, tokenize
from .sparse import VectorBatch, Vocabulary, _positive_int

log = logging.getLogger("setvec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

LOG_LEVELS = ("debug", "info", "warning", "error")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _run_tag(value: str) -> str:
    if not formats.is_run_field(value):
        raise argparse.ArgumentTypeError(f"{value!r} is empty or holds whitespace")
    return value


def _count(value: str) -> int:
    """A count flag, as :func:`sparse._positive_int` defines a count, written as a plain number."""
    try:
        return _positive_int(formats.plain_number(int, value), "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _real(value: str) -> float:
    """A float flag, written as a plain number as in the files."""
    try:
        return formats.plain_number(float, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setvec", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode text documents or logit grids into sparse vectors")
    p.add_argument("--docs", help="text JSONL: {\"id\", \"text\"} (for --tf/--bm25)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tf", action="store_true", help="raw term-frequency weights")
    mode.add_argument("--bm25", action="store_true", help="Okapi BM25 document impacts")
    mode.add_argument(
        "--logits",
        nargs="+",
        metavar="GRID",
        help="activate logit grid TSV files (one vector per file, id = file stem)",
    )
    p.add_argument("--out", required=True, help="output vector JSONL")
    p.add_argument("--k1", type=_real, default=DEFAULT_K1, help="BM25 k1 (default: %(default)s)")
    p.add_argument("--b", type=_real, default=DEFAULT_B, help="BM25 b (default: %(default)s)")
    p.add_argument("--stopwords", help="optional newline-separated stopword list")
    p.add_argument(
        "--epsilon", type=_real, default=ActivationConfig.epsilon,
        help="dead-zone half-width for signed activations (default: %(default)s)",
    )
    p.add_argument(
        "--neg-formula", choices=NEG_FORMULAS, default=ActivationConfig.neg_formula,
        help="negative-half spelling for signed activations (default: %(default)s)",
    )
    p.add_argument(
        "--aggregation", choices=AGGREGATIONS, default=ActivationConfig.aggregation,
        help="pooling for --logits: splade_max (positive only), absmax, or sum "
        "(default: %(default)s)",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("index", help="build an inverted index from a vector file")
    p.add_argument("--vectors", required=True, help="document vector JSONL")
    p.add_argument("--out", required=True, help="output index file")
    p.add_argument("--threads", type=_count, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_index)

    # compose and search read query files with the same overrides and defaults.
    query_flags = _Parser(add_help=False)
    query_flags.add_argument("--method", help="override the method of every non-atomic query record")
    query_flags.add_argument("--lambda", dest="lambda_", metavar="LAMBDA", type=_real, default=DEFAULT_LAMBDA,
                             help="nrf lambda when a record omits it (default: %(default)s)")
    query_flags.add_argument("--m", type=_count, default=DEFAULT_M,
                             help="cpt top-m when a record omits it (default: %(default)s)")

    p = sub.add_parser("compose", parents=[query_flags], help="turn compositional query records into vectors")
    p.add_argument("--queries", required=True, help="query JSONL or vector JSONL")
    p.add_argument("--vectors", help="atomic vector JSONL for a_ref/b_ref lookups")
    p.add_argument("--out", required=True, help="output vector JSONL (cpt rows hold 'pairs' with term∩term keys)")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("search", parents=[query_flags], help="retrieve top-k documents for queries")
    p.add_argument("--index", required=True, help="index file from 'setvec index'")
    p.add_argument("--queries", required=True, help="query JSONL or vector JSONL")
    p.add_argument("--vectors", help="atomic vectors for query records with refs")
    p.add_argument("--k", type=_count, default=10, help="results per query (default: %(default)s)")
    p.add_argument(
        "--candidate-pool",
        type=_count,
        default=1000,
        help="stage-1 pool size for cpt queries (default: %(default)s)",
    )
    p.add_argument(
        "--tag", type=_run_tag, default=formats.DEFAULT_RUN_TAG,
        help="run tag, one field without whitespace (default: %(default)s)",
    )
    p.add_argument("--out", required=True, help="output TREC run file")
    p.add_argument("--threads", type=_count, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fuse", help="fuse two per-atomic-query runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--op", required=True, choices=FUSE_OPS)
    p.add_argument("--scaled", action="store_true", help="min-max scale each run to [0,1] first")
    p.add_argument("--tag", type=_run_tag, default=formats.DEFAULT_RUN_TAG)
    p.add_argument("--out", required=True, help="output TREC run file")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument(
        "--metrics",
        default="ndcg@10,recall@100",
        help="comma list of ndcg@K / recall@K (default: %(default)s)",
    )
    p.add_argument("--out", help="write a JSON report here")
    p.add_argument("--per-query", help="write per-query TSV (qid<TAB>metric<TAB>value)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pairwise", help="counterfactual pairwise accuracy from a score file")
    p.add_argument("--pairs", required=True, help="JSONL: {qid_a, qid_b, doc_a, doc_b}")
    p.add_argument("--scores", required=True, help="TREC run holding all four scores per pair")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser(
        "analyze-interference",
        help="bin difference queries by cosine(a, b) and average a per-query metric",
    )
    p.add_argument("--queries", required=True, help="query JSONL or vector JSONL")
    p.add_argument("--vectors", help="atomic vectors for refs")
    p.add_argument("--per-query-metrics", required=True, help="TSV: qid<TAB>value")
    p.add_argument("--bins", type=_count, default=DEFAULT_BINS, help="number of bins (default: %(default)s)")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_analyze_interference)

    return parser


def cmd_encode(args) -> int:
    vocab = Vocabulary()
    if args.logits:
        try:
            cfg = ActivationConfig(
                epsilon=args.epsilon,
                neg_formula=args.neg_formula,
                aggregation=args.aggregation,
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        rec_ids = [os.path.splitext(os.path.basename(grid_path))[0] for grid_path in args.logits]
        for rec_id, count in Counter(rec_ids).items():
            if count > 1:
                raise _UsageError(f"--logits files share the stem {rec_id!r}, which names one record")
        for rec_id, grid_path in zip(rec_ids, args.logits):
            if not formats.is_run_field(rec_id):
                raise _UsageError(f"--logits file {grid_path!r} has the stem {rec_id!r}, which no run file can store")
        vectors = (activate(formats.read_logits(path, vocab), cfg) for path in args.logits)
        batch = VectorBatch.stack(zip(rec_ids, vectors), vocab)
    elif not args.docs:
        raise _UsageError("--tf/--bm25 need --docs")
    else:
        stop = formats.read_stopwords(args.stopwords) if args.stopwords else None

        def doc_tokens():
            for rec_id, text in formats.read_texts(args.docs):
                tokens = tokenize(text)
                if stop:
                    tokens = [t for t in tokens if t not in stop]
                yield rec_id, tokens

        if args.tf:
            batch = encode_tf(doc_tokens(), vocab)
        else:
            try:
                batch = encode_bm25(doc_tokens(), vocab, k1=args.k1, b=args.b)
            except ValueError as exc:
                raise _UsageError(str(exc)) from exc
    formats.write_vectors(args.out, batch)
    log.info("encoded %d docs, %d terms, %d postings", len(batch), len(vocab), batch.ids.size)
    return EXIT_OK


def cmd_index(args) -> int:
    idx = build(formats.read_vectors(args.vectors, Vocabulary()))
    save(idx, args.out)
    log.info("indexed %d docs, %d posted terms", idx.doc_count, idx.term_count)
    return EXIT_OK


def _query_params(args) -> CompositionParams:
    """--lambda and --m, the settings a record's params fall back to; a bad lambda is a usage error."""
    try:
        return CompositionParams(lambda_=args.lambda_, m=args.m)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_queries(args, vocab, *settings) -> list[CompositionalQuery]:
    """The query file; *settings* are read_queries' method override and params."""
    vectors = dict(formats.read_vectors(args.vectors, vocab)) if args.vectors else {}
    return formats.read_queries(args.queries, vectors, vocab, *settings)


def _naming_errors(path, fn):
    """Wrap ``fn(query)`` so that a data error it raises names the query file and qid."""

    def run(q: CompositionalQuery):
        try:
            return fn(q)
        except (SetvecError, ValueError) as exc:
            raise SetvecError(f"{path}: query {q.qid!r}: {exc}") from exc

    return run


def cmd_compose(args) -> int:
    queries = _load_queries(args, Vocabulary(), args.method, _query_params(args))
    formats.write_vectors(args.out, map(_naming_errors(args.queries, lambda q: (q.qid, compose(q))), queries))
    return EXIT_OK


def cmd_search(args) -> int:
    params = _query_params(args)
    idx = load(args.index)
    queries = _load_queries(args, idx.vocab, args.method, params)

    def run_one(q: CompositionalQuery):
        rep = compose(q)
        if isinstance(rep, PseudoTermVector):
            return q.qid, search_cpt(idx, rep, q.a, q.b, args.k, args.candidate_pool)
        return q.qid, search(idx, rep, args.k)

    # Hits are written as they are produced.
    formats.write_search_results(args.out, map(_naming_errors(args.queries, run_one), queries), tag=args.tag)
    return EXIT_OK


def cmd_fuse(args) -> int:
    runs_a = formats.read_run(args.run_a)
    runs_b = formats.read_run(args.run_b)
    only_a = runs_a.keys() - runs_b.keys()
    only_b = runs_b.keys() - runs_a.keys()
    for qid in sorted(only_a | only_b):
        log.warning("qid %s present in only one run; skipped", qid)

    def side(runs, name, qid):
        return min_max_scale(runs[qid], f"run {name} ({qid})") if args.scaled else runs[qid]

    def fused():
        for qid in runs_a:  # run A's qid order
            if qid in runs_b:
                try:
                    yield qid, fuse(side(runs_a, "A", qid), side(runs_b, "B", qid), args.op)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"query {qid!r}: {exc}") from exc

    # Written as they are fused: a query that fails removes the --out file, as search's does.
    formats.write_search_results(args.out, fused(), tag=args.tag)
    return EXIT_OK


def _parse_metrics(arg: str) -> list[tuple[str, int]]:
    metrics = []
    for item in arg.split(","):
        item = item.strip().lower()
        if not item:
            continue
        name, _, k_str = item.partition("@")
        try:
            k = _count(k_str)
        except argparse.ArgumentTypeError:
            k = None
        if name not in ("ndcg", "recall") or k is None:
            raise _UsageError(f"bad metric {item!r}; expected ndcg@K or recall@K")
        if (name, k) in metrics:
            raise _UsageError(f"metric {item!r} is requested twice")
        metrics.append((name, k))
    if not metrics:
        raise _UsageError("no metrics requested")
    return metrics


def cmd_eval(args) -> int:
    metrics = _parse_metrics(args.metrics)
    runs = formats.read_run(args.run)
    qrels = formats.read_qrels(args.qrels)
    per_query: dict[str, dict[str, float]] = {}
    skipped = []
    for qid, scores in runs.items():
        ranking = list(scores)
        row = {}
        try:
            for name, k in metrics:
                fn = ndcg_at_k if name == "ndcg" else recall_at_k
                row[f"{name}@{k}"] = fn(ranking, qrels, qid, k)
        except UndefinedMetricError:
            skipped.append(qid)
            continue
        per_query[qid] = row
    for qid in skipped:
        log.warning("qid %s has no positive qrels; excluded from averages", qid)
    if not per_query:
        raise UndefinedMetricError("no evaluable queries (no positive qrels matched the run)")
    labels = [f"{name}@{k}" for name, k in metrics]
    means = {
        label: sum(row[label] for row in per_query.values()) / len(per_query)
        for label in labels
    }
    width = max(len(label) for label in labels)
    print(f"queries evaluated: {len(per_query)} (skipped: {len(skipped)})")
    for label in labels:
        print(f"{label:<{width}}  {means[label]:.4f}")
    report = {"query_count": len(per_query), "skipped_qids": skipped, "metrics": means, "per_query": per_query}
    formats.write_eval(args.out, report, args.per_query, per_query)
    return EXIT_OK


def cmd_pairwise(args) -> int:
    pairs = formats.read_pairs(args.pairs)
    runs = formats.read_run(args.scores)
    try:
        accuracy = pairwise_accuracy(pairs, runs)
    except UndefinedMetricError as exc:  # a missing score names the scores file
        raise UndefinedMetricError(f"{exc} in {args.scores}") from exc
    print(f"pairs: {len(pairs)}")
    print(f"pairwise accuracy: {accuracy:.4f}")
    if args.out:
        formats.write_json(args.out, {"pairs": len(pairs), "pairwise_accuracy": accuracy})
    return EXIT_OK


def cmd_analyze_interference(args) -> int:
    queries = _load_queries(args, Vocabulary())
    diffs = [q for q in queries if q.operator == OP_DIFFERENCE]
    dropped = len(queries) - len(diffs)
    if dropped:
        log.warning("ignoring %d non-difference queries", dropped)
    metric_by_qid = formats.read_per_query(args.per_query_metrics)
    try:
        bins = interference_bins(diffs, metric_by_qid, n_bins=args.bins)
    except ZeroNormError as exc:  # a zero-norm side is a data error in the queries file
        raise ZeroNormError(f"{args.queries}: {exc}") from exc
    print(f"{'similarity range':<24} {'mean metric':>12} {'queries':>8}")
    for b in bins:
        print(f"[{b.low:.4f}, {b.high:.4f}]{'':<6} {b.mean_metric:>12.4f} {b.count:>8}")
    if args.out:
        formats.write_json(args.out, [dataclasses.asdict(b) for b in bins])
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        level = os.environ.get("SETVEC_LOG") or "warning"
        if level.lower() not in LOG_LEVELS:
            raise _UsageError(f"SETVEC_LOG={level!r} is not one of {', '.join(LOG_LEVELS)}")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        args = parser.parse_args(argv)
        # The library's data warnings reach CLI users as log lines, like every
        # other diagnostic, not as Python warnings with a source line.
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: log.warning("%s", message)
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SetvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort bucket for exit code 3
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
