"""Benchmark of the setvec CLI chain (encode -> index -> search -> eval).

Run from the repository root:

    python3 perfbench/run.py --workload query_signed --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

Each run generates its inputs from --seed, runs the CLI stages as child
processes, checks their outputs against independent numpy oracles and prints
a report.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from a traced run.
The full report, and the span file of a traced run, go to .perfbench-out/.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the machine has two cores and the search
# stage's own threads are the only parallelism the workloads ask for.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "query_signed", "query_cpt")

K = 100
CANDIDATE_POOL = 1000
SEARCH_THREADS = {"query_signed": 1, "query_cpt": 2}
MIN_REPS = {"ingest": 3, "query_signed": 2, "query_cpt": 2}  # chain repetitions, at least
SETUPS = {"ingest": 3, "query_signed": 1, "query_cpt": 1}  # set-up runs before and after the chain
WARMUP_QUERIES = 10
LOOP_QUERIES = 100  # enough for a p90 with ten samples beyond it
ORACLE_SAMPLE = {"ingest": 200, "query_signed": 30, "query_cpt": 30}
PROBE_SAMPLE = 100  # queries timed for the CPT stage-1 probe
CLI_TIMEOUT_S = 150
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

# BENCHMARK.json names the metrics of the result line: the ones every
# workload measures.  Workload-specific metrics go to the report only.
SPEC = os.path.join(ROOT, "BENCHMARK.json")
UNITS = {
    "setup_s": "s", "pipeline_s": "s", "encode_s": "s", "index_s": "s", "search_s": "s",
    "queries_per_s": "1/s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "peak_rss_mb": "MB", "index_bytes_per_posting": "B", "ndcg_10": "ratio",
}


# ---- child processes ------------------------------------------------------------

@dataclass
class Proc:
    stage: str
    exit: int
    wall_s: float
    rss_mb: float
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("SETVEC_LOG", None)
    return env


class Launcher:
    """Runs children through launcher.py; see there for why."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, stage: str, argv: list[str], work: str) -> Proc:
        err_path = os.path.join(work, f"{stage}.stderr")
        request = {"argv": argv, "env": _child_env(), "cwd": ROOT, "stderr": err_path, "timeout": CLI_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()[-2000:]
        return Proc(stage, reply["exit"], reply["wall_s"], reply["rss_mb"], stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CLI_TIMEOUT_S)
        self.proc.stdout.close()


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", "import sys; from setvec.cli import main; sys.exit(main(sys.argv[1:]))", *args]


def traced_argv(args: list[str], out: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "tracing.py"), "--out", out, "--", *args]


# ---- bookkeeping --------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    work: str
    launcher: Launcher
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    procs: list[Proc] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    sha256: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(what)

    def cli(self, stage: str, args: list[str], traced_out: str | None = None) -> Proc:
        argv = traced_argv(args, traced_out) if traced_out else cli_argv(args)
        proc = self.launcher.run(stage, argv, self.work)
        self.attempted += 1
        self.procs.append(proc)
        if proc.exit != 0:
            self.fail(f"{stage}: exit {proc.exit}: {proc.stderr.strip()[-300:]}")
        return proc

    def hash(self, label: str, path: str) -> str:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        self.sha256[label] = h.hexdigest()
        return self.sha256[label]


def median(values) -> float:
    return float(statistics.median(values))


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(latencies_ms)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best, float(np.percentile(latencies_ms, best))


def run_chain(run: Run, steps) -> float:
    """Run CLI *steps* once; their summed wall time."""
    return sum(run.cli(stage, args).wall_s for stage, args in steps)


def repeat_chain(run: Run, seconds: float, setup, steps, setups: int, outputs: dict[str, str]) -> dict:
    """Time the *setup* command *setups* times, the chain of CLI *steps*
    MIN_REPS times and again while another repetition still fits in
    *seconds*, then *setup* *setups* more times.  Machine speed drifts over
    seconds, so set-up samples bracket the chain.  Returns the wall times of
    every stage, or {} when a command failed."""
    times: dict[str, list[float]] = {}

    def step(stage, args) -> bool:
        proc = run.cli(stage, args)
        times.setdefault(stage, []).append(proc.wall_s)
        return proc.exit == 0

    if not all(step("setup", setup) for _ in range(setups)):
        return {}
    reps, digests = 0, set()
    t_start = time.perf_counter()
    while True:
        if not all(step(stage, args) for stage, args in steps):
            return {}
        reps += 1
        digests.add(tuple(run.hash(label, path) for label, path in outputs.items()))
        elapsed = time.perf_counter() - t_start
        if reps >= MIN_REPS[run.workload] and elapsed + elapsed / reps > seconds:
            break
    if not all(step("setup", setup) for _ in range(setups)):
        return {}
    run.info["chain_reps"] = reps
    run.info["raw_bytes_repeat"] = len(digests) == 1 if reps > 1 else None
    return times


# ---- ingest -----------------------------------------------------------------------------

def ingest(run: Run, seconds: float, scale: float) -> None:
    from setvec.index import load

    work = run.work
    corpus = workloads.text_corpus(run.seed, scale)
    texts = os.path.join(work, "texts.jsonl")
    workloads.write_texts(corpus, texts)
    run.info["shape"] = workloads.text_shape(corpus)
    run.hash("texts.jsonl", texts)
    empty = os.path.join(work, "empty.jsonl")
    open(empty, "w").close()
    vectors = os.path.join(work, "vectors.jsonl")
    index = os.path.join(work, "index.svix")

    def encode_args(docs, out):
        return ["encode", "--bm25", "--docs", docs, "--out", out]

    index_args = ["index", "--vectors", vectors, "--out", index, "--threads", "1"]

    chain = [("encode", encode_args(texts, vectors)), ("index", index_args)]
    if run.trace:
        untraced_s = [run_chain(run, chain)]
        plain = ingest_digests(run, vectors, index, load)
        stages = traced_chain(run, chain)
    else:
        times = repeat_chain(
            run, seconds, encode_args(empty, os.path.join(work, "empty.vec")),
            chain, setups=SETUPS["ingest"], outputs={"vectors.jsonl": vectors, "index.svix": index},
        )
        if not times:
            return
        run.metrics.update(
            setup_s=median(times["setup"]),
            pipeline_s=median(e + i for e, i in zip(times["encode"], times["index"])),
            encode_s=median(times["encode"]),
            index_s=median(times["index"]),
            peak_rss_mb=max(p.rss_mb for p in run.procs),
        )

    if any(p.exit for p in run.procs):
        return
    vectors_list, idx = check_ingest(run, corpus, vectors, index, load)
    digests = ingest_digests(run, vectors, index, load, vectors_list, idx)
    if run.trace:
        if plain[:2] != digests[:2]:
            run.fail("traced encode/index wrote different content than the untraced run")
        run.info["raw_bytes_traced_equal_untraced"] = plain[2:] == digests[2:]
        untraced_s.append(run_chain(run, chain))
        layer_metrics(run, stages, untraced_s, n_docs=len(corpus.ids))


def ingest_digests(run: Run, vectors_path, index_path, load, vectors=None, idx=None) -> tuple:
    """(canonical vectors, canonical index, raw vectors, raw index) digests.

    ``encode`` numbers terms in set-iteration order, which follows the
    interpreter's string hash seed, so the raw bytes may differ from process
    to process while the content is the same; the canonical digests compare
    content.
    """
    vectors = vectors if vectors is not None else oracles.read_vectors(vectors_path)
    idx = idx if idx is not None else load(index_path)
    out = (
        oracles.canonical_vectors_digest(vectors),
        oracles.canonical_index_digest(idx),
        run.hash("vectors.jsonl", vectors_path),
        run.hash("index.svix", index_path),
    )
    run.sha256["vectors.jsonl (canonical)"], run.sha256["index.svix (canonical)"] = out[:2]
    return out


def check_ingest(run: Run, corpus, vectors_path: str, index_path: str, load):
    vectors = oracles.read_vectors(vectors_path)
    postings = sum(len(v) for _, v in vectors)
    run.metrics["index_bytes_per_posting"] = os.path.getsize(index_path) / postings
    idx = load(index_path)
    if [v[0] for v in vectors] != corpus.ids:
        run.fail("encode: vectors.jsonl ids differ from the corpus")
        return vectors, idx
    rng = np.random.default_rng([run.seed, 3])
    sample = np.sort(rng.choice(len(vectors), size=min(ORACLE_SAMPLE["ingest"], len(vectors)), replace=False))
    stats = oracles.bm25_stats(corpus)
    bad = [int(d) for d in sample if not oracles.same_weights(vectors[d][1], oracles.bm25_doc_weights(corpus, stats, d))]
    if bad:
        run.fail(f"encode: BM25 weights differ from the oracle for {len(bad)} sampled docs, e.g. doc {bad[0]}")

    if list(idx.doc_names) != corpus.ids:
        run.fail("index: doc names differ after load")
        return vectors, idx
    entries = (idx.postings(t) for t in range(len(idx.vocab)))
    if sum(e[0].size for e in entries if e is not None) != postings:
        run.fail("index: posting count differs from vectors.jsonl")
    mismatched = 0
    for d in sample:
        for term, weight in vectors[d][1].items():
            tid = idx.vocab.get(term)
            entry = idx.postings(tid) if tid is not None else None
            if entry is None:
                mismatched += 1
                break
            ids, weights = entry
            pos = int(np.searchsorted(ids, d))
            if pos >= ids.size or int(ids[pos]) != d or float(weights[pos]) != weight:
                mismatched += 1
                break
    if mismatched:
        run.fail(f"index: {mismatched} sampled docs do not round-trip through the index")
    return vectors, idx


# ---- query workloads ----------------------------------------------------------------------

def query(run: Run, seconds: float, scale: float) -> None:
    from setvec import Vocabulary, SparseVector
    from setvec.compose import compose
    from setvec.cpt import PseudoTermVector
    from setvec.formats import read_queries
    from setvec.index import build, load, save, search, search_cpt

    work, cpt = run.work, run.workload == "query_cpt"
    mix = workloads.CPT_MIX if cpt else workloads.SIGNED_MIX
    corpus = workloads.numeric_corpus(run.seed, mix, scale)
    postings = workloads.Postings(corpus)
    run.info["shape"] = workloads.numeric_shape(corpus, postings)
    queries_path = os.path.join(work, "queries.jsonl")
    qrels_path = os.path.join(work, "qrels.txt")
    workloads.write_queries(corpus, queries_path)
    workloads.write_qrels(corpus, qrels_path)
    run.hash("queries.jsonl", queries_path)
    empty = os.path.join(work, "empty.jsonl")
    open(empty, "w").close()

    # The query index is built with the code under test, outside any timing.
    index = os.path.join(work, "index.svix")
    vocab = Vocabulary(corpus.terms)
    rows = (
        (name, SparseVector(corpus.indices[lo:hi], corpus.data[lo:hi], vocab))
        for name, lo, hi in zip(corpus.names, corpus.indptr[:-1], corpus.indptr[1:])
    )
    save(build(rows, vocab), index)
    run.metrics["index_bytes_per_posting"] = os.path.getsize(index) / corpus.indices.size
    run.hash("index.svix", index)

    threads = str(SEARCH_THREADS[run.workload])

    def search_args(queries, out):
        args = ["search", "--index", index, "--queries", queries, "--k", str(K), "--threads", threads, "--out", out]
        return args + (["--candidate-pool", str(CANDIDATE_POOL)] if cpt else [])

    run_path = os.path.join(work, "run.txt")
    eval_path = os.path.join(work, "eval.json")
    eval_args = ["eval", "--run", run_path, "--qrels", qrels_path, "--metrics", "ndcg@10,recall@100", "--out", eval_path]
    run.attempted += len(corpus.queries)

    chain = [("search", search_args(queries_path, run_path)), ("eval", eval_args)]
    if run.trace:
        untraced_s = [run_chain(run, chain)]
        plain = run.hash("run.txt", run_path)
        stages = traced_chain(run, chain)
        if run.hash("run.txt", run_path) != plain:
            run.fail("run.txt differs between traced and untraced runs")
        untraced_s.append(run_chain(run, chain))
        run.attempted += 2 * len(corpus.queries)
    else:
        times = repeat_chain(
            run, seconds, search_args(empty, os.path.join(work, "empty.run")),
            chain, setups=SETUPS[run.workload], outputs={"run.txt": run_path},
        )
        if not times:
            return
        if run.info["raw_bytes_repeat"] is False:
            run.fail("search wrote different run files in repeated runs")
        run.attempted += len(corpus.queries) * (len(times["search"]) - 1)
        run.metrics.update(
            setup_s=median(times["setup"]),
            pipeline_s=median(s + e for s, e in zip(times["search"], times["eval"])),
            search_s=median(times["search"]),
            peak_rss_mb=max(p.rss_mb for p in run.procs),
        )
    if any(p.exit for p in run.procs):
        return

    hits = check_queries(run, corpus, postings, run_path, eval_path)
    idx = load(index)
    parsed = read_queries(queries_path, {}, idx.vocab)

    def one(q):
        rep = compose(q)
        if isinstance(rep, PseudoTermVector):
            return search_cpt(idx, rep, q.a, q.b, K, CANDIDATE_POOL)
        return search(idx, rep, K)

    if run.trace:
        layer_metrics(run, stages, untraced_s, n_docs=len(corpus.names))
        probe_queries(run, idx, parsed, hits)
    else:
        closed_loop(run, parsed, one, hits)


def check_queries(run: Run, corpus, postings, run_path: str, eval_path: str):
    """Every qid answered, a sample replayed densely, eval re-derived."""
    try:
        hits = oracles.read_run(run_path)
    except ValueError as exc:
        run.fail(f"search: {exc}")
        return {}
    for q in corpus.queries:
        if q["qid"] not in hits:
            run.fail(f"search: qid {q['qid']} missing from the run")
        elif not 0 < len(hits[q["qid"]]) <= K:
            run.fail(f"search: qid {q['qid']} has {len(hits[q['qid']])} hits")

    term_ids = {t: i for i, t in enumerate(corpus.terms)}
    n_docs, n_terms = len(corpus.names), len(corpus.terms)
    rng = np.random.default_rng([run.seed, 4])
    sample = rng.choice(len(corpus.queries), size=min(ORACLE_SAMPLE[run.workload], len(corpus.queries)), replace=False)
    for qn in np.sort(sample):
        q = corpus.queries[qn]
        a = oracles.dense(q["a"], term_ids, n_terms)
        b = oracles.dense(q["b"], term_ids, n_terms)
        if q["method"] == "cpt":
            want = oracles.cpt_topk(a, b, q["params"]["m"], CANDIDATE_POOL, postings, n_docs, K)
        else:
            dq = oracles.compose_signed(q["method"], a, b, q["params"]["lambda"])
            want = oracles.topk(dq, postings, n_docs, K)
        want = oracles.printed((corpus.names[d], s) for d, s in want)
        if hits.get(q["qid"]) != want:
            run.fail(f"search: qid {q['qid']} ({q['method']}) differs from the dense oracle")

    with open(eval_path, encoding="utf-8") as fh:
        report = json.load(fh)
    relevant: dict[str, set[str]] = {}
    for qid, doc, _ in corpus.qrels:
        relevant.setdefault(qid, set()).add(doc)
    ndcgs = []
    for qid, rel in relevant.items():
        ndcg, recall = oracles.ndcg_recall([d for d, _ in hits.get(qid, [])], rel, 10, 100)
        got = report["per_query"].get(qid, {})
        if abs(got.get("ndcg@10", -1.0) - ndcg) > 1e-9 or abs(got.get("recall@100", -1.0) - recall) > 1e-9:
            run.fail(f"eval: qid {qid} metrics differ from the oracle")
        ndcgs.append(ndcg)
    run.metrics["ndcg_10"] = report["metrics"]["ndcg@10"]
    if abs(float(np.mean(ndcgs)) - run.metrics["ndcg_10"]) > 1e-9:
        run.fail("eval: mean ndcg@10 differs from the oracle")
    return hits


def closed_loop(run: Run, parsed, one, hits) -> None:
    """One client, closed loop, in process: compose + search after load,
    over the first LOOP_QUERIES queries after a short warm-up."""
    for q in parsed[:WARMUP_QUERIES]:
        one(q)
    latencies, bad = [], 0
    t_start = time.perf_counter()
    for q in parsed[:LOOP_QUERIES]:
        t0 = time.perf_counter()
        result = one(q)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if oracles.printed(result) != hits.get(q.qid):
            bad += 1
    duration = time.perf_counter() - t_start
    run.attempted += len(latencies)
    if bad:
        run.fail(f"closed loop: {bad} of {len(latencies)} results differ from the CLI run", bad)
    pct, tail_ms = tail(latencies)
    run.metrics.update(
        queries_per_s=len(latencies) / duration,
        query_p50_ms=median(latencies),
        query_tail_ms=tail_ms,
    )
    run.info["query_tail"] = {"percentile": pct, "samples": len(latencies), "warmup": WARMUP_QUERIES}


# ---- tracing -------------------------------------------------------------------------------

def traced_chain(run: Run, stages: list[tuple[str, list[str]]]) -> list[tuple[Proc, dict]]:
    out = []
    for stage, args in stages:
        path = os.path.join(run.work, f"trace-{stage}.json")
        proc = run.cli(stage, args, traced_out=path)
        data = {"spans": [], "absent": [], "bytes_read": 0, "bytes_written": 0}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        for span in data["spans"]:
            span["stage"] = stage
        run.spans.extend(data["spans"])
        out.append((proc, data))
    absent = sorted({name for _, d in out for name in d["absent"]})
    if absent:
        run.info["absent_wrappers"] = absent
    return out


def layer_metrics(run: Run, stages, untraced_s: list[float], n_docs: int) -> None:
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in run.spans:
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self_s"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1

    def total(name):
        return self_s.get(name, 0.0)

    def per_call(name):
        return total(name) / calls[name] if calls.get(name) else 0.0

    layers = run.layers
    layers["lexical.tokenize_s"] = total("lexical.tokenize")
    layers["lexical.tokenize_calls_per_doc"] = calls.get("lexical.tokenize", 0) / n_docs
    layers["lexical.corpus_stats_s"] = total("lexical.corpus_stats")
    layers["lexical.encode_bm25_doc_s"] = total("lexical.encode_bm25_doc")
    for fn in ("read_texts", "write_vectors", "read_vectors", "read_queries", "write_search_results", "read_run", "read_qrels"):
        layers[f"formats.{fn}_s"] = total(f"formats.{fn}")
    layers["formats.bytes_read"] = sum(d["bytes_read"] for _, d in stages)
    layers["formats.bytes_written"] = sum(d["bytes_written"] for _, d in stages)
    for fn in ("build", "save", "load"):
        layers[f"index.{fn}_s"] = total(f"index.{fn}")
    layers["index.search_s"] = per_call("index.search")
    layers["index.search_cpt_s"] = per_call("index.search_cpt")
    layers["compose.compose_s"] = per_call("compose.compose")
    layers["cpt.expand_query_s"] = per_call("cpt.expand_query")
    layers["evaluation.ndcg_at_k_s"] = total("evaluation.ndcg_at_k")
    layers["evaluation.recall_at_k_s"] = total("evaluation.recall_at_k")
    layers["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    for module in ("formats", "index"):
        layers[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(module + "."))
    for proc, _ in stages:
        layers[f"cli.{proc.stage}_wall_s"] = proc.wall_s
        layers[f"cli.{proc.stage}_peak_rss_mb"] = proc.rss_mb
    traced = sum(p.wall_s for p, _ in stages)
    # The untraced chain runs before and after the traced one, so a steady
    # drift in machine speed does not pass for tracing overhead.
    layers["trace.overhead_share"] = traced / statistics.mean(untraced_s) - 1.0
    run.info["untraced_pipeline_s"] = untraced_s
    run.info["traced_pipeline_s"] = traced
    run.info["span_calls"] = calls


def probe_queries(run: Run, idx, parsed, hits) -> None:
    """Work counts from idx.postings(), and the CPT stage-1 proxy timing."""
    from setvec.compose import compose
    from setvec.cpt import PseudoTermVector
    from setvec.index import search
    from setvec.sparse import maxpool

    scanned, touched, returned, stage2, probe = [], [], [], [], []
    mask = np.zeros(idx.doc_count, dtype=bool)
    for n, q in enumerate(parsed):
        rep = compose(q)
        cpt = isinstance(rep, PseudoTermVector)
        stage1 = maxpool(q.a, q.b) if cpt else rep
        mask[:] = False
        count = 0
        for tid in stage1.ids.tolist():
            entry = idx.postings(tid)
            if entry is not None:
                mask[entry[0]] = True
                count += entry[0].size
        scanned.append(count)
        touched.append(int(mask.sum()))
        returned.append(len(hits.get(q.qid, ())))
        if cpt:
            a_ids, b_ids = rep.side_ids()
            stage2.append(sum(idx.postings(t)[0].size for t in a_ids + b_ids if idx.postings(t) is not None))
            if n < PROBE_SAMPLE:
                t0 = time.perf_counter()
                search(idx, stage1, CANDIDATE_POOL)
                probe.append(time.perf_counter() - t0)
    run.layers["index.postings_scanned_per_query"] = float(np.mean(scanned))
    run.layers["index.touched_per_query"] = float(np.mean(touched))
    run.layers["index.topk_yield"] = float(np.sum(returned) / np.sum(touched))
    run.layers["cpt.stage2_postings_per_query"] = float(np.mean(stage2)) if stage2 else 0.0
    run.layers["index.cpt_stage1_probe_s"] = float(np.mean(probe)) if probe else 0.0


# ---- reporting ------------------------------------------------------------------------------

def fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": head,
    }


def load_check(label: str, info: dict) -> None:
    load1 = os.getloadavg()[0]
    info[f"loadavg_{label}"] = load1
    if load1 > (os.cpu_count() or 1):
        print(f"warning: load average {load1:.2f} at {label} exceeds nproc={os.cpu_count()}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float, out_dir: str) -> dict:
    work = os.path.join(out_dir, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    launcher = Launcher()
    run = Run(workload=name, seed=seed, trace=trace, work=work, launcher=launcher)
    run.info["fingerprint"] = fingerprint()
    load_check("start", run.info)
    try:
        (ingest if name == "ingest" else query)(run, seconds, scale)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    load_check("end", run.info)

    with open(SPEC, encoding="utf-8") as fh:
        wanted = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]}
    values = run.layers if trace else run.metrics
    missing = [m for m in wanted if m not in values]
    if missing:
        run.fail(f"metrics not measured: {', '.join(missing)}")
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "ops_attempted": max(1, run.attempted),
        "ops_failed": run.failed,
        "failures": run.failures,
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in run.metrics.items()},
        "per_layer": run.layers,
        "sha256": run.sha256,
        "procs": [{"stage": p.stage, "exit": p.exit, "wall_s": p.wall_s, "peak_rss_mb": p.rss_mb} for p in run.procs],
        **run.info,
    }
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if trace:
        with open(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
    line = {
        "correct": not run.failures,
        "attempted": report["ops_attempted"],
        "failed": min(report["ops_failed"], report["ops_attempted"]),
        "metrics": {m: {"value": values.get(m), "unit": unit} for m, unit in wanted.items()},
    }
    report["line"] = line
    return report


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.startswith("formats.bytes"):
        return "B"
    return "ratio" if metric.endswith(("_share", "_yield")) else "count"


def print_report(report: dict) -> None:
    print(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])}")
    for key in ("shape", "fingerprint", "absent_wrappers"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if "query_tail" in report:
        t = report["query_tail"]
        print(f"  query_tail_ms is p{t['percentile']:g} of {t['samples']} queries (after {t['warmup']} warm-up)")
    for name, value in report["per_layer"].items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    for label, digest in report["sha256"].items():
        print(f"  sha256 {label:<20} {digest}")
    print(f"  ops_attempted {report['ops_attempted']}  ops_failed {report['ops_failed']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="time for repeating the CLI chain (it runs at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus and query count multiplier (tests use a tiny one)")
    parser.add_argument("--out", default=".perfbench-out", help="report directory, relative to the repository root")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "setvec", "cli.py")) or not os.path.isfile(SPEC):
        print(f"error: no setvec sources under {SRC} or no {SPEC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out_dir = os.path.join(ROOT, args.out)
    os.makedirs(out_dir, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.scale, out_dir) for n in names]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        print(json.dumps(reports[0]["line"]))
        return 0
    print(json.dumps({
        "correct": all(r["line"]["correct"] for r in reports),
        "attempted": sum(r["line"]["attempted"] for r in reports),
        "failed": sum(r["line"]["failed"] for r in reports),
        "metrics": {f"{r['workload']}.{k}": v for r in reports for k, v in r["line"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
