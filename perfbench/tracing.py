"""Outside-in tracing of setvec: wrap the public functions the CLI calls.

The tracer replaces module attributes (for example ``setvec.cli.search`` and
``setvec.formats.read_vectors``) with timing wrappers, then calls
``setvec.cli.main(argv)`` in this process.  Nothing inside setvec changes, so
the traced stage writes the same bytes as an untraced one.

Each span records name, start, end (seconds since the tracer started), parent
span id, thread id, query id and self time: its duration minus the part of it
that child spans cover.  Spans stay in memory and are written once, when the
stage ends.  A generator (``read_texts``, ``read_vectors``) gets one span that
covers its iteration, not its creation: ``self_s`` is the time spent inside its
``next()`` calls, ``pulls`` their number.

    python3 perfbench/tracing.py --out stage.json -- search --index ... --out run.txt

writes ``{"exit", "absent", "bytes_read", "bytes_written", "spans"}`` to
stage.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

# (module, attribute, span name).  The CLI looks these names up in its own
# module (or in setvec.formats), so replacing them there is enough.
WRAPS = (
    ("setvec.cli", "tokenize", "lexical.tokenize"),
    ("setvec.cli", "corpus_stats", "lexical.corpus_stats"),
    ("setvec.cli", "encode_bm25_doc", "lexical.encode_bm25_doc"),
    ("setvec.cli", "build", "index.build"),
    ("setvec.cli", "save", "index.save"),
    ("setvec.cli", "load", "index.load"),
    ("setvec.cli", "search", "index.search"),
    ("setvec.cli", "search_cpt", "index.search_cpt"),
    ("setvec.cli", "compose", "compose.compose"),
    ("setvec.cli", "ndcg_at_k", "evaluation.ndcg_at_k"),
    ("setvec.cli", "recall_at_k", "evaluation.recall_at_k"),
    ("setvec.index", "maxpool", "sparse.maxpool"),
    ("setvec.compose", "expand_query", "cpt.expand_query"),
    ("setvec.formats", "read_texts", "formats.read_texts"),
    ("setvec.formats", "read_vectors", "formats.read_vectors"),
    ("setvec.formats", "write_vectors", "formats.write_vectors"),
    ("setvec.formats", "read_queries", "formats.read_queries"),
    ("setvec.formats", "write_search_results", "formats.write_search_results"),
    ("setvec.formats", "read_run", "formats.read_run"),
    ("setvec.formats", "read_qrels", "formats.read_qrels"),
)

# Spans that belong to one query; they carry the query id that the latest
# compose() call on their thread was given.
QUERY_SPANS = {"compose.compose", "cpt.expand_query", "index.search", "index.search_cpt", "sparse.maxpool"}


class _Frame:
    __slots__ = ("id", "name", "parent", "qid", "start", "end", "child_s", "busy_s", "pulls")

    def __init__(self, span_id, name, parent, qid):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.qid = qid
        self.start = None
        self.end = None
        self.child_s = 0.0
        self.busy_s = 0.0
        self.pulls = 0


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.root: _Frame | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_frame(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1][0].id if stack else (self.root.id if self.root else None)
        qid = getattr(self._local, "qid", None) if name in QUERY_SPANS else None
        return _Frame(next(self._ids), name, parent, qid)

    def enter(self, frame: _Frame) -> None:
        now = time.perf_counter()
        if frame.start is None:
            frame.start = now
        self._stack().append((frame, now))

    def leave(self) -> None:
        now = time.perf_counter()
        stack = self._stack()
        frame, entered = stack.pop()
        dur = now - entered
        frame.end = now
        frame.busy_s += dur
        frame.pulls += 1
        if stack:
            stack[-1][0].child_s += dur

    def finish(self, frame: _Frame, generator: bool = False) -> None:
        row = {
            "id": frame.id,
            "name": frame.name,
            "start": frame.start - self.t0,
            "end": frame.end - self.t0,
            "parent": frame.parent,
            "thread": threading.get_ident(),
            "qid": frame.qid,
            "self_s": frame.busy_s - frame.child_s,
        }
        if generator:
            row["pulls"] = frame.pulls
        self.spans.append(row)

    def wrap(self, fn, name: str):
        reads = name.startswith("formats.read_")
        writes = name.startswith("formats.write_")

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if reads and args:
                    self.bytes_read += os.path.getsize(args[0])
                return self._iterate(fn(*args, **kwargs), name)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "compose.compose" and args:
                self._local.qid = getattr(args[0], "qid", None)
            if reads and args:
                self.bytes_read += os.path.getsize(args[0])
            frame = self.new_frame(name)
            self.enter(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
                self.finish(frame)
                if writes and args and os.path.exists(args[0]):
                    self.bytes_written += os.path.getsize(args[0])

        return traced

    def _iterate(self, gen, name: str):
        """Time a generator's next() calls; the span opens at the first pull."""
        frame = None
        try:
            while True:
                if frame is None:
                    frame = self.new_frame(name)
                self.enter(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.leave()
                yield item
        finally:
            if frame is not None:
                self.finish(frame, generator=True)

    def install(self) -> None:
        for module_name, attr, span in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span))

    def run_cli(self, argv: list[str]) -> int:
        from setvec import cli

        self.root = self.new_frame(f"cli.{argv[0] if argv else 'none'}")
        self.enter(self.root)
        try:
            code = cli.main(argv)
        finally:
            self.leave()
            self.finish(self.root)
            self._root_cross_thread_self()
        return code

    def _root_cross_thread_self(self) -> None:
        """Worker-thread spans under the root overlap in time; subtract their union."""
        root = self.spans[-1]
        intervals = sorted(
            (s["start"], s["end"])
            for s in self.spans
            if s["parent"] == root["id"] and s["thread"] != self._main_thread
        )
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        root["self_s"] -= covered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="stage JSON to write")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="setvec CLI arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.install()
    code = tracer.run_cli(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit": code,
                "absent": tracer.absent,
                "bytes_read": tracer.bytes_read,
                "bytes_written": tracer.bytes_written,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
