"""Check that the tests catch every mutant in ``mutants.py``.

    python tests/run_mutants.py [NAME ...]

Copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory
and runs pytest there, with that copy of ``src/`` first on the import path.
The tests each mutant names must first pass on the unchanged copy.  Then each
mutant (every one, or each NAME given) is applied alone and its tests run: it
is caught when each of them fails, or when the run outlasts the mutant's
timeout.  Prints one line per mutant with its time.  Exits 1 if any mutant
survived or any named test did not pass unchanged, and 2 if a NAME is unknown,
a source text does not occur exactly once or setvec does not import from the
copy.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def _pytest(tree: Path, tests: list[str], timeout: float) -> tuple[int, str] | None:
    """pytest's exit status and output for *tests* run in *tree*, or None when the run
    outlasts *timeout* seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def _failed(test: str, out: str) -> bool:
    """Whether pytest's summary in *out* reports *test*, or a case of it, as failed or in error."""
    for line in out.splitlines():
        for mark in ("FAILED ", "ERROR "):
            if line.startswith(mark + test) and line[len(mark + test):][:1] in ("", " ", "["):
                return True
    return False


def main(names: list[str]) -> int:
    unknown = set(names) - {m["name"] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="setvec-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        where = subprocess.run(
            [sys.executable, "-c", "import setvec; print(setvec.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(tree / "src")), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(tree):
            print(f"setvec imports from {where}, not from the copy", file=sys.stderr)
            return 2
        tests = sorted({t for m in chosen for t in m["tests"]})
        baseline = _pytest(tree, tests, max(m["timeout"] for m in chosen) * 2)
        if baseline is None or baseline[0] != 0:
            print(baseline[1] if baseline else "the unchanged tests timed out", file=sys.stderr)
            print("the named tests do not pass on the unchanged source", file=sys.stderr)
            return 1
        survivors = []
        for mutant in chosen:
            path = tree / mutant["file"]
            source = path.read_text(encoding="utf-8")
            if source.count(mutant["find"]) != 1:
                print(f"{mutant['name']}: its source text does not occur exactly once", file=sys.stderr)
                return 2
            path.write_text(source.replace(mutant["find"], mutant["replace"]), encoding="utf-8")
            began = time.perf_counter()
            try:
                result = _pytest(tree, mutant["tests"], mutant["timeout"])
            finally:
                path.write_text(source, encoding="utf-8")
            if result is None:
                verdict = "caught (timed out)"
            elif all(_failed(test, result[1]) for test in mutant["tests"]):
                verdict = "caught"
            else:
                verdict = "SURVIVED"
                survivors.append(mutant["name"])
            print(f"{verdict:20} {time.perf_counter() - began:6.1f} s  {mutant['name']}", flush=True)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
