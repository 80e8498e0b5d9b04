"""The mutant list stays true to the source, checked without running a mutant.

Each mutant's ``find`` occurs exactly once in its file and its replacement
still parses, and each test it names exists as a function of its test module.
``run_mutants.py`` runs the mutants themselves.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
IDS = [m["name"] for m in MUTANTS]


def _test_names(path: Path) -> set[str]:
    """``name`` for each module-level function of *path* and ``Class::name`` for each method."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef):
            names.add(top.name)
        elif isinstance(top, ast.ClassDef):
            names.update(f"{top.name}::{node.name}" for node in top.body if isinstance(node, ast.FunctionDef))
    return names


def test_mutant_names_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_mutant_applies_once_and_parses(mutant):
    source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert source.count(mutant["find"]) == 1
    assert mutant["replace"] != mutant["find"]
    ast.parse(source.replace(mutant["find"], mutant["replace"]))
    assert mutant["timeout"] > 0


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_mutant_names_existing_tests(mutant):
    assert mutant["tests"]
    for test in mutant["tests"]:
        path, _, name = test.partition("::")
        assert name.split("[")[0] in _test_names(ROOT / path), test
