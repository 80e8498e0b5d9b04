"""Each decision lives in one place: how a file is opened, and how hits are ranked.

Text files are opened only by ``formats._lines`` (read) and ``formats._write``
(write); the binary index only by ``index.save`` and ``index.load``.  The CLI
orchestrates: it parses no file itself.  Hits are ordered only by
``index._rank``.
"""

import ast
from pathlib import Path

import setvec

SRC = Path(setvec.__file__).parent
ALLOWED_OPENS = {("formats", "_lines"), ("formats", "_write"), ("index", "save"), ("index", "load")}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _opens(tree: ast.Module):
    """Yield the enclosing top-level function name of every ``open(...)``/``x.open(...)`` call."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr == "open"
                ):
                    yield getattr(top, "name", "<module>")


def test_only_formats_and_index_open_files():
    found = {
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        for where in _opens(_tree(path.stem))
    }
    assert found == ALLOWED_OPENS


def test_cli_parses_no_file():
    tree = _tree("cli")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "json" not in imported
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "formats"
        and node.attr.startswith("_")
    ]
    assert private == []


def test_index_ranks_in_one_place():
    """``search`` and both CPT stages select and order their hits through ``index._rank`` alone."""
    callers = [
        (node.attr, getattr(top, "name", "<module>"))
        for top in _tree("index").body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("lexsort", "partition")
    ]
    assert sorted(callers) == [("lexsort", "_rank"), ("partition", "_rank")]
