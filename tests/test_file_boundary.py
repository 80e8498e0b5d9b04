"""Each decision lives in one place: how a file is opened, and how arrays are ranked and checked.

Text files are opened only by ``formats._lines`` (read) and ``formats._write``
(write); the binary index only by ``index.save`` and ``index.load``.  The CLI
orchestrates: it parses no file itself.  Hits, CPT pools and top-m terms are
ordered only by ``sparse._rank``; near-zero weights are dropped only by
``sparse._kept``, which only ``sparse._canonical_rows`` calls, for every
vector and batch row; ids are checked to increase within a row only by
``sparse._not_increasing``; counts are checked only by
``sparse._positive_int``.  And setvec imports nothing beyond the
standard library and numpy, its one declared dependency.
"""

import ast
import sys
from pathlib import Path

import setvec

SRC = Path(setvec.__file__).parent
ALLOWED_OPENS = {("formats", "_lines"), ("formats", "_write"), ("index", "save"), ("index", "load")}
SELECTIONS = {"lexsort", "partition", "argpartition"}
NAME_FIELDS = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _modules():
    """``(module name, top-level statement)`` for every statement of every setvec module."""
    for path in sorted(SRC.glob("*.py")):
        for top in _tree(path.stem).body:
            yield path.stem, top


def _selections(top: ast.stmt):
    """The numpy selections that *top* names; a string's ``s.partition("@")`` is none."""
    string_splits = {
        id(node.func)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }
    for node in ast.walk(top):
        name = getattr(node, NAME_FIELDS.get(type(node), ""), None)
        if name in SELECTIONS and id(node) not in string_splits:
            yield name


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
    """``search``, both CPT stages and ``top_m`` select and order through ``sparse._rank``
    alone: no other code in setvec names a lexsort or a partition."""
    found = sorted(
        (module, getattr(top, "name", "<module>"), name)
        for module, top in _modules()
        for name in _selections(top)
    )
    assert found == [("sparse", "_rank", "lexsort"), ("sparse", "_rank", "partition")]


def test_near_zero_is_read_in_one_place():
    readers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "NEAR_ZERO" and isinstance(node.ctx, ast.Load)
    ]
    assert readers == [("sparse", "_kept")]


def test_one_canonicaliser_applies_the_weight_rule():
    """Every vector and batch row is pruned through ``sparse._canonical_rows`` alone."""
    callers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_kept"
    ]
    assert callers == [("sparse", "_canonical_rows")]


def test_positive_integer_rule_is_raised_in_one_place():
    """One function says what a count must be, for the library and the CLI's count flags alike."""
    sayers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "positive integer" in node.value
    ]
    assert sayers == [("sparse", "_positive_int")]


def test_row_order_rule_has_one_implementation():
    """Batch canonicalisation, the index loader and logit columns share ``sparse._not_increasing``."""
    callers = {
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_not_increasing"
    }
    assert callers == {("sparse", "_canonical_rows"), ("index", "load"), ("activations", "LogitMatrix")}


def test_runtime_imports_are_stdlib_or_numpy():
    """A module outside the standard library, numpy and setvec itself would be an undeclared dependency."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.stem, name) for name in names if name.split(".")[0] not in allowed]
    assert foreign == []
