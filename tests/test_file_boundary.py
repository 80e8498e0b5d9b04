"""Each decision lives in one place: how a file is opened, and how arrays are ranked and checked.

Text files are opened only by ``formats._lines`` (read) and ``formats._write``
(write); the binary index only by ``index.save`` and ``index.load``.  The CLI
orchestrates: it parses no file itself.  Hits, CPT pools and top-m terms are
ordered only by ``sparse._rank``; near-zero weights are dropped only by
``sparse._kept``, which only ``sparse._canonical_rows`` calls, for every
vector and batch row; term ids are checked against the vocabulary only by
``sparse._term_ids`` and to increase within a row only by
``sparse._not_increasing``; counts are checked only by
``sparse._positive_int`` and nrf's lambda only by ``compose._checked_lambda``;
lambda's default is stated in ``compose`` and m's in ``cpt``; operands are
held to one vocabulary only by ``sparse._require_same_vocab``, and
pseudo-term weights to the sqrt domain only by ``cpt._require_nonnegative``;
scores are accumulated only by ``index._accumulate``, the one scoring loop,
through ``np.add.at`` or, for a head term's dense row, ``np.add``; the
index file's checksum is computed only by ``index.save`` and ``index._Body``.
And setvec imports nothing beyond the standard library and the dependencies
that ``pyproject.toml`` declares, numpy and orjson; only
``formats.read_vectors`` imports orjson.
"""

import ast
import re
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
    """Every vector and batch row is pruned through ``sparse._canonical_rows`` alone; the
    index loader holds a weight table to the same rule, refusing what it would prune."""
    callers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_kept"
    ]
    assert callers == [("index", "_parse"), ("sparse", "_canonical_rows")]


def test_positive_integer_rule_is_raised_in_one_place():
    """One function says what a count must be, for the library and the CLI's count flags alike."""
    sayers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "positive integer" in node.value
    ]
    assert sayers == [("sparse", "_positive_int")]


def test_same_vocabulary_rule_is_raised_in_one_place():
    """Vectors, batches, the index and pseudo-terms all refuse operands over another
    vocabulary through ``sparse._require_same_vocab``; nothing else raises the error."""
    raisers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and any(getattr(n, NAME_FIELDS.get(type(n), ""), None) == "VocabularyMismatchError" for n in ast.walk(node))
    ]
    assert raisers == [("sparse", "_require_same_vocab")]


def test_lambda_rule_is_stated_in_one_place():
    """``difference_nrf`` and ``CompositionParams`` hold nrf's lambda to one rule and one message."""
    sayers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "lambda must be" in node.value
    ]
    assert sayers == [("compose", "_checked_lambda")]


def test_query_setting_defaults_are_stated_once():
    """lambda's default lives with the nrf rule, m's with the top-m truncation that uses it."""
    defaults = [
        (module, target.id)
        for module, top in _modules()
        if isinstance(top, ast.Assign)
        for target in top.targets
        if isinstance(target, ast.Name) and target.id in {"DEFAULT_LAMBDA", "DEFAULT_M"}
    ]
    assert defaults == [("compose", "DEFAULT_LAMBDA"), ("cpt", "DEFAULT_M")]


def test_cpt_domain_error_has_one_raiser():
    """Query sides, factors, documents and index postings reach the sqrt domain rule
    through ``cpt._require_nonnegative``; nothing else raises ``CptDomainError``."""
    raisers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and any(getattr(n, NAME_FIELDS.get(type(n), ""), None) == "CptDomainError" for n in ast.walk(node))
    ]
    assert raisers == [("cpt", "_require_nonnegative")]


def test_scores_accumulate_in_one_place():
    """Only ``index._accumulate``, which ``search`` and both CPT factors call, scatter-adds
    through a numpy ufunc's unbuffered ``at``; it adds a head term's dense row
    (``InvertedIndex.head_rows``) with a whole-array ``np.add``, which needs no ``at``.
    ``search``'s touched set (``index._touched``) adds nothing: it assigns True to the
    doc ids of each posting list.  No array accumulates through ``x[ids] += ...`` (the
    one subscript update left extends a string in ``formats._records``' list of pieces)."""
    scatters = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and node.attr == "at"
        and isinstance(node.value, ast.Attribute)
        and getattr(node.value.value, "id", None) == "np"
    ]
    assert scatters == [("index", "_accumulate")]
    updates = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
    ]
    assert updates == [("formats", "_records")]


def test_checksum_is_computed_once_each_way():
    """The index file's CRC32 is computed only by ``index.save``, over what it writes,
    and by ``index._Body``, over what ``load`` parses: ``load`` sums no byte itself."""
    summers = [
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if getattr(node, NAME_FIELDS.get(type(node), ""), None) == "crc32"
    ]
    assert summers == [("index", "_Body"), ("index", "save")]


def test_row_order_rule_has_one_implementation():
    """Batch canonicalisation, the index parser and logit columns share ``sparse._not_increasing``."""
    callers = {
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_not_increasing"
    }
    assert callers == {("sparse", "_canonical_rows"), ("index", "_parse"), ("activations", "LogitMatrix")}


def test_term_id_rule_has_one_implementation():
    """Vectors, batches and logit columns check their term ids through ``sparse._term_ids``."""
    callers = {
        (module, getattr(top, "name", "<module>"))
        for module, top in _modules()
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_term_ids"
    }
    assert callers == {("sparse", "SparseVector"), ("sparse", "VectorBatch"), ("activations", "LogitMatrix")}


def test_every_export_has_a_user():
    """Each name that ``setvec.__all__`` exports is read by a setvec module other than
    ``__init__``, a demo or the benchmark; a name only the tests read belongs in the tests."""
    root = Path(__file__).resolve().parents[1]
    users = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    read = {
        getattr(node, NAME_FIELDS[type(node)])
        for path in users
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(setvec.__all__) - read) == []


def _declared_dependencies() -> set[str]:
    """The import names of ``pyproject.toml``'s ``[project] dependencies``, one line of TOML
    that is also a Python list literal (Python 3.10 has no ``tomllib``)."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    [line] = [line for line in pyproject.read_text(encoding="utf-8").splitlines() if line.startswith("dependencies =")]
    requirements = ast.literal_eval(line.partition("=")[2].strip())
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def _imports():
    """``(module, enclosing top-level name, imported module)`` for every absolute import in setvec."""
    for module, top in _modules():
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((module, getattr(top, "name", "<module>"), name) for name in names)


def test_runtime_imports_are_stdlib_or_numpy():
    """A module outside the standard library, the declared dependencies and setvec itself
    would be an undeclared dependency."""
    declared = _declared_dependencies()
    assert declared == {"numpy", "orjson"}
    allowed = set(sys.stdlib_module_names) | declared
    foreign = [(module, name) for module, _, name in _imports() if name.split(".")[0] not in allowed]
    assert foreign == []


def test_only_the_vector_reader_imports_orjson():
    """orjson parses vector files and nothing else, and is imported where it is used, so a
    child that reads no vectors file (``eval``, ``search`` of a query file) never loads it."""
    importers = [(module, where) for module, where, name in _imports() if name.split(".")[0] == "orjson"]
    assert importers == [("formats", "read_vectors")]
