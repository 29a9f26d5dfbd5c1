"""Each record has one text form, owned by its module.

knots.py alone writes and reads the companion object, the six facts a
certificate holds; patterns.py alone names the pattern kinds; and
certify.py keeps what it reads off a companion in one table.  Checked on
the source: a key counts as named when it is a whole string constant or
is quoted, "key", inside one (an f-string's literal parts included), in
any library module, docstrings and __all__ excluded.
"""

import ast
import dataclasses
from pathlib import Path

from lspacesat import KnotFacts

SRC = Path(__file__).resolve().parent.parent / "src" / "lspacesat"
LIBRARY = sorted(SRC.glob("*.py"))

COMPANION_KEYS = {field.name for field in dataclasses.fields(KnotFacts)}
PATTERN_KINDS = {"torus_pattern", "one_bridge_braid", "table"}

# Keys that other records share with the companion object: a table
# pattern's name, and thm1.1's values, whether the companion is an L-space
# knot and whether it is the unknot.
SHARED_KEYS = {"patterns.py": {"name"}, "certify.py": {"is_lspace", "is_unknot"}}


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def not_keys(module: ast.Module) -> set[int]:
    """The ids of the string constants of module that are not data: the
    docstrings of module and of its classes and functions, and the names
    __all__ exports, torus_pattern and one_bridge_braid among them."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found |= {id(c) for c in ast.walk(node.value)}
    return found


def named_keys(path: Path, keys: set[str]) -> set[str]:
    """The keys that path names in a string constant, docstrings and
    __all__ excluded."""
    module = tree(path)
    skip = not_keys(module)
    named = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            named |= {k for k in keys if node.value == k or f'"{k}"' in node.value}
    return named


def test_only_knots_names_a_companion_key():
    named = {
        path.name: named_keys(path, COMPANION_KEYS) - SHARED_KEYS.get(path.name, set())
        for path in LIBRARY
        if path.name != "knots.py"
    }
    assert {name: keys for name, keys in named.items() if keys} == {}


def test_only_knots_reads_the_fact_types():
    importers = set()
    for path in LIBRARY:
        for node in ast.walk(tree(path)):
            if isinstance(node, ast.ImportFrom) and any(a.name == "_FACT_TYPES" for a in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "_FACT_TYPES":
                importers.add(path.name)
    assert importers == set()


def test_only_patterns_names_a_pattern_kind():
    named = {
        path.name: named_keys(path, PATTERN_KINDS) for path in LIBRARY if path.name != "patterns.py"
    }
    assert {name: keys for name, keys in named.items() if keys} == {}


def test_certify_keeps_one_companion_table_and_no_lru_cache():
    module = tree(SRC / "certify.py")
    tables = []
    for node in module.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, (ast.Dict, ast.Call)) and any(
            isinstance(t, ast.Name) and "COMPANION" in t.id for t in targets
        ):
            tables.append(targets[0].id)
    assert tables == ["_COMPANIONS"]
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(module)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert names.isdisjoint({"lru_cache", "cache", "functools"})
