"""Every Python file of the project parses as Python 3.10, the oldest
version pyproject.toml admits and CI runs; no line of the library is
longer than 100 characters, and the library imports only the standard
library and computes without floats."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for d in ("src", "tests", "demos", "perfbench") for path in (ROOT / d).rglob("*.py")
)


def test_every_file_parses_as_python_3_10():
    """ast.parse with feature_version=(3, 10) refuses syntax newer than
    3.10, such as except* or a type statement, on any later Python.  It
    catches newer syntax, not newer stdlib names: a call to a function
    that 3.10 lacks still parses."""
    assert Path(__file__).resolve() in FILES
    refused = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as e:
            refused.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert refused == []


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_no_library_line_is_longer_than_100_characters():
    """Characters, not bytes: a line holding ∞ or · counts each as one."""
    library = [path for path in FILES if path.is_relative_to(ROOT / "src")]
    assert library
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in library
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_the_library_imports_only_the_standard_library_and_uses_no_floats():
    """Each import of src/ is relative, __future__ or a module of
    sys.stdlib_module_names, and no line holds a float literal, a
    float(...) call or true division."""
    library = [path for path in FILES if path.is_relative_to(ROOT / "src")]
    assert library
    found = []
    for path in library:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            bad = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
            if bad or (
                isinstance(node, ast.Constant) and type(node.value) is float
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
