"""Every public name of lspacesat has a caller outside the test suite.

A name counts as used when it occurs, as a name, an attribute or a whole
string constant, in a library module other than the package's
__init__.py, in a demo, or in a non-test file of the benchmark.  A
definition alone (def, class, import) is not a use.
"""

import ast
from pathlib import Path

import lspacesat

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    *(p for p in (ROOT / "src" / "lspacesat").glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "demos").glob("*.py"),
    *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
]


def used_names(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_export_has_a_caller():
    used = set().union(*(used_names(p) for p in SOURCES))
    assert sorted(set(lspacesat.__all__) - used) == []
