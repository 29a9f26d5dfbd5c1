"""Every public name of lspacesat, and every public method and property
of an exported class, has a caller outside the test suite.

A name counts as used when it occurs, as a name, an attribute or a whole
string constant, in a library module other than the package's
__init__.py, in a demo, or in a non-test file of the benchmark.  A
definition alone (def, class, import) is not a use.
"""

import ast
from pathlib import Path
from types import FunctionType

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


USED = set().union(*(used_names(p) for p in SOURCES))


def test_every_export_has_a_caller():
    assert sorted(set(lspacesat.__all__) - USED) == []


def test_every_public_method_of_an_exported_class_has_a_caller():
    """The same rule for each public method and property that an exported
    class defines itself."""
    unused = [
        f"{name}.{attr}"
        for name in lspacesat.__all__
        if isinstance(cls := getattr(lspacesat, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and isinstance(value, (FunctionType, property, classmethod, staticmethod))
        and attr not in USED
    ]
    assert unused == []
