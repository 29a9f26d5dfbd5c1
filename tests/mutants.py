"""One-token mutants of the library, each run against the test suite.

    python tests/mutants.py [--matrix FILE]

A mutant of a module of MODULES swaps > with >=, < with <= or and with
or; moves an int constant by ±1; drops a not; or swaps a call's first two
positional arguments.  It is spliced into the source text, so every other
line stays as it is; a splice that makes a line longer than 100
characters is not made.  Its id, module.function#n, counts mutants within
the enclosing function, so edits elsewhere leave it alone.

Each mutant runs in a fresh temporary copy of the tree: pytest -x over
tests/, the mutated module's own test file first.  It is killed when a
test fails and times out after TIMEOUT_FACTOR times the clean run.  The
run prints the counts and each survivor, and exits 1 when one outside
EQUIVALENT survives.  --matrix FILE re-runs each killed mutant without -x
and writes the ids of the tests that fail under it.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import collections
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("certify", "patterns", "knots", "slopes", "projective")
FLAGS = ("-p", "no:cacheprovider", "--hypothesis-seed=0", "--tb=no")
TIMEOUT_FACTOR = 4
COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks", "*.egg-info", "build"
)
# The token each operator mutant puts in place of another.
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "and": "or", "or": "and"}
_NOT = re.compile(r"not[ \t]*")

# The reviewed survivors, as (reason, ids): a mutant is equivalent only when
# no call of the library can tell it from the original.  One that the
# pipeline merely never reaches gets a test instead.
_REVIEWED = [
    ("min, max and gcd do not depend on the order of their arguments",
     "certify.check_lemma#1 certify.choose_lemma_params#14 knots.torus_knot_genus#4"
     " knots.cable_is_lspace_exact#6 patterns._BraidPattern.__init__#9 slopes.Slope.__init__#5"
     " slopes.farey_enumerate#13"),
    ("the guard only skips a check that accepts every value the guard lets past",
     "patterns._BraidPattern.__init__#4 patterns._TablePattern.__init__#5"
     " patterns._TablePattern.__init__#7 patterns._TablePattern.__init__#9"
     " knots.KnotFacts.__init__#4 knots.KnotFacts.__init__#6 knots.KnotFacts.__init__#8"
     " knots.KnotFacts.__init__#10"),
    ("a certificate holds 0, 2, 5, 6 or 11 checks, never 3 or 7",
     "certify.Certificate.to_json#15 certify.Certificate.to_json#22"),
    ("B(w, b, t), b >= 1, is a link at t = 0, -1 mod w; T(w, 0) is refused, T(w, -1) unknotted",
     "patterns._braid_genus#3 patterns._braid_genus#5 patterns._braid_closure#4"
     " patterns._braid_closure#5 patterns._braid_closure#6"),
    ("c - w + 1 = 2g is even for a knot", "patterns._braid_genus#9"),
    ("q = ±p(2g - 1) is never coprime to p, and a cable needs gcd(p, q) = 1",
     "knots.cable_is_lspace_exact#13 knots.cable_facts#12"),
    ("num <= 0 and num < 1 differ from num < 0 only at (0, 0), refused before",
     "slopes.Slope.__init__#14 slopes.Slope.__init__#16"),
    ("g is never 0 there, and dividing by g = 1 changes nothing", "slopes.Slope.__init__#17"),
    ("Slope(2, 0) is Slope(1, 0)", "slopes.<module>#3"),
    ("slope_det(x, y) is 0 only for x = y, which is refused or printed before",
     " ".join(f"slopes.slope_ccw#{n}" for n in (4, 6, 8, 10, 13, 15, 17, 19, 22, 24))
     + " projective._arc_to_str#5 projective._arc_to_str#6"),
    ("upper() never shortens a text, so no 6 characters read EMPTY",
     "projective.SlopeSet.parse#3"),
    ("keys num·Q³ // den order and separate the ends as num·Q² // den do", "projective._spans#2"),
    ("Q² is 0 only when every end is ∞, and then every key is the same", "projective._spans#5"),
    ("s = e only for a point with one open end, which Arc and parse refuse",
     "projective._spans#15"),
    ("the line's ends still lie beyond every position but ∞'s, which a wrap covers",
     "projective._reach#2 projective._merge#2 projective._merge#4 projective._merge#5"),
    ("a span that ends where its run ends names an equal end of the run", "projective._merge#9"),
    ("the scan ends with the same reach, or sets reach to the value it holds",
     "projective.covers_circle#4 projective.covers_circle#7"),
]
EQUIVALENT = {id: reason for reason, ids in _REVIEWED for id in ids.split()}


@dataclass(frozen=True)
class Mutant:
    id: str
    module: str
    line: int
    old: str
    new: str
    text: str

    def __str__(self) -> str:
        old, new = (" ".join(s.split()) for s in (self.old, self.new))
        return f"{self.id}  {self.module}.py:{self.line}: {old!r} -> {new!r}"


class _Source:
    """A module's text, with the character offsets of AST positions (whose
    columns count UTF-8 bytes) and of its operator and name tokens."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.lines = text.splitlines(keepends=True)
        self.starts = [0, *itertools.accumulate(map(len, self.lines))]
        self.tokens = [
            (self.starts[tok.start[0] - 1] + tok.start[1], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in (tokenize.OP, tokenize.NAME)
        ]

    def offset(self, lineno: int, col: int) -> int:
        return self.starts[lineno - 1] + len(self.lines[lineno - 1].encode()[:col].decode())

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (self.offset(node.lineno, node.col_offset),
                self.offset(node.end_lineno, node.end_col_offset))

    def swap_between(self, left: ast.AST, right: ast.AST) -> tuple[int, int, str]:
        """The splice that swaps the operator token between two operands."""
        i = bisect.bisect_left(self.tokens, (self.span(left)[1], ""))
        while self.tokens[i][1] not in SWAPS:
            i += 1
        start, word = self.tokens[i]
        return start, start + len(word), SWAPS[word]


def _splices(node: ast.AST, src: _Source):
    """Each mutant of one node, as a splice (start, end, replacement)."""
    text = src.text
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                yield src.swap_between(operands[i], operands[i + 1])
    elif isinstance(node, ast.BoolOp):
        for left, right in zip(node.values, node.values[1:]):
            yield src.swap_between(left, right)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        start, end = src.span(node)
        yield start, end, str(node.value + 1)
        yield start, end, str(node.value - 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        start = src.span(node)[0]
        yield start, _NOT.match(text, start).end(), ""
    elif isinstance(node, ast.Call) and len(node.args) >= 2:
        if not any(isinstance(arg, ast.Starred) for arg in node.args[:2]):
            (a0, a1), (b0, b1) = map(src.span, node.args[:2])
            if text[a0:a1] != text[b0:b1]:
                yield a0, b1, text[b0:b1] + text[a1:b0] + text[a0:a1]


def _walk(node: ast.AST, scope: str):
    """(scope, node) for every node under node, skipping f-strings, whose
    inner positions Python 3.10 and 3.11 do not report reliably."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.JoinedStr):
            continue
        yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _walk(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
        else:
            yield from _walk(child, scope)


def mutants_of(module: str, text: str) -> list[Mutant]:
    """The mutants of one module's source text, in id order."""
    src = _Source(text)
    splices = sorted(
        (start, replacement, end, scope)
        for scope, node in _walk(ast.parse(text), "<module>")
        for start, end, replacement in _splices(node, src)
    )
    mutants, ordinals = [], collections.Counter()
    for start, replacement, end, scope in splices:
        ordinals[scope] += 1
        mutated = text[:start] + replacement + text[end:]
        line = text.count("\n", 0, start) + 1
        rows = mutated.splitlines()[line - 1 : line + replacement.count("\n")]
        if max(map(len, rows)) <= 100:
            mutants.append(Mutant(f"{module}.{scope}#{ordinals[scope]}", module, line,
                                  text[start:end], replacement, mutated))
    return mutants


def all_mutants() -> list[Mutant]:
    library = ROOT / "src" / "lspacesat"
    return [m for n in MODULES for m in mutants_of(n, (library / f"{n}.py").read_text("utf-8"))]


_FAILED = re.compile(r"^(?:(\S.*) (?:FAILED|ERROR)|ERROR (\S+\.py)\b.*)$")


def run_tests(mutant: Mutant | None, stop_first: bool = True, timeout: float | None = None,
              tests: list[str] | None = None) -> tuple[str, float, list[str]]:
    """Run pytest in a fresh copy of the tree with mutant spliced in.  Returns
    the outcome (passed, failed or timed out), the seconds taken and, when
    stop_first is false, the ids of the failing tests."""
    if tests is None:
        own = f"tests/test_{mutant.module}.py" if mutant else None
        files = sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py"))
        tests = [own] * (own in files) + [f for f in files if f != own]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if mutant:
            (copy / "src" / "lspacesat" / f"{mutant.module}.py").write_text(mutant.text, "utf-8")
        mode = ["-x", "-q"] if stop_first else ["-v", "-o", "console_output_style=classic"]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", *FLAGS, *mode, *tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            out = proc.communicate(timeout=timeout)[0]
            outcome = "passed" if proc.returncode == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out = proc.communicate()[0]
            outcome = "timed out"
        seconds = time.perf_counter() - started
    failing = [] if stop_first else [
        m[1] or m[2] for m in map(_FAILED.match, out.splitlines()) if m
    ]
    return outcome, seconds, failing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--matrix", metavar="FILE",
                        help="write each killed mutant's failing test ids to FILE as JSON")
    args = parser.parse_args(argv)
    mutants = all_mutants()
    workers = os.cpu_count() or 1
    started = time.perf_counter()
    outcome, clean, _ = run_tests(None)
    if outcome != "passed":
        print(f"the unmutated tree does not pass its tests ({outcome})", file=sys.stderr)
        return 2
    timeout = TIMEOUT_FACTOR * clean
    print(f"{len(mutants)} mutants; clean run {clean:.1f} s, timeout {timeout:.0f} s, "
          f"{workers} workers", flush=True)

    def first_pass(mutant):
        return run_tests(mutant, timeout=timeout)[0]

    by_outcome = {"failed": [], "passed": [], "timed out": []}
    with ThreadPoolExecutor(workers) as pool:
        for mutant, outcome in zip(mutants, pool.map(first_pass, mutants)):
            by_outcome[outcome].append(mutant)
    killed, survived, timed_out = by_outcome.values()
    print(f"killed {len(killed)}, survived {len(survived)}, timed out {len(timed_out)} "
          f"in {time.perf_counter() - started:.0f} s with {workers} workers")
    for mutant in survived:
        reason = EQUIVALENT.get(mutant.id)
        print(f"survived: {mutant}" + (f"  [equivalent: {reason}]" if reason else ""))
    for mutant in timed_out:
        print(f"timed out: {mutant}")
    if args.matrix:
        def matrix_row(mutant):
            return run_tests(mutant, stop_first=False, timeout=timeout)[2]

        with ThreadPoolExecutor(workers) as pool:
            rows = dict(zip((m.id for m in killed), pool.map(matrix_row, killed)))
        Path(args.matrix).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
        print(f"matrix of {len(rows)} killed mutants written to {args.matrix} "
              f"after {time.perf_counter() - started:.0f} s")
    return int(any(m.id not in EQUIVALENT for m in survived))


if __name__ == "__main__":
    sys.exit(main())
