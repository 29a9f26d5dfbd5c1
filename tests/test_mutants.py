"""The mutation harness, tests/mutants.py: its splices on a small source,
its reviewed equivalents against today's library, and one named mutant
of the library run against one test class."""

import os

import mutants

SOURCE = '''def f(x, y):
    if not x < 1 and y >= 2:  # ∞
        return "∞" if x > 0 else g(x, y)
'''


def test_each_operator_splices_one_token():
    """Positions count characters, not UTF-8 bytes, so the ∞ before a
    token does not move its splice; every other line stays as it is."""
    lines = SOURCE.splitlines()
    made = mutants.mutants_of("m", SOURCE)
    for m in made:
        rows = zip(lines, m.text.splitlines(), strict=True)
        assert [i for i, (a, b) in enumerate(rows) if a != b] == [m.line - 1]
    assert [(m.id, m.text.splitlines()[m.line - 1].strip()) for m in made] == [
        ("m.f#1", "if x < 1 and y >= 2:  # ∞"),
        ("m.f#2", "if not x <= 1 and y >= 2:  # ∞"),
        ("m.f#3", "if not x < 0 and y >= 2:  # ∞"),
        ("m.f#4", "if not x < 2 and y >= 2:  # ∞"),
        ("m.f#5", "if not x < 1 or y >= 2:  # ∞"),
        ("m.f#6", "if not x < 1 and y > 2:  # ∞"),
        ("m.f#7", "if not x < 1 and y >= 1:  # ∞"),
        ("m.f#8", "if not x < 1 and y >= 3:  # ∞"),
        ("m.f#9", 'return "∞" if x >= 0 else g(x, y)'),
        ("m.f#10", 'return "∞" if x > -1 else g(x, y)'),
        ("m.f#11", 'return "∞" if x > 1 else g(x, y)'),
        ("m.f#12", 'return "∞" if x > 0 else g(y, x)'),
    ]


def test_no_splice_makes_a_line_longer_than_100_characters():
    """9 -> 10 would; the swap keeps the length and 9 -> 8 shortens it."""
    source = f"x = f({'a' * 43}, {'b' * 44}) + 9\n"
    assert len(source) == 101
    assert [m.new for m in mutants.mutants_of("m", source)] == ["b" * 44 + ", " + "a" * 43, "8"]


def test_every_equivalent_mutant_is_still_made():
    made = {m.id for m in mutants.all_mutants()}
    assert sorted(set(mutants.EQUIVALENT) - made) == []
    assert all(reason and "\n" not in reason for reason in mutants.EQUIVALENT.values())


def listing():
    return sorted((d, sorted(f)) for d, _, f in os.walk(mutants.ROOT))


def test_a_named_mutant_is_killed_in_a_copy_of_the_tree():
    """q >= -1 -> q > -1 in the unknot branch of the exact cable criterion."""
    mutant = next(m for m in mutants.all_mutants() if m.id == "knots.cable_is_lspace_exact#9")
    assert (mutant.old, mutant.new) == (">=", ">")
    assert "return q > -1" in mutant.text.splitlines()[mutant.line - 1]
    before = listing()
    outcome, _, failing = mutants.run_tests(
        mutant, stop_first=False, tests=["tests/test_knots.py::TestCableCriterion"]
    )
    assert outcome == "failed" and failing
    assert listing() == before
