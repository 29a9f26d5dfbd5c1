"""Braid words in the solid torus and genus of positive braid closures.

Words are sequences of (generator index, ±1) letters in the Artin
generators σ_1 .. σ_{w-1}.  The engine calls only closure_components,
the cycle count of a strand permutation, from the knot check in
patterns._BraidPattern.__init__, which one_bridge_braid, replay and
dataclasses.replace all reach; it builds the permutation of B(w, b, t)
in O(w) and no word.  The rest (the permutation a word induces, free
reduction, literal sign classification, mirror, full twists, and the
Bennequin genus (c - w + 1)/2 of a positive braid closure that is a
knot) is the reference that the knot check and the twist facts patterns
derives in closed form are tested against, and the benchmark's tracer
wraps it.  No normal forms or word problem machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class BraidSign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError("need at least 2 strands")
        # Each distinct letter once, in the order of first occurrence.
        for idx, sign in dict.fromkeys(self.letters):
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(f"generator index {idx} out of range")
            if sign not in (-1, 1):
                raise ValueError(f"letter sign must be ±1, got {sign}")


def braid_free_reduce(bw: BraidWord) -> BraidWord:
    """Delete adjacent inverse pairs until none remain."""
    stack: list[tuple[int, int]] = []
    for letter in bw.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(bw.strands, tuple(stack))


def braid_mirror(bw: BraidWord) -> BraidWord:
    """Flip every crossing sign (the mirror diagram)."""
    return BraidWord(bw.strands, tuple((idx, -sign) for idx, sign in bw.letters))


def braid_add_full_twists(bw: BraidWord, n: int) -> BraidWord:
    """Append |n| full twists: (σ_{w-1} ⋯ σ_1)^{n·w} as a group element.

    For n < 0 the appended word is the formal inverse
    (σ_1^{-1} ⋯ σ_{w-1}^{-1})^{|n|·w}, so that twisting by n and then by
    -n freely reduces back to the original word.
    """
    if n == 0:
        return bw
    w = bw.strands
    if n > 0:
        block = [(i, 1) for i in range(w - 1, 0, -1)]
    else:
        block = [(i, -1) for i in range(1, w)]
    return BraidWord(bw.strands, bw.letters + tuple(block * (abs(n) * w)))


def braid_sign(bw: BraidWord) -> BraidSign:
    """Literal sign classification of the freely reduced word."""
    reduced = braid_free_reduce(bw)
    if not reduced.letters:
        return BraidSign.TRIVIAL
    signs = {sign for _, sign in reduced.letters}
    if signs == {1}:
        return BraidSign.POSITIVE
    if signs == {-1}:
        return BraidSign.NEGATIVE
    return BraidSign.MIXED


def closure_permutation(bw: BraidWord) -> tuple[int, ...]:
    """Strand permutation of the braid, bottom to top (0-based)."""
    perm = list(range(bw.strands))
    for idx, _ in bw.letters:
        perm[idx - 1], perm[idx] = perm[idx], perm[idx - 1]
    return tuple(perm)


def closure_components(perm: Sequence[int]) -> int:
    """Number of cycles of the strand permutation perm, which sends
    strand i to perm[i]: the number of components of the closure."""
    seen = bytearray(len(perm))
    count = 0
    i = seen.find(0)
    while i >= 0:
        count += 1
        j = i
        while not seen[j]:
            seen[j] = 1
            j = perm[j]
        i = seen.find(0, i + 1)
    return count


def positive_braid_closure_genus(bw: BraidWord) -> int:
    """Seifert genus (c - w + 1)/2 of the closure of a positive braid
    word whose closure is a knot (Bennequin equality)."""
    reduced = braid_free_reduce(bw)
    sign = braid_sign(reduced)
    if sign not in (BraidSign.POSITIVE, BraidSign.TRIVIAL):
        raise ValueError(f"word is {sign.value}, not positive")
    if closure_components(closure_permutation(reduced)) != 1:
        raise ValueError("closure has more than one component")
    c = len(reduced.letters)
    w = reduced.strands
    assert (c - w + 1) % 2 == 0, "knot closure forces c ≡ w - 1 (mod 2)"
    return (c - w + 1) // 2
