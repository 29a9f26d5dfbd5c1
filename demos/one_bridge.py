"""1-bridge braid patterns and full twists.

B(w, b, t) is the braid word (σ_b ⋯ σ_1)(σ_{w-1} ⋯ σ_1)^t on w strands.
A full twist is w more passes of the strand cycle, so twisting B(w, b, t)
n times gives B(w, b, t + n·w): a positive word when t + n·w >= 0 and,
after free reduction, a negative one otherwise.
"""

from lspacesat import (
    BraidWord,
    braid_add_full_twists,
    braid_free_reduce,
    braid_sign,
    one_bridge_braid,
    positive_braid_closure_genus,
)

# B(5,2,3): the bridge s2 s1, then three passes s4 s3 s2 s1.
word = BraidWord(5, ((2, 1), (1, 1)) + ((4, 1), (3, 1), (2, 1), (1, 1)) * 3)
print("B(5,2,3) word:", " ".join(f"s{i}" for i, _ in word.letters))
print("sign:", braid_sign(word).value)
print("closure genus (Bennequin):", positive_braid_closure_genus(word))

pattern = one_bridge_braid(5, 2, 3)
print("\npattern:", pattern.name, "winding:", pattern.winding)

for n in (2, 1, 0, -1, -2):
    twisted = braid_free_reduce(braid_add_full_twists(word, n))
    facts = pattern.twisted_facts(n)
    status = "L-space knot" if facts.is_lspace else "negative L-space knot"
    print(
        f"  n={n:+d}: t+5n={3 + 5 * n:+3d}, {len(twisted.letters):2d} letters after "
        f"reduction, sign {braid_sign(twisted).value:8s} -> {status}"
    )

print("\nUntwisting cancels whole strand cycles: once t+5n < 0 the reduced")
print("word is all-negative, and its genus follows by mirror symmetry.")
