"""The worked certification: the (2,3)-cable of the trefoil.

The pipeline picks twisting parameters (a, b, r) = (2, 7, 13), shows the
closed arc [1/2 → ∞ → 1/7] of L-space filling slopes on the 13-surgered
pattern side, transports its interior through the meridian-longitude
swap p/q ↦ q/p, and checks that together with the trefoil's strict
L-space slopes (1, ∞) it covers the whole circle of gluing slopes.
"""

from lspacesat import (
    Arc,
    Certificate,
    Slope,
    SlopeSet,
    certify_satellite,
    meridian_longitude_swap,
    render_statement,
    replay_certificate,
    torus_knot,
    torus_pattern,
)

pattern = torus_pattern(2, 3)
trefoil = torus_knot(2, 3)

cert = certify_satellite(pattern, trefoil)
print("verdict:", cert.verdict)
print("params:", cert.params)
# The certificate records each fact once: the arc follows from params,
# the lemma checks hold only the sides they compare (a, b and r are read
# off params, w off thm1.2), and the cover check holds the two strict
# sets it joins.
arc = SlopeSet.from_arcs([Arc(Slope(1, cert.params.a), Slope(1, cert.params.b))])
cover = cert.checks[-1]["values"]
print("pattern-side closed arc:    ", arc)
print("companion strict slopes s1: ", cover["s1"])
print("glued strict image s2:      ", cover["s2"])

# A certificate stores each check's id, pass and values; its statement is
# rendered from them.
print("\naudit trail:")
for check in cert.checks:
    mark = "ok " if check["pass"] else "FAIL"
    print(f"  [{mark}] {check['id']:16s} {render_statement(check)}")

# The gluing map acts by reciprocal and is its own inverse: swapping the
# glued image back gives the interior of the pattern arc.
h = meridian_longitude_swap()
print("\nswap of s2:", h.image_of_set(SlopeSet.parse(cover["s2"])))

# A certificate is the text to_json writes; replay reads its pattern and
# companion back, re-runs the pipeline and compares the re-run's text.
text = cert.to_json()
print("\nreplayed verdict:", replay_certificate(Certificate.from_json(text)))
print("certificate bytes:", len(text))
