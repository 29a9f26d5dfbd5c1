"""The worked certification: the (2,3)-cable of the trefoil.

The pipeline picks twisting parameters (a, b, r) = (2, 7, 13), shows the
closed arc [1/2 → ∞ → 1/7] of L-space filling slopes on the 13-surgered
pattern side, transports its interior through the meridian-longitude
swap p/q ↦ q/p, and checks that together with the trefoil's strict
L-space slopes (1, ∞) it covers the whole circle of gluing slopes.
"""

from lspacesat import (
    SlopeSet,
    certify_satellite,
    meridian_longitude_swap,
    replay_certificate,
    torus_knot,
    torus_pattern,
)

pattern = torus_pattern(2, 3)
trefoil = torus_knot(2, 3)

cert = certify_satellite(pattern, trefoil)
print("verdict:", cert.verdict)
print("params:", cert.params)
print("companion L-space slopes:", cert.companion_set)
print("pattern-side closed arc:", cert.pattern_side_set)
print("glued strict image:     ", cert.glued_image)

print("\naudit trail:")
for check in cert.checks:
    mark = "ok " if check["pass"] else "FAIL"
    print(f"  [{mark}] {check['id']:16s} {check['statement']}")

# The gluing map acts by reciprocal; watch the arc endpoints transport.
h = meridian_longitude_swap()
side = SlopeSet.parse(cert.pattern_side_set)
print("\nswap image of the pattern arc:", h.image_of_set(side))

# Certificates are self-contained JSON and replay to the same verdict.
replayed = replay_certificate(cert)
print("\nreplayed verdict:", replayed)
print("certificate bytes:", len(cert.to_json()))
