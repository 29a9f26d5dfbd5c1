"""A tour of exact slope arithmetic on the projective circle QP^1.

Slopes p/q are points of QP^1 = Q ∪ {∞}; the circular order runs through
the rationals and wraps around through ∞.  Everything below is exact
integer arithmetic — no floats anywhere.
"""

from lspacesat import INFINITY, Slope, farey_enumerate, slope_ccw, slope_det

# Normalization: slopes reduce to coprime pairs with nonnegative
# denominator, so 6/4 and -3/-2 name the same point.
print("6/4  ==", Slope(6, 4))
print("-3/-2 ==", Slope(-3, -2))
assert Slope(6, 4) == Slope(-3, -2) == Slope(3, 2)

# The determinant p1*q2 - p2*q1 is the exact comparison primitive.
print("\ndet(1/2, 2/3) =", slope_det(Slope(1, 2), Slope(2, 3)))

# Counterclockwise order wraps through ∞: 2 < 5 < ∞ < -1 reading around.
print("ccw(2, 5, ∞):", slope_ccw(Slope(2), Slope(5), INFINITY))
print("ccw(5, ∞, -1):", slope_ccw(Slope(5), INFINITY, Slope(-1)))
print("ccw(∞, -1, 2):", slope_ccw(INFINITY, Slope(-1), Slope(2)))

# The Farey ball holds every reduced fraction of bounded height,
# circularly ordered starting at the meridian ∞; its slopes in [0, 1]
# are F_5, in increasing order.
f5 = [x for x in farey_enumerate(5) if 0 <= x.num <= x.den]
print("\nF_5 on [0,1]:", " ".join(str(x) for x in f5))

ball = farey_enumerate(3)
print("Farey ball |p|,|q| <= 3 (from ∞):", " ".join(str(x) for x in ball))
