"""Counting polynomials, Euler characteristics via N(1), and zeta functions.

N(q) is proved by elimination, for every q, on a monomial blueprint, and
sampled as fallback on the rest: the F_q point counts are interpolated and
held-out samples verify the fit. The factored zeta function reads the q-basis
coefficients off as exponents of (s - i).
"""

from blueforge import catalog, counting_polynomial, fq_points, soule_zeta
from blueforge.counting import verify_point_over_ordered_semifield

for name in ("f1", "A1", "P1", "sl2"):
    obj = catalog.build(name)
    deg = {"f1": 0, "A1": 1, "P1": 1, "sl2": 3}[name]
    poly = counting_polynomial(obj, deg)
    zeta = soule_zeta(poly)
    print(f"{name:<4} N(q) = {poly.render():<14} zeta(s) = {zeta.render()}")

gr = catalog.grassmannian_f1(2, 4)
poly = counting_polynomial(gr, 4)
print("Gr(2,4): N(q) =", poly.render(), "  chi = N(1) =", poly(1))
print("samples used:", poly.sample_witness, "held out:", poly.held_out_witness)

# Counting is multiplicative on products of relation-free models.
assert fq_points(catalog.affine_space(3), 3) == 27

# Nonnegative rational points of the SL2 minors blueprint are exactly the
# totally non-negative determinant-1 matrices.
minors = catalog.sl2_minors()
print("(2,1;1,1) is TNN:",
      verify_point_over_ordered_semifield(minors, {"a": 2, "b": 1,
                                                   "c": 1, "d": 1}))
print("(1,1;1,1) fails:",
      not verify_point_over_ordered_semifield(minors, {"a": 1, "b": 1,
                                                       "c": 1, "d": 1}))
