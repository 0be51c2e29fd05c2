"""Congruence spectra and K0 of blue-module categories.

Congruences are partitions compatible with multiplication and the
pre-addition; a blueprint generally has more prime congruences than prime
ideals, with the absorbing ideal mapping CSpec onto Spec. K0 is presented by
projective isomorphism classes and normal short exact sequences.
"""

from blueforge import catalog
from blueforge import congruence as cg
from blueforge import kzero as kz

f12 = catalog.f1_squared()
C = cg.cspec(f12)
print("prime congruences of F1^2:", [repr(c) for c in C.points])
sign = next(c for c in C.points if len(c.partition) == 2)
rf = cg.residue_field_of_congruence(f12, sign)
print("residue field of the sign collapse:", rf.carrier(),
      "with 1+1 = 0:", rf.relations != ())

# On a semiring table the prime congruences come with the pushed addition:
# the residue fields of F2 x F3 are the semirings F2 and F3.
r = catalog.product_ring(2, 3)
fields = [cg.residue_field_of_congruence(r, c) for c in cg.cspec(r).points]
print("residue fields of F2 x F3:", [f.carrier() for f in fields],
      "semirings:", all(f.is_semiring for f in fields))

idem = catalog.idempotent_example()
C2, X2, mapping = cg.cspec_to_spec(idem)
print("CSpec{0,e,1} ->", [repr(c) for c in C2.points])
print("absorbing-ideal map onto Spec:", mapping, "surjective:",
      set(mapping.values()) == set(range(len(X2))))

# Blue modules over {0,e,1}: the ideal {0,e} is projective but not free.
be = kz.BlueModule(idem, ("x",), {("e", "x"): "x"}, name="Be")
print("Be projective:", kz.is_projective(be), " free:", kz.is_free(be))

for name, bp, bound in (("F1", catalog.f1(), 6),
                        ("F1^3", catalog.f1n(3), 7),
                        ("{0,e,1}", idem, 6)):
    print(f"K0({name}) =", kz.k0(bp, bound))
