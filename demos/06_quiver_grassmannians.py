"""Quiver Grassmannians: naive F1-points versus the Euler characteristic.

The scaled identity on the quiver 1 -> 2 has no naive F1-points although its
quiver Grassmannian is P^1 (chi = 2); the torus-fixed support count repairs
this for trees with invertible diagonal matrices.
"""

from blueforge import quivergrass as qg

quiver = qg.Quiver(2, ((0, 1),))
e = (1, 1)
identity2 = [[1, 0], [0, 1]]

scaled = qg.IntegralRep(quiver, (2, 2), [[[2, 0], [0, 2]]])
print("diag(2,2): naive F1-points:", len(qg.naive_f1_points(scaled, e)),
      " chi =", qg.chi_via_interpolation(scaled, e))

identity = qg.IntegralRep(quiver, (2, 2), [identity2])
print("identity:  naive F1-points:", len(qg.naive_f1_points(identity, e)),
      " chi =", qg.chi_via_interpolation(identity, e),
      " torus count =", qg.weyl_count_diagonal_tree(identity, e))

# diag(2,3) still has torus count 2 although no naive points survive. A
# grading separates its basis, so its chi is that count too; fitting F_q
# counts would need four good prime powers, and entries {2,3} leave 5 and 7.
mixed = qg.IntegralRep(quiver, (2, 2), [[[2, 0], [0, 3]]])
print("diag(2,3): naive =", len(qg.naive_f1_points(mixed, e)),
      " torus count =", qg.weyl_count_diagonal_tree(mixed, e))
five = qg.IntegralRep(quiver, (2, 2), [[[5, 0], [0, 5]]])
print("diag(5,5): torus count =", qg.weyl_count_diagonal_tree(five, e),
      " chi =", qg.chi_via_interpolation(five, e))

# Counting runs over canonical reduced-row-echelon representatives.
free4 = qg.IntegralRep(qg.Quiver(1, ()), (4,), [])
print("[4 choose 2]_2 =", qg.subrep_count_fq(free4, (2,), 2),
      " chi of Gr(2,4) =", qg.chi_via_interpolation(free4, (2,)))

# A star quiver with identity maps: all three computations agree.
star = qg.Quiver(3, ((0, 1), (2, 1)))
rep = qg.IntegralRep(star, (2, 2, 2), [identity2] * 2)
print("star quiver:",
      len(qg.naive_f1_points(rep, (1, 1, 1))),
      qg.weyl_count_diagonal_tree(rep, (1, 1, 1)),
      qg.chi_via_interpolation(rep, (1, 1, 1)))
