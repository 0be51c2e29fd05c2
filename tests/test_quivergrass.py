"""Quiver representations, naive F1-points, subrepresentation counts, and the
Euler-characteristic comparison theorems."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import quivergrass as qg
from blueforge.counting import SAMPLE_Q
from blueforge.fields import gf


def rep_1to2(matrix):
    q = qg.Quiver(2, ((0, 1),))
    return qg.IntegralRep(q, (2, 2), [matrix])


class TestIntegralRep:
    def test_entries_become_int_tuples(self):
        rep = rep_1to2([[1, 0], [0, -2]])
        assert rep.matrices == (((1, 0), (0, -2)),)

    @pytest.mark.parametrize("matrix", [[[1.5, 0], [0, 1]], [["1", 0], [0, 1]],
                                        [[1, 0], [0, None]]])
    def test_non_integer_entry_rejected(self, matrix):
        # 1.5 used to be truncated to 1 and "1" read as 1.
        with pytest.raises(ValueError, match="arrow 0->1 has an entry"):
            rep_1to2(matrix)

    @pytest.mark.parametrize("matrix", [[1, 0, 0, 1], [[1, 0]],
                                        [[1, 0], [0, 1, 0]]])
    def test_wrong_shape_rejected(self, matrix):
        with pytest.raises(ValueError, match="0->1 must be 2x2"):
            rep_1to2(matrix)

    @pytest.mark.parametrize("dims", [(2.0, 2), ("2", 2), 2])
    def test_non_integer_dims_rejected(self, dims):
        # A float dimension used to reach `range` and raise TypeError.
        with pytest.raises(ValueError, match="dims must be a list of integers"):
            qg.IntegralRep(qg.Quiver(2, ((0, 1),)), dims, [[[1, 0], [0, 1]]])

    @pytest.mark.parametrize("dims", [(-2,), (2, -1)])
    def test_negative_dims_rejected(self, dims):
        # A dimension of -2 used to give chi 0, a torus count of 1 and a
        # count of 1 over F_2, while naive points raised.
        arrows = ((0, 1),) if len(dims) == 2 else ()
        with pytest.raises(ValueError, match="dims must be nonnegative"):
            qg.IntegralRep(qg.Quiver(len(dims), arrows), dims,
                           [[]] * len(arrows))

    def test_integer_like_dims_become_ints(self):
        np = pytest.importorskip("numpy")
        rep = qg.IntegralRep(qg.Quiver(2, ((0, 1),)), np.array([2, 2]),
                             [np.eye(2, dtype=int)])
        assert rep.dims == (2, 2)
        assert all(type(d) is int for d in rep.dims)


@pytest.mark.parametrize("n,arrows,tree", [
    (1, (), True), (2, ((0, 1),), True), (3, ((1, 0), (1, 2)), True),
    (0, (), False), (2, ((0, 0),), False), (2, ((0, 1), (1, 0)), False),
    (3, ((0, 1),), False), (4, ((0, 1), (1, 2), (2, 0)), False)])
def test_underlying_is_tree(n, arrows, tree):
    assert qg.Quiver(n, arrows).underlying_is_tree() is tree


class TestF1Reps:
    def test_identity_singleton(self):
        q = qg.Quiver(2, ((0, 1),))
        rep = qg.F1Rep(q, (1, 1), [{0: 0}])
        integral = qg.f1_rep_to_integral(rep)
        assert integral.matrices[0] == ((1,),)

    def test_fiber_of_size_two_rejected(self):
        q = qg.Quiver(2, ((0, 1),))
        with pytest.raises(ValueError):
            qg.F1Rep(q, (2, 1), [{0: 0, 1: 0}])

    def test_rejection_is_exactly_the_fiber_condition(self):
        # fibres over the base point may be arbitrarily large
        q = qg.Quiver(2, ((0, 1),))
        rep = qg.F1Rep(q, (3, 1), [{0: None, 1: None, 2: 0}])
        mat = qg.f1_rep_to_integral(rep).matrices[0]
        assert mat == ((0, 0, 1),)

    def test_map_to_base_point_gives_zero_column(self):
        q = qg.Quiver(2, ((0, 1),))
        rep = qg.F1Rep(q, (1, 1), [{0: None}])
        assert qg.f1_rep_to_integral(rep).matrices[0] == ((0,),)


class TestNaivePoints:
    def test_scaled_identity_has_none(self):
        assert qg.naive_f1_points(rep_1to2([[2, 0], [0, 2]]), (1, 1)) == []

    def test_identity_has_two(self):
        pts = qg.naive_f1_points(rep_1to2([[1, 0], [0, 1]]), (1, 1))
        assert len(pts) == 2

    def test_equioriented_a3(self):
        q = qg.Quiver(3, ((0, 1), (1, 2)))
        rep = qg.IntegralRep(q, (1, 2, 1), [[[1], [0]], [[1, 0]]])
        assert len(qg.naive_f1_points(rep, (1, 1, 1))) == 1

    def test_naive_points_are_subreps_over_f2(self):
        rng = random.Random(5)
        field = gf(2)
        for _ in range(20):
            nv = rng.randrange(1, 4)
            arrows = tuple((i, i + 1) for i in range(nv - 1))
            q = qg.Quiver(nv, arrows)
            d = rng.randrange(1, 4)
            mats = []
            for _ in arrows:
                m = [[0] * d for _ in range(d)]
                cols = list(range(d))
                rng.shuffle(cols)
                for r, c in enumerate(cols):
                    m[r][c] = rng.choice([0, 1])
                mats.append(m)
            rep = qg.IntegralRep(q, (d,) * nv, mats)
            e = tuple(rng.randrange(0, d + 1) for _ in range(nv))
            for family in qg.naive_f1_points(rep, e):
                for (s, t), m in zip(arrows, mats):
                    for b in family[s]:
                        img = [row[b] % 2 for row in m]
                        basis_rows = [[1 if k == c else 0 for k in range(d)]
                                      for c in sorted(family[t])]
                        assert not any(qg._reduce_vec(field, basis_rows, img))


class TestSubrepCounts:
    def test_gaussian_binomial(self):
        q = qg.Quiver(1, ())
        rep = qg.IntegralRep(q, (4,), [])
        assert qg.subrep_count_fq(rep, (2,), 2) == 35

    def test_identity_diagonal_of_p1(self):
        assert qg.subrep_count_fq(rep_1to2([[1, 0], [0, 1]]), (1, 1), 3) == 4

    def test_whole_rep(self):
        assert qg.subrep_count_fq(rep_1to2([[1, 0], [0, 1]]), (2, 2), 3) == 1

    def test_arrow_free_factorizes(self):
        q = qg.Quiver(2, ())
        rep = qg.IntegralRep(q, (3, 2), [])
        for qq in (2, 3):
            f = qg.subrep_count_fq(rep, (1, 1), qq)
            single3 = qg.subrep_count_fq(
                qg.IntegralRep(qg.Quiver(1, ()), (3,), []), (1,), qq)
            single2 = qg.subrep_count_fq(
                qg.IntegralRep(qg.Quiver(1, ()), (2,), []), (1,), qq)
            assert f == single3 * single2


    def test_entry_above_dimension_counts_zero(self):
        rep = rep_1to2([[1, 0], [0, 1]])
        for q in (2, 3):
            assert qg.subrep_count_fq(rep, (3, 1), q) == 0
            assert qg.subrep_count_fq(rep, (1, 3), q) == 0
        free = qg.IntegralRep(qg.Quiver(2, ()), (2, 1), [])
        assert qg.subrep_count_fq(free, (1, 2), 3) == 0

    def test_chi_of_entry_above_dimension_is_zero(self):
        # The degree bound sum e_i (d_i - e_i) is negative here; the fit
        # used to get an empty sample and raise NotPolynomial.
        rep = rep_1to2([[1, 0], [0, 1]])
        for e in ((3, 1), (1, 3), (3, 3), (0, 3)):
            assert qg.chi_via_interpolation(rep, e) == 0
        free = qg.IntegralRep(qg.Quiver(2, ()), (2, 1), [])
        assert qg.chi_via_interpolation(free, (1, 2)) == 0


class TestDimensionVector:
    """A dimension vector needs one nonnegative entry per vertex; a short
    one used to be zipped against the dimensions and silently truncated."""

    free = qg.IntegralRep(qg.Quiver(2, ()), (2, 2), [])
    tree = rep_1to2([[1, 0], [0, 1]])

    @pytest.mark.parametrize("e", [(1,), (1, 1, 1), ()])
    def test_wrong_length(self, e):
        calls = [lambda: qg.subrep_count_fq(self.free, e, 3),
                 lambda: qg.chi_via_interpolation(self.free, e),
                 lambda: qg.weyl_count_diagonal_tree(self.tree, e),
                 lambda: qg.naive_f1_points(self.tree, e)]
        for call in calls:
            with pytest.raises(ValueError, match="one entry per vertex"):
                call()

    def test_negative_entry(self):
        calls = [lambda: qg.subrep_count_fq(self.free, (1, -1), 3),
                 lambda: qg.chi_via_interpolation(self.free, (-1, 1)),
                 lambda: qg.weyl_count_diagonal_tree(self.tree, (1, -1)),
                 lambda: qg.naive_f1_points(self.tree, (-1, 0))]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("e", [(1.0, 1), (1, "1"), 1])
    def test_non_integer_entry(self, e):
        # A float entry used to reach `combinations` and raise TypeError.
        calls = [lambda: qg.subrep_count_fq(self.free, e, 3),
                 lambda: qg.chi_via_interpolation(self.free, e),
                 lambda: qg.weyl_count_diagonal_tree(self.tree, e),
                 lambda: qg.naive_f1_points(self.tree, e)]
        for call in calls:
            with pytest.raises(ValueError, match="entries must be integers"):
                call()


def _int_to_field(field, c):
    out = 0
    for _ in range(c % field.p):
        out = field.add(out, 1)
    return out


def reference_subrep_count_fq(rep, e, q):
    """The family loop `subrep_count_fq` used before the per-arrow tables:
    every element of the product of the vertices' RREF grids, each arrow
    checked by a matrix-vector product and a reduction."""
    e = tuple(e)
    field = gf(q)
    mats = [[[_int_to_field(field, x) for x in row] for row in m]
            for m in rep.matrices]
    grids = [qg._rref_bases(d, k, q) for d, k in zip(rep.dims, e)]
    count = 0
    for family in itertools.product(*grids):
        ok = True
        for (s, t), m in zip(rep.quiver.arrows, mats):
            target_rows = family[t]
            for v in family[s]:
                img = [0] * rep.dims[t]
                for row in range(rep.dims[t]):
                    acc = 0
                    for col in range(rep.dims[s]):
                        if m[row][col] and v[col]:
                            acc = field.add(acc, field.mul(m[row][col], v[col]))
                    img[row] = acc
                if any(qg._reduce_vec(field, target_rows, img)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


@st.composite
def random_reps(draw, entry=st.one_of(st.integers(-3, 3),
                                      st.sampled_from([2, 3, 4, 6, 9, -6]))):
    """Up to three vertices of dimension 1..3 and up to four arrows, loops,
    cycles and parallel arrows allowed, with entries drawn from `entry`: by
    default often multiples of a small prime."""
    nv = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    arrows = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=4)))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=nv, max_size=nv)))
    mats = [draw(st.lists(st.lists(entry, min_size=dims[s], max_size=dims[s]),
                          min_size=dims[t], max_size=dims[t]))
            for s, t in arrows]
    e = tuple(draw(st.integers(0, d)) for d in dims)
    return qg.IntegralRep(qg.Quiver(nv, arrows), dims, mats), e


class TestSubrepCountAgainstReference:
    @given(case=random_reps())
    @settings(max_examples=150, deadline=None)
    def test_random_quivers(self, case):
        rep, e = case
        for q in SAMPLE_Q:
            families = 1
            for d, k in zip(rep.dims, e):
                families *= _gauss(d, k, q)
            if families > 3000:
                continue
            assert qg.subrep_count_fq(rep, e, q) == \
                reference_subrep_count_fq(rep, e, q)

    @pytest.mark.parametrize("arrows, mats", [
        # a loop, a two-cycle and a parallel pair, each with a
        # non-square or rank-deficient matrix
        (((0, 0), (0, 1)), [[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                            [[1, 1, 0], [0, 2, 1]]]),
        (((0, 1), (1, 0)), [[[1, 0, 3], [0, 1, 1]], [[1, 0], [0, 0], [1, 1]]]),
        (((1, 0), (1, 0)), [[[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]]]),
    ])
    def test_fixed_quivers(self, arrows, mats):
        dims = (3, 2)
        rep = qg.IntegralRep(qg.Quiver(2, arrows), dims, mats)
        for e in itertools.product(range(4), range(3)):
            for q in (2, 3, 4, 5):
                assert qg.subrep_count_fq(rep, e, q) == \
                    reference_subrep_count_fq(rep, e, q)

    def test_gaussian_binomials(self):
        for d in range(1, 5):
            rep = qg.IntegralRep(qg.Quiver(1, ()), (d,), [])
            for k in range(d + 1):
                for q in SAMPLE_Q:
                    assert qg.subrep_count_fq(rep, (k,), q) == _gauss(d, k, q)


def reference_good_sample_q(rep):
    """The trial-division filter that `qg.good_sample_q` replaced."""
    bad = set()
    for x in {abs(x) for m in rep.matrices for row in m for x in row}:
        d = 2
        while d * d <= x:
            if x % d == 0:
                bad.add(d)
                while x % d == 0:
                    x //= d
            d += 1
        if x > 1:
            bad.add(x)
    return [q for q in SAMPLE_Q if gf(q).p not in bad]


class TestGoodSampleQ:
    @given(case=random_reps(entry=st.integers(-400, 400)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        rep, _ = case
        assert qg.good_sample_q(rep) == reference_good_sample_q(rep)

    def test_huge_entries(self):
        # no entry is factored: a 20-digit prime entry returns at once
        p = 2 ** 64 - 59
        assert qg.good_sample_q(rep_1to2([[p, 0], [0, 1]])) == list(SAMPLE_Q)
        assert qg.good_sample_q(rep_1to2([[p, 0], [0, 2 ** 80 * 3]])) == \
            [q for q in SAMPLE_Q if gf(q).p not in (2, 3)]


class TestChi:
    def test_counterexample_chi_two(self):
        rep = rep_1to2([[2, 0], [0, 2]])
        assert qg.naive_f1_points(rep, (1, 1)) == []
        assert qg.chi_via_interpolation(rep, (1, 1)) == 2

    def test_gaussian_chi(self):
        rep = qg.IntegralRep(qg.Quiver(1, ()), (4,), [])
        assert qg.chi_via_interpolation(rep, (2,)) == 6

    def test_zero_dimension_vector(self):
        rep = rep_1to2([[1, 0], [0, 1]])
        assert qg.chi_via_interpolation(rep, (0, 0)) == 1

    @pytest.mark.xfail(strict=True, raises=qg.NotPolynomial,
                       reason="good_sample_q keeps q = 2, 4, 8, where the "
                       "eigenvalues -1 and 3 meet (CHANGES.md FOUND on "
                       "quivergrass.good_sample_q)")
    def test_loop_with_eigenvalues_meeting_at_two(self):
        # two eigenlines over C, one over F_q where -1 = 3 (q = 2, 4, 8)
        rep = qg.IntegralRep(qg.Quiver(1, ((0, 0),)), (2,), [[[-1, 1], [0, 3]]])
        assert [qg.subrep_count_fq(rep, (1,), q) for q in SAMPLE_Q] == \
            [1, 2, 1, 2, 2, 1, 2]
        assert qg.good_sample_q(rep) == [2, 4, 5, 7, 8]
        assert qg.chi_via_interpolation(rep, (1,)) == 2


class TestWeylCount:
    def test_diag_23(self):
        rep = rep_1to2([[2, 0], [0, 3]])
        assert qg.weyl_count_diagonal_tree(rep, (1, 1)) == 2
        assert qg.naive_f1_points(rep, (1, 1)) == []

    def test_identity_matches_naive(self):
        rep = rep_1to2([[1, 0], [0, 1]])
        assert qg.weyl_count_diagonal_tree(rep, (1, 1)) == \
            len(qg.naive_f1_points(rep, (1, 1)))

    def test_hypothesis_violations(self):
        non_tree = qg.Quiver(2, ((0, 1), (1, 0)))
        rep = qg.IntegralRep(non_tree, (1, 1), [[[1]]] * 2)
        with pytest.raises(qg.HypothesisViolated):
            qg.weyl_count_diagonal_tree(rep, (1, 1))
        rep2 = rep_1to2([[0, 1], [1, 0]])
        with pytest.raises(qg.HypothesisViolated):
            qg.weyl_count_diagonal_tree(rep2, (1, 1))
        rep3 = rep_1to2([[0, 0], [0, 2]])
        with pytest.raises(qg.HypothesisViolated):
            qg.weyl_count_diagonal_tree(rep3, (1, 1))

    def test_star_quiver_cross_check(self):
        star = qg.Quiver(3, ((0, 1), (2, 1)))
        rep = qg.IntegralRep(star, (2, 2, 2), [[[1, 0], [0, 1]]] * 2)
        e = (1, 1, 1)
        assert qg.weyl_count_diagonal_tree(rep, e) == \
            qg.chi_via_interpolation(rep, e) == \
            qg._interpolated_chi(rep, e) == \
            len(qg.naive_f1_points(rep, e))


def two_vertex_rep(dims, arrows, mats):
    return qg.IntegralRep(qg.Quiver(2, arrows), dims, mats)


class TestSeparatingGrading:
    @pytest.mark.parametrize("rep", [
        # identity: one component per basis index
        rep_1to2([[1, 0], [0, 1]]),
        # a nilpotent Jordan block on a loop: weights 1 and 0, shift 1
        qg.IntegralRep(qg.Quiver(1, ((0, 0),)), (2,), [[[0, 1], [0, 0]]]),
        # an identity loop: the cycle forces shift 0, but every basis
        # vector is its own component
        qg.IntegralRep(qg.Quiver(1, ((0, 0),)), (2,), [[[1, 0], [0, 1]]]),
        # two loops b1 -> b0 and b0 -> b1: the cycle forces d(a) = -d(b),
        # which still leaves w(0) - w(1) = d(a) free
        qg.IntegralRep(qg.Quiver(1, ((0, 0), (0, 0))), (2,),
                       [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]),
        # the Kronecker quiver with one entry per arrow
        two_vertex_rep((2, 1), ((0, 1), (0, 1)), [[[1, 0]], [[0, 1]]]),
        # no arrows, or dimension 1 everywhere
        qg.IntegralRep(qg.Quiver(1, ()), (4,), []),
        two_vertex_rep((1, 1), ((0, 1), (1, 0)), [[[2]], [[3]]]),
    ])
    def test_separated(self, rep):
        assert qg.has_separating_grading(rep)

    @pytest.mark.parametrize("rep", [
        # a shear: b0 and b1 at the source both map to b0 at the target
        rep_1to2([[1, 1], [0, 1]]),
        # both target vectors receive the same source vector
        two_vertex_rep((3, 2), ((0, 1),), [[[0, 0, 1], [0, 0, 3]]]),
        # a third Kronecker arrow [1, 1] closes two cycles whose span holds
        # the potential difference of the two source vectors
        two_vertex_rep((2, 1), ((0, 1),) * 3, [[[1, 0]], [[0, 1]], [[1, 1]]]),
        # a full loop matrix
        qg.IntegralRep(qg.Quiver(1, ((0, 0),)), (2,), [[[1, 1], [1, 1]]]),
    ])
    def test_not_separated(self, rep):
        assert not qg.has_separating_grading(rep)

    def test_weyl_hypotheses_separate(self):
        rng = random.Random(7)
        for _ in range(20):
            rep, _e = random_tree_instance(rng, [1, -1, 5, -5])
            assert qg.has_separating_grading(rep)


class TestLocalisedChi:
    @given(case=random_reps(entry=st.sampled_from([0, 0, 0, 1, -1, 2, 3])))
    @settings(max_examples=200, deadline=None)
    def test_matches_interpolation(self, case):
        rep, e = case
        try:
            want = qg._interpolated_chi(rep, e)
        except (qg.TooLarge, qg.NotPolynomial):
            return
        assert qg.chi_via_interpolation(rep, e) == want

    @pytest.mark.parametrize("arrows, mats", [
        (((0, 0), (0, 1)), [[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                            [[1, 0, 0], [0, 0, -1]]]),
        (((0, 1), (1, 0)), [[[1, 0, 0], [0, 0, -1]], [[0, 1], [0, 0], [0, 0]]]),
        (((1, 0), (1, 0)), [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 1]]]),
    ])
    def test_fixed_separated_quivers(self, arrows, mats):
        # a loop, a two-cycle and a parallel pair, each with a non-square
        # or rank-deficient matrix
        rep = two_vertex_rep((3, 2), arrows, mats)
        assert qg.has_separating_grading(rep)
        for e in itertools.product(range(4), range(3)):
            assert qg.chi_via_interpolation(rep, e) == \
                qg._interpolated_chi(rep, e)

    def test_non_separated_case_still_interpolates(self):
        # P^1 x P^1 over the kernel and A^2 over the image line: chi 5,
        # but only 4 coordinate subrepresentations.
        rep = two_vertex_rep((3, 2), ((0, 1),), [[[0, 0, 1], [0, 0, 3]]])
        assert qg._coordinate_subrep_count(rep, (1, 1)) == 4
        assert qg._interpolated_chi(rep, (1, 1)) == 5
        assert qg.chi_via_interpolation(rep, (1, 1)) == 5

    @pytest.mark.parametrize("rep, e, chi", [
        # too few good prime powers: entries 2 and 3 leave 5 and 7
        (rep_1to2([[2, 0], [0, 3]]), (1, 1), 2),
        # degree bound 6 above the seven sample q
        (qg.IntegralRep(qg.Quiver(2, ()), (4, 3), []), (2, 1), 18),
        # a vertex of dimension 5
        (qg.IntegralRep(qg.Quiver(1, ()), (5,), []), (1,), 5),
        # counts not polynomial: the eigenvalues -1 and 3 meet in
        # characteristic 2, which divides no entry
        (qg.IntegralRep(qg.Quiver(1, ((0, 0),)), (2,), [[[-1, 0], [0, 3]]]),
         (1,), 2),
    ])
    def test_answers_where_interpolation_cannot(self, rep, e, chi):
        with pytest.raises((qg.TooLarge, qg.NotPolynomial)):
            qg._interpolated_chi(rep, e)
        assert qg.chi_via_interpolation(rep, e) == chi

    def test_too_many_families_raise_before_listing(self):
        # C(18, 9) = 48620 per vertex, 2.4e9 families in all
        rep = qg.IntegralRep(qg.Quiver(2, ()), (18, 18), [])
        with pytest.raises(qg.TooLarge, match="coordinate families"):
            qg.chi_via_interpolation(rep, (9, 9))


def random_tree_instance(rng, diagonal_pool):
    """A tree quiver with square matrices, small enough that interpolation
    over the good prime powers is exact."""
    while True:
        nv = rng.randrange(1, 5)
        if nv <= 2:
            d = rng.randrange(1, 5)
        else:
            d = rng.randrange(1, 3)
        edges = []
        for child in range(1, nv):
            parent = rng.randrange(0, child)
            if rng.random() < 0.5:
                edges.append((parent, child))
            else:
                edges.append((child, parent))
        quiver = qg.Quiver(nv, tuple(edges))
        mats = [_diag([rng.choice(diagonal_pool) for _ in range(d)])
                for _ in edges]
        rep = qg.IntegralRep(quiver, (d,) * nv, mats)
        e = tuple(rng.randrange(0, d + 1) for _ in range(nv))
        bound = sum(ei * (d - ei) for ei in e)
        qs = qg.good_sample_q(rep)
        if bound + 2 > len(qs):
            continue
        cost = 1
        for ei in e:
            cost *= _gauss(d, ei, max(qs))
        if cost > 20000:
            continue
        return rep, e


def _diag(entries):
    return [[x if i == j else 0 for j in range(len(entries))]
            for i, x in enumerate(entries)]


def _gauss(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class TestRandomizedComparisons:
    def test_corollary_identity_instances(self):
        rng = random.Random(2024)
        for _ in range(12):
            rep, e = random_tree_instance(rng, [1])
            naive = len(qg.naive_f1_points(rep, e))
            weyl = qg.weyl_count_diagonal_tree(rep, e)
            chi = qg._interpolated_chi(rep, e)
            assert naive == weyl == chi
            assert qg.chi_via_interpolation(rep, e) == chi

    def test_theorem_diagonal_instances(self):
        rng = random.Random(42)
        for _ in range(12):
            rep, e = random_tree_instance(rng, [1, -1, 5, -5])
            weyl = qg.weyl_count_diagonal_tree(rep, e)
            chi = qg._interpolated_chi(rep, e)
            assert weyl == chi
            assert qg.chi_via_interpolation(rep, e) == chi
