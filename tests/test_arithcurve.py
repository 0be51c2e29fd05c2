"""The compactified arithmetic curve over Q."""

import math
import random
import time
from fractions import Fraction

import pytest

from blueforge import arithcurve as ac
from blueforge import catalog
from blueforge.core import BlueprintError, finite_blueprints_isomorphic


def finite_restriction_matches_spec_z(k=5):
    """The restriction to finite places is the poset of Spec Z truncated to
    the first k primes: one generic point under k closed points."""
    places = [pl for pl in ac.curve_places(k) if pl.kind != "arch"]
    generic = [pl for pl in places if pl.kind == "generic"]
    closed = [pl for pl in places if pl.kind == "finite"]
    if len(generic) != 1 or len(closed) != k:
        return False
    ok = all(ac.place_leq(generic[0], pl) for pl in closed)
    ok = ok and not any(ac.place_leq(a, b) for a in closed for b in closed
                        if a != b)
    return ok


class TestSheafMembership:
    def test_half_away_from_two(self):
        U = ac.CurveOpen.without(ac.finite_place(2))
        assert ac.sheaf_membership(Fraction(1, 2), U)

    def test_half_globally_fails(self):
        assert not ac.sheaf_membership(Fraction(1, 2), ac.CurveOpen.whole())

    def test_integers_regular_away_from_infinity(self):
        U = ac.CurveOpen.without(ac.ARCH)
        assert ac.sheaf_membership(Fraction(2), U)
        assert ac.sheaf_membership(Fraction(-17), U)
        assert not ac.sheaf_membership(Fraction(2), ac.CurveOpen.whole())

    def test_twenty_digit_prime_denominator(self):
        # 2^64 - 59 is prime: the removed primes are divided out, so the
        # denominator is never factored
        p = 2 ** 64 - 59
        U = ac.CurveOpen.without(ac.finite_place(2), ac.finite_place(3))
        assert not ac.sheaf_membership(Fraction(1, p), ac.CurveOpen.whole())
        assert not ac.sheaf_membership(Fraction(1, 6 * p), U)
        assert ac.sheaf_membership(Fraction(1, 2 ** 70 * 3 ** 40), U)
        assert not ac.sheaf_membership(Fraction(p, 2 ** 10), U)

    def test_zero_everywhere(self):
        assert ac.sheaf_membership(0, ac.CurveOpen.whole())

    def test_sheaf_axiom_on_unions(self):
        rng = random.Random(7)
        places = [ac.finite_place(p) for p in (2, 3, 5, 7)] + [ac.ARCH]
        for _ in range(2000):
            a = Fraction(rng.randrange(-1000, 1001),
                         rng.randrange(1, 1001))
            U = ac.CurveOpen.without(*rng.sample(places, rng.randrange(3)))
            V = ac.CurveOpen.without(*rng.sample(places, rng.randrange(3)))
            both = ac.sheaf_membership(a, U) and ac.sheaf_membership(a, V)
            assert ac.sheaf_membership(a, U.union(V)) == both

    def test_restrictions_are_inclusions(self):
        rng = random.Random(8)
        small = ac.CurveOpen.without(ac.finite_place(3))
        big = ac.CurveOpen.without(ac.finite_place(3), ac.finite_place(5))
        for _ in range(500):
            a = Fraction(rng.randrange(-300, 301), rng.randrange(1, 301))
            if ac.sheaf_membership(a, small):
                assert ac.sheaf_membership(a, big)

    def test_stalk_membership_matches_punctured_opens(self):
        # for rationals supported on the tested places, membership in the
        # stalk at p equals membership in the open avoiding the other places
        rng = random.Random(13)
        tested = [ac.finite_place(p) for p in (2, 3, 5, 7)] + [ac.ARCH]
        for _ in range(300):
            den = (2 ** rng.randrange(3) * 3 ** rng.randrange(3)
                   * 5 ** rng.randrange(2) * 7 ** rng.randrange(2))
            a = Fraction(rng.randrange(-200, 201), den)
            for place in tested:
                others = [pl for pl in tested if pl != place]
                U = ac.CurveOpen.without(*others)
                assert ac.stalk_membership(a, place) == \
                    ac.sheaf_membership(a, U)


class TestGlobalSections:
    def test_carrier(self):
        G = ac.global_sections()
        assert set(G.carrier()) == {"0", "1", "-1"}

    def test_isomorphic_to_f1n2(self):
        assert finite_blueprints_isomorphic(ac.global_sections(),
                                            catalog.f1n(2)) is not None

    def test_units_are_global(self):
        whole = ac.CurveOpen.whole()
        assert ac.sheaf_membership(1, whole)
        assert ac.sheaf_membership(-1, whole)
        assert not ac.sheaf_membership(2, whole)


class TestArchimedeanIdeals:
    def test_classify_single_generator(self):
        ideal = ac.arch_ideal_classify([Fraction(2, 3)])
        assert ideal.radius == Fraction(2, 3)
        assert ideal.boundary == "closed"

    def test_classify_empty(self):
        ideal = ac.arch_ideal_classify([])
        assert ideal.radius == 0 and ideal.boundary == "closed"

    def test_generator_outside_stalk(self):
        with pytest.raises(ac.GeneratorOutsideStalk):
            ac.arch_ideal_classify([Fraction(3, 2)])

    def test_primes(self):
        primes = ac.arch_stalk_primes()
        assert primes[0].radius == 0 and primes[0].boundary == "closed"
        assert primes[1].radius == 1 and primes[1].boundary == "open"
        assert all(ac.arch_ideal_is_prime(p) for p in primes)
        assert not ac.arch_ideal_is_prime(
            ac.ArchIdealDescriptor(Fraction(1, 2), "closed"))

    def test_ideal_axioms_under_sampling(self):
        rng = random.Random(9)
        ideal = ac.arch_ideal_classify([Fraction(1, 2), Fraction(1, 3)])
        for _ in range(500):
            a = Fraction(rng.randrange(-100, 101), rng.randrange(100, 301))
            b = Fraction(rng.randrange(-200, 201), rng.randrange(200, 401))
            if ideal.contains(a):
                # multiplication by any stalk element stays inside
                if abs(b) <= 1:
                    assert ideal.contains(a * b)
            # the only additive rule is sign symmetry
            if ideal.contains(a):
                assert ideal.contains(-a)

    def test_ball_coincidence(self):
        assert not ac.balls_coincide(Fraction(1, 2))
        assert not ac.balls_coincide(1)
        assert ac.balls_coincide(ac.IrrationalRadius("sqrt(2)/2"))


class TestFiniteStalks:
    def test_two_primes(self):
        assert len(ac.finite_stalk_primes(2)) == 2

    def test_ideal_chain(self):
        ideals = ac.finite_stalk_ideals(3, max_power=4)
        assert ideals[0] == ("0",)
        assert ideals[1] == ("3",)
        assert ideals[2] == ("3^2",)

    def test_maximal_ideal_membership(self):
        assert ac.maximal_ideal_membership(Fraction(3, 5), ac.finite_place(3))
        assert not ac.maximal_ideal_membership(Fraction(4, 3),
                                               ac.finite_place(5))
        assert not ac.stalk_membership(Fraction(5, 3), ac.finite_place(3))


class TestTopology:
    def test_surface_dimension(self):
        dim, chain = ac.surface_dimension(3)
        assert dim == 2
        assert len(chain) == 3
        assert chain[0] == ("eta", "eta")

    def test_truncation_independent(self):
        assert ac.surface_dimension(1)[0] == 2
        assert ac.surface_dimension(2)[0] == 2
        assert ac.surface_dimension(5)[0] == 2

    def test_curve_dimension_one(self):
        assert ac.curve_dimension(3) == 1

    def test_restriction_is_spec_z(self):
        assert finite_restriction_matches_spec_z(5)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    def test_equals_trial_division_below_1e5(self):
        assert all(ac._is_prime(n) == trial_division(n)
                   for n in range(-2, 10**5))

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_rejected(self, n):
        # each passes the strong test to a smaller set of prime bases
        with pytest.raises(ValueError, match="not a prime"):
            ac.finite_place(n)

    def test_large_prime_at_once(self):
        # trial division would take hours here
        start = time.perf_counter()
        assert ac.finite_place(100000000000000000039).p == \
            100000000000000000039
        assert ac.finite_place(100000000000031).p == 100000000000031
        assert time.perf_counter() - start < 0.5

    def test_beyond_the_exact_range_is_refused(self):
        with pytest.raises(BlueprintError, match="too large"):
            ac.finite_place(10**25 + 13)

    def test_curve_places(self):
        primes = [p.p for p in ac.curve_places(30)[1:-1]]
        assert primes == [n for n in range(2, 114) if trial_division(n)]
        assert str(ac.curve_places(2)[-1]) == "infinity"
