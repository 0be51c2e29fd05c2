"""The compactified arithmetic curve over the rationals as a locally
blueprinted space: sheaf membership, stalks, archimedean ideal
classification, global sections, and the two-dimensional self-product.

Carriers here are infinite, so everything is a membership predicate; no set
is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .catalog import f1_squared
from .core import BlueprintError


class GeneratorOutsideStalk(BlueprintError):
    pass


@dataclass(frozen=True)
class Place:
    """A point of the curve: the generic point, a finite prime, or the
    archimedean place."""

    kind: str               # 'generic' | 'finite' | 'arch'
    p: int | None = None

    def __post_init__(self):
        if self.kind == "finite":
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError(f"{self.p} is not a prime")
        elif self.kind not in ("generic", "arch"):
            raise ValueError(f"unknown place kind {self.kind!r}")

    def __str__(self):
        if self.kind == "finite":
            return str(self.p)
        return "eta" if self.kind == "generic" else "infinity"


GENERIC = Place("generic")
ARCH = Place("arch")


def finite_place(p):
    return Place("finite", p)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise BlueprintError(f"{n} is too large for an exact primality test")
    if n in _MR_BASES or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_norm_leq_one(a: Fraction, p: int) -> bool:
    return a == 0 or a.denominator % p != 0


def padic_norm_lt_one(a: Fraction, p: int) -> bool:
    if a == 0:
        return True
    return a.denominator % p != 0 and a.numerator % p == 0


@dataclass(frozen=True)
class CurveOpen:
    """A nonempty open: the complement of finitely many non-generic places."""

    removed: frozenset

    def __post_init__(self):
        for place in self.removed:
            if place.kind == "generic":
                raise ValueError("cannot remove the generic point")

    @staticmethod
    def whole():
        return CurveOpen(frozenset())

    @staticmethod
    def without(*places):
        return CurveOpen(frozenset(places))

    def union(self, other):
        return CurveOpen(self.removed & other.removed)

    def intersection(self, other):
        return CurveOpen(self.removed | other.removed)


def sheaf_membership(a, U: CurveOpen) -> bool:
    """a lies in O(U) iff |a|_q <= 1 for every place q outside the removed
    set: no prime dividing the denominator may survive, and away from the
    archimedean place |a| <= 1 must hold."""
    a = Fraction(a)
    if a == 0:
        return True
    d = a.denominator
    for p in {pl.p for pl in U.removed if pl.kind == "finite"}:
        while d % p == 0:
            d //= p
    if d != 1:
        return False
    if ARCH not in U.removed and abs(a) > 1:
        return False
    return True


def stalk_membership(a, place: Place) -> bool:
    a = Fraction(a)
    if place.kind == "generic":
        return True
    if place.kind == "arch":
        return abs(a) <= 1
    return padic_norm_leq_one(a, place.p)


def maximal_ideal_membership(a, place: Place) -> bool:
    a = Fraction(a)
    if place.kind == "generic":
        return a == 0
    if place.kind == "arch":
        return abs(a) < 1
    return padic_norm_lt_one(a, place.p)


def global_sections():
    """Gamma(X, O_X): the roots of unity of Q with zero and the relation
    1 + (-1) = 0, i.e. the blueprint F1^2."""
    return f1_squared()


# ---------------------------------------------------------------------------
# Ideals of the archimedean stalk


@dataclass(frozen=True)
class ArchIdealDescriptor:
    """A ball ideal of the archimedean stalk {a : |a| <= 1}."""

    radius: Fraction
    boundary: str           # 'closed' | 'open'

    def __post_init__(self):
        if self.boundary not in ("closed", "open"):
            raise ValueError("boundary must be 'closed' or 'open'")
        if not (0 <= self.radius <= 1):
            raise ValueError("radius must lie in [0, 1]")
        if self.boundary == "open" and self.radius == 0:
            raise ValueError("open balls need positive radius")

    def contains(self, a) -> bool:
        a = abs(Fraction(a))
        return a <= self.radius if self.boundary == "closed" \
            else a < self.radius


def arch_ideal_classify(generators) -> ArchIdealDescriptor:
    """The ideal of the archimedean stalk generated by finitely many elements
    under the constants-only pre-addition 1 + (-1) = 0: saturation only adds
    sign symmetry and multiples, so the result is the closed ball of radius
    max |g|."""
    gens = [Fraction(g) for g in generators]
    for g in gens:
        if abs(g) > 1:
            raise GeneratorOutsideStalk(f"{g} has archimedean norm > 1")
    radius = max((abs(g) for g in gens), default=Fraction(0))
    return ArchIdealDescriptor(radius, "closed")


def arch_stalk_primes():
    """The prime ideals among the ball ideals: the zero ideal and the open
    unit ball (the maximal ideal)."""
    return [ArchIdealDescriptor(Fraction(0), "closed"),
            ArchIdealDescriptor(Fraction(1), "open")]


def arch_ideal_is_prime(ideal: ArchIdealDescriptor) -> bool:
    zero = ArchIdealDescriptor(Fraction(0), "closed")
    max_ideal = ArchIdealDescriptor(Fraction(1), "open")
    return ideal in (zero, max_ideal)


@dataclass(frozen=True)
class IrrationalRadius:
    """Marker for a radius not attained as the norm of a rational."""

    description: str = "irrational"


def balls_coincide(radius) -> bool:
    """I^c_r = I^o_r iff r is not the norm of an element; every rational in
    (0, 1] is attained over Q."""
    if isinstance(radius, IrrationalRadius):
        return True
    r = Fraction(radius)
    if not (0 < r <= 1):
        raise ValueError("radius must lie in (0, 1]")
    return False


# ---------------------------------------------------------------------------
# Finite stalks


def finite_stalk_primes(p):
    """The primes of the stalk at a finite prime: (0) and (p)."""
    return [("0",), (f"{p}",)]


def finite_stalk_ideals(p, max_power=5):
    """(0) and the chain (p^i); the stalk monoid is the free monoid on p over
    its unit blue field."""
    return [("0",)] + [(f"{p}^{i}" if i > 1 else f"{p}",)
                       for i in range(1, max_power + 1)]


# ---------------------------------------------------------------------------
# Topology and the self-product


def curve_places(k):
    """The generic point, the first k finite primes, and the archimedean
    place: a finite truncation of the curve."""
    primes = []
    n = 2
    while len(primes) < k:
        if _is_prime(n):
            primes.append(n)
        n += 1
    return [GENERIC] + [finite_place(p) for p in primes] + [ARCH]


def place_leq(a: Place, b: Place) -> bool:
    """Specialization: the generic point specializes to every place."""
    return a == b or a.kind == "generic"


def surface_dimension(k=3):
    """Length minus one of the longest strict chain in the componentwise
    order on the self-product (all pairs admissible: every residue field
    embeds into fields of any characteristic)."""
    places = curve_places(k)
    pairs = [(a, b) for a in places for b in places]

    def leq(x, y):
        return place_leq(x[0], y[0]) and place_leq(x[1], y[1])

    best = 1
    best_chain = None

    def extend(chain):
        nonlocal best, best_chain
        if len(chain) > best:
            best = len(chain)
            best_chain = list(chain)
        for nxt in pairs:
            if nxt != chain[-1] and leq(chain[-1], nxt):
                chain.append(nxt)
                extend(chain)
                chain.pop()

    for start in pairs:
        extend([start])
    return best - 1, [tuple(str(x) for x in pair) for pair in (best_chain or [])]


def curve_dimension(k=3):
    """The curve itself is one-dimensional: eta < p."""
    places = curve_places(k)
    best = 1
    for a in places:
        for b in places:
            if a != b and place_leq(a, b):
                best = max(best, 2)
    return best - 1
