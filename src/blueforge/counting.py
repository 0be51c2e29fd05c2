"""F_q-rational points, counting polynomials, Euler characteristics via N(1),
and factored zeta functions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (ONE, ZERO, Blueprint, BlueprintError, TooLarge,
                   _coefficient_images, _count_solutions, _free_domains,
                   enumerate_morphisms, field_blueprint)
from .fields import SUPPORTED_Q

SAMPLE_Q = SUPPORTED_Q


def fq_points(obj, q):
    """Number of F_q-rational points of a blueprint or scheme-like object.

    A blueprint's points are its morphisms to F_q. They are counted by
    `core._count_solutions`, once per coefficient image of a monomial
    source, and never listed.
    """
    if hasattr(obj, "fq_points"):
        return obj.fq_points(q)
    if not isinstance(obj, Blueprint):
        raise TypeError(f"cannot count points of {obj!r}")
    if q not in SUPPORTED_Q:
        raise TooLarge(f"no field table for q={q}")
    backend = obj.backend
    if backend.kind == "monomial" and len(backend.gens) > 8:
        raise TooLarge("more than 8 generators")
    return _count_points(obj, q)


def _count_points(bp, q, zero=()):
    """The morphisms from `bp` to F_q that send the generators named in
    `zero` to 0 (none of them, if one is inverted), counted."""
    tb = field_blueprint(q).backend
    domains = _free_domains(bp, tb)
    if bp.backend.kind == "finite":
        return _count_solutions(bp, tb, domains)
    for name in zero:
        i = bp.backend.gens.index(name)
        domains[i] = [ZERO] if ZERO in domains[i] else []
    return sum(_count_solutions(bp, tb, domains, cimages)
               for cimages in _coefficient_images(bp, tb))


def fq_morphisms(obj, q):
    """The morphisms themselves (deterministic order)."""
    return enumerate_morphisms(obj, field_blueprint(q))


def projective_fq_points(blueprint, q, vanishing=()):
    """Points of the projective model: canonical representatives (first
    nonzero coordinate 1) of nonzero solution vectors of the relations and
    lattice rows.

    `vanishing` names generators forced to zero (counting a closed subset).
    Per choice of the first nonzero coordinate, the vectors are counted by
    `core._count_solutions` and never listed.
    """
    if q not in SUPPORTED_Q:
        raise TooLarge(f"no field table for q={q}")
    backend = blueprint.backend
    if backend.kind != "monomial":
        raise BlueprintError("projective counting needs a monomial backend")
    if set(backend.coeff.backend.symbols) != {ZERO, ONE}:
        raise BlueprintError("projective counting implemented over F1 coefficients")
    n = len(backend.gens)
    dead = {backend.gens.index(name) for name in vanishing}
    live = [i for i in range(n) if i not in dead]
    tb = field_blueprint(q).backend
    count = 0
    for pidx, pivot in enumerate(live):
        domains = [(ZERO,)] * n
        domains[pivot] = (ONE,)
        for coord in live[pidx + 1:]:
            domains[coord] = tb.symbols
        count += _count_solutions(blueprint, tb, domains,
                                  {ZERO: ZERO, ONE: ONE})
    return count


# ---------------------------------------------------------------------------
# Counting polynomials


@dataclass(frozen=True)
class CountingPolynomial:
    """N(q) = sum coeffs[i] * q^i with integer coefficients."""

    coeffs: tuple
    sample_witness: tuple = ()
    held_out_witness: tuple = ()

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, q):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def render(self):
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(f"{sign} {body}")
        return " ".join(bits) if bits else "0"

    def __str__(self):
        return self.render()


def _interpolate(points):
    """Exact polynomial through the points, coefficients low to high."""
    n = len(points)
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    # Newton divided differences.
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # Expand to the monomial basis.
    poly = [Fraction(0)] * n
    basis = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for j in range(n):
        for i in range(n):
            poly[i] += coef[j] * basis[i]
        if j + 1 < n:
            new = [Fraction(0)] * n
            for i in range(n - 1):
                new[i + 1] += basis[i]
                new[i] -= xs[j] * basis[i]
            basis = new
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def fit_polynomial(pairs):
    """Lowest-degree integer polynomial through all (q, count) pairs, or None."""
    pairs = sorted(pairs)
    for d in range(len(pairs)):
        poly = _interpolate(pairs[:d + 1])
        if len(poly) - 1 > d:
            continue
        if any(c.denominator != 1 for c in poly):
            continue
        cand = CountingPolynomial(tuple(int(c) for c in poly),
                                  tuple(pairs[:d + 1]), tuple(pairs[d + 1:]))
        if all(cand(q) == c for q, c in pairs):
            return cand
    return None


def counting_polynomial(obj, degree_bound):
    """Fit N(q) on degree_bound+1 samples and verify on held-out samples.

    Returns a CountingPolynomial, or None when the counts are not polynomial
    (any held-out mismatch or non-integer coefficients).
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound {degree_bound} is negative")
    if degree_bound + 2 > len(SAMPLE_Q):
        raise TooLarge(
            f"degree bound {degree_bound} needs {degree_bound + 2} sample "
            f"prime powers, have {len(SAMPLE_Q)}")
    counts = [(q, fq_points(obj, q)) for q in SAMPLE_Q]
    fit_pts, held = counts[:degree_bound + 1], counts[degree_bound + 1:]
    poly = _interpolate(fit_pts)
    if any(c.denominator != 1 for c in poly):
        return None
    cand = CountingPolynomial(tuple(int(c) for c in poly), tuple(fit_pts),
                              tuple(held))
    if not all(cand(q) == c for q, c in held):
        return None
    return cand


def euler_characteristic(obj, degree_bound=None):
    """chi = N(1) of the counting polynomial."""
    if degree_bound is None:
        degree_bound = len(SAMPLE_Q) - 2
    poly = counting_polynomial(obj, degree_bound)
    if poly is None:
        raise BlueprintError("point counts are not polynomial in q")
    return poly(1)


# ---------------------------------------------------------------------------
# Factored zeta functions


@dataclass(frozen=True)
class ZetaFactored:
    """prod (s - i)^{a_i}; multiplicities may be negative (poles)."""

    factors: tuple  # ((root, multiplicity), ...) sorted by root

    def render(self):
        live = [(i, a) for i, a in self.factors if a]
        if not live:
            return "1"
        bits = []
        lone = len(live) == 1
        for i, a in live:
            base = "s" if i == 0 else (f"s - {i}" if lone and a == 1
                                       else f"(s - {i})")
            bits.append(base if a == 1 else f"{base}^{a}")
        return " ".join(bits)

    def __str__(self):
        return self.render()

    def as_pairs(self):
        return [[i, a] for i, a in self.factors if a]


def soule_zeta(poly: CountingPolynomial) -> ZetaFactored:
    """zeta_X(s) = prod (s - i)^{a_i} from the q^i coefficients of N."""
    return ZetaFactored(tuple((i, a) for i, a in enumerate(poly.coeffs) if a))


# ---------------------------------------------------------------------------
# Ordered-semifield points (total non-negativity)


def verify_point_over_ordered_semifield(blueprint, assignment):
    """Check a generator assignment into the nonnegative rationals: all values
    must be >= 0 and every relation must hold numerically."""
    backend = blueprint.backend
    if backend.kind != "monomial":
        raise BlueprintError("assignments are for monomial backends")
    values = {}
    for name in backend.gens:
        if name not in assignment:
            raise BlueprintError(f"assignment misses generator {name}")
        values[name] = Fraction(assignment[name])
        if values[name] < 0:
            return False
    coeff_vals = {ONE: Fraction(1), ZERO: Fraction(0)}
    if "-1" in backend.coeff.backend.symbols:
        coeff_vals["-1"] = Fraction(-1)

    def term_value(t):
        c, exps = t
        if c not in coeff_vals:
            raise BlueprintError(f"no rational value for coefficient {c}")
        v = coeff_vals[c]
        for name, e in zip(backend.gens, exps):
            if e:
                if values[name] == 0 and e < 0:
                    raise ZeroDivisionError
                v *= values[name] ** e
        return v

    for l, r in blueprint.relations:
        if sum(map(term_value, l), Fraction(0)) != sum(map(term_value, r),
                                                       Fraction(0)):
            return False
    return True
