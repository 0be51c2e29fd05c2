"""F_q-rational points, counting polynomials, Euler characteristics via N(1),
and factored zeta functions.

A counting polynomial is proved by elimination (`_eliminate`) on a monomial
blueprint over F1 or F1^2, and kept on the blueprint (`_proved`), so that
every affine count of that blueprint is read from it. Where the elimination
gives up, the points are counted by the solver and the polynomial is sampled
by the one fitter, `fit_polynomial`, which every sampled count (closure ranks
and quiver-Grassmannian chi too) goes through: fit on the F_q counts at the
first degree_bound+1 supported prime powers and verified on held-out ones."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (ONE, ZERO, Blueprint, BlueprintError, TooLarge,
                   _coefficient_images, _count_solutions, _free_domains,
                   _per_blueprint, enumerate_morphisms, field_blueprint)
from .fields import SUPPORTED_Q

SAMPLE_Q = SUPPORTED_Q


def fq_points(obj, q):
    """Number of F_q-rational points of a blueprint or scheme-like object.

    A blueprint's points are its morphisms to F_q. Where the elimination
    proves N(q) (`_proved`), the count is N(q) read at q. Otherwise they are
    counted by `morphisms._count_solutions`, once per coefficient image of a
    monomial source, and never listed (`_count_points`).
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
    proved = _proved(obj)
    return proved(q) if proved is not None else _count_points(obj, q)


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
    `morphisms._count_solutions` and never listed.
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
    """Exact polynomial through integer points, coefficients low to high.

    Lagrange's formula over the common denominator of its basis: each basis
    numerator is prod (x - x_j) divided by (x - x_i), in integers, so only
    the final coefficients are fractions."""
    n = len(points)
    full = [1]
    for xj, _ in points:
        full = [(full[k - 1] if k else 0) - xj * (full[k] if k < len(full) else 0)
                for k in range(len(full) + 1)]
    rows = []
    for xi, yi in points:
        quot, acc = [0] * n, 0
        for k in range(n, 0, -1):
            acc = full[k] + xi * acc
            quot[k - 1] = acc
        rows.append((yi, quot, sum(c * xi ** k for k, c in enumerate(quot))))
    den = math.lcm(*(d for _, _, d in rows))
    poly = [Fraction(sum(y * quot[k] * (den // d) for y, quot, d in rows), den)
            for k in range(n)]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def fit_polynomial(counts, degree_bound):
    """The integer polynomial of degree at most `degree_bound` through the
    (q, count) pairs, interpolated on the first degree_bound+1 in q order and
    verified on the held-out rest, which are its witnesses; else None.
    Raises ValueError when no count is held out: such a fit verifies
    nothing."""
    counts = sorted(counts)
    if not 0 <= degree_bound <= len(counts) - 2:
        raise ValueError(f"degree bound {degree_bound} must be at least 0 "
                         f"and hold out one of {len(counts)} counts")
    fit_pts, held = counts[:degree_bound + 1], counts[degree_bound + 1:]
    poly = _interpolate(fit_pts)
    if any(c.denominator != 1 for c in poly):
        return None
    cand = CountingPolynomial(tuple(int(c) for c in poly), tuple(fit_pts),
                              tuple(held))
    if not all(cand(q) == c for q, c in held):
        return None
    return cand


# ---------------------------------------------------------------------------
# Counting polynomials by elimination


class _GiveUp(Exception):
    """No elimination rule applies, or a coefficient other than 0 and ±1
    appears, whose vanishing would depend on the characteristic."""


def _coefficient_values(coeff):
    """The integer each coefficient symbol is in every F_q: F1, or F1^2 =
    {0, 1, u} with u*u = 1 and 1 + u = 0, which puts u at -1. None for any
    other table."""
    extra = [s for s in coeff.backend.symbols if s not in (ZERO, ONE)]
    if not extra and not coeff.relations:
        return {ONE: 1}
    if len(extra) == 1 and len(coeff.relations) == 1:
        (u,), (l, r) = extra, coeff.relations[0]
        if coeff.mul(u, u) == ONE and not (l and r) and \
                sorted(l + r) == sorted((ONE, u)):
            return {ONE: 1, u: -1}
    return None


def _equation(lhs, rhs, value):
    """lhs - rhs as (exponents, integer coefficient) terms."""
    poly = {}
    for sign, side in ((1, lhs), (-1, rhs)):
        for c, exps in side:
            poly[exps] = poly.get(exps, 0) + sign * value[c]
    return list(poly.items())


def _normal(terms, units):
    """The equation `terms` = 0 in canonical form: zero terms dropped, each
    unit's least exponent divided out and the sign set so that the greatest
    term has coefficient 1. None for the zero polynomial."""
    terms = [t for t in terms if t[1]]
    if not terms:
        return None
    if any(c not in (1, -1) for _, c in terms):
        raise _GiveUp
    low = {i: min(e[i] for e, _ in terms) for i in units}
    if any(low.values()):
        terms = [(tuple(x - low.get(i, 0) for i, x in enumerate(e)), c)
                 for e, c in terms]
    terms.sort()
    if terms[-1][1] < 0:
        terms = [(e, -c) for e, c in terms]
    return tuple(terms)


def _split(eq, x):
    """(a, b) with eq = a*x + b, for `eq` of degree 1 in x."""
    a, b = [], []
    for e, c in eq:
        if e[x]:
            a.append((e[:x] + (0,) + e[x + 1:], c))
        else:
            b.append((e, c))
    return a, b


def _substitute(eq, x, value):
    """`eq` with the polynomial `value` put in for x."""
    powers = [{(0,) * len(eq[0][0]): 1}]
    out = {}
    for e, c in eq:
        while len(powers) <= e[x]:
            nxt = {}
            for pe, pc in powers[-1].items():
                for ve, vc in value:
                    k = tuple(map(sum, zip(pe, ve)))
                    nxt[k] = nxt.get(k, 0) + pc * vc
            powers.append(nxt)
        base = e[:x] + (0,) + e[x + 1:]
        for pe, pc in powers[e[x]].items():
            k = tuple(map(sum, zip(base, pe)))
            out[k] = out.get(k, 0) + c * pc
    return list(out.items())


def _qsum(*terms):
    """The sum of c * q^s * p over the triples (c, s, p), where p lists the
    coefficients of a polynomial in q from low to high."""
    out = [0] * max(s + len(p) for _, s, p in terms)
    for c, s, p in terms:
        for i, v in enumerate(p):
            out[s + i] += c * v
    return out


def _qmul(a, b):
    """The product of two polynomials in q, coefficients low to high."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _free_count(free, units):
    """q^free * (q - 1)^units, coefficients low to high."""
    poly = [0] * free + [1]
    for _ in range(units):
        poly = _qsum((1, 1, poly), (-1, 0, poly))
    return tuple(poly)


def _count(free, units, eqs, memo):
    """N(q), coefficients low to high, for the points of F_q^free x
    (F_q^*)^units (sets of variable indices) at which every equation of
    `eqs` holds. The variables no equation involves only multiply it, so the
    rest is memoized on the equations alone."""
    normal = set()
    for eq in eqs:
        eq = _normal(eq, units)
        if eq is None:
            continue
        if len(eq) == 1 and not any(eq[0][0]):
            return []
        normal.add(eq)
    live = {i for eq in normal for e, _ in eq for i, x in enumerate(e) if x}
    key = (free & live, units & live, frozenset(normal))
    if key not in memo:
        memo[key] = _branch(*key, memo)
    return _qmul(memo[key], _free_count(len(free - live), len(units - live)))


def _branch(free, units, eqs, memo):
    """`_count` for equations that each involve some variable, by the first
    rule that applies (Stembridge, "Counting points on varieties over finite
    fields related to a conjecture of Kontsevich", Ann. Comb. 2, 1998).
    Each rule holds over every field."""
    if not eqs:
        return [1]
    ordered = sorted(eqs, key=lambda eq: (len(eq), eq))
    if len(ordered[0]) == 1:
        # m = 0 for a monomial m: its first variable x vanishes, or x is a
        # unit and the rest of m vanishes.
        x = next(i for i, k in enumerate(ordered[0][0][0]) if k)
        vanish = [[t for t in eq if not t[0][x]] for eq in eqs]
        return _qsum((1, 0, _count(free - {x}, units, vanish, memo)),
                     (1, 0, _count(free - {x}, units | {x}, eqs, memo)))
    for x in sorted(free | units):
        holders = [eq for eq in ordered if any(e[x] for e, _ in eq)]
        if len(holders) != 1 or any(e[x] > 1 for e, _ in holders[0]):
            continue
        # x is in one equation a*x + b = 0 only: one x where a != 0, every
        # x where a = b = 0, and for a unit x also b != 0.
        a, b = _split(holders[0], x)
        rest = [eq for eq in eqs if eq is not holders[0]]
        f, u = free - {x}, units - {x}
        terms = [(1, 0, _count(f, u, rest, memo)),
                 (-1, 0, _count(f, u, rest + [a], memo)),
                 (1, 1, _count(f, u, rest + [a, b], memo))]
        if x in units:
            terms.append((-1, 0, _count(f, u, rest + [b], memo)))
        return _qsum(*terms)
    for eq in ordered:
        for x in sorted(free | units):
            if not any(e[x] for e, _ in eq) or any(e[x] > 1 for e, _ in eq):
                continue
            a, b = _split(eq, x)
            if len(a) > 1 or any(a[0][0][i] for i in free):
                continue
            # a is a unit: x = -b/a, which for a unit x needs b != 0.
            (ea, ca), = a
            value = [(tuple(y - z for y, z in zip(e, ea)), -ca * c)
                     for e, c in b]
            rest = [_substitute(other, x, value) for other in eqs
                    if other is not eq]
            f, u = free - {x}, units - {x}
            n = _count(f, u, rest, memo)
            if x in units:
                n = _qsum((1, 0, n), (-1, 0, _count(f, u, rest + [b], memo)))
            return n
    raise _GiveUp


def _eliminate(bp):
    """N(q) of a monomial blueprint for every q, proved by the rules of
    `_branch`, or None when they give up. The relations and lattice rows
    are read as polynomial equations with coefficients ±1, which needs the
    coefficient table F1 or F1^2 (`_coefficient_values`). The solver
    (`_count_points`) is its oracle. More than 8 generators gives None, as
    `fq_points` refuses them."""
    backend = bp.backend
    if backend.kind != "monomial" or len(backend.gens) > 8:
        return None
    value = _coefficient_values(backend.coeff)
    if value is None:
        return None
    n = len(backend.gens)
    eqs = [_equation([(ONE, vec)], [(char, (0,) * n)], value)
           for vec, char in backend.lattice]
    eqs += [_equation(l, r, value) for l, r in bp.relations]
    units = frozenset(i for i, g in enumerate(backend.gens)
                      if g in backend.inverted)
    try:
        coeffs = _count(frozenset(range(n)) - units, units, eqs, {})
    except _GiveUp:
        return None
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return CountingPolynomial(tuple(coeffs) or (0,))


@_per_blueprint
def _proved(bp):
    """`_eliminate(bp)`, kept on the blueprint; a give-up (None) is kept
    too, so the sampled fallback never runs the elimination again."""
    return _eliminate(bp)


def counting_polynomial(obj, degree_bound):
    """N(q) of degree at most `degree_bound`, or None: proved by elimination
    (`_proved`) on a monomial blueprint, else `fit_polynomial` of the counts
    at the sample prime powers. Either way the witnesses are the pairs
    (q, N(q)), the first degree_bound+1 fitted and the rest held out."""
    if degree_bound < 0:
        raise ValueError(f"degree bound {degree_bound} is negative")
    if degree_bound + 2 > len(SAMPLE_Q):
        raise TooLarge(
            f"degree bound {degree_bound} needs {degree_bound + 2} sample "
            f"prime powers, have {len(SAMPLE_Q)}")
    proved = _proved(obj) if isinstance(obj, Blueprint) else None
    count = proved if proved is not None else (lambda q: fq_points(obj, q))
    counts = [(q, count(q)) for q in SAMPLE_Q]
    if proved is not None and proved.degree < len(SAMPLE_Q):
        # No other polynomial of degree below len(SAMPLE_Q) takes these
        # values, so the fit finds `proved` within the bound and nothing
        # above it.
        if proved.degree > degree_bound:
            return None
        return CountingPolynomial(proved.coeffs, tuple(counts[:degree_bound + 1]),
                                  tuple(counts[degree_bound + 1:]))
    return fit_polynomial(counts, degree_bound)


def euler_characteristic(obj, degree_bound=None):
    """chi = N(1) of the counting polynomial of degree at most `degree_bound`,
    by default len(SAMPLE_Q) - 2, the largest that holds a count out."""
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
