"""Cancellativity, Frobenius and torus predicates; the isomorphism search."""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction

from .core import ONE, PROVED, REFUTED, UNKNOWN, ZERO, BlueprintError
from .derivation import _derive3
from .fields import prime_powers_upto
from .ideals import is_blue_field
from .morphisms import (BlueprintMorphism, _refuting_target, field_blueprint,
                        is_morphism, iter_morphisms)
from .snf import in_lattice, lattice_rank, quotient_group_invariants

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_cancellative(bp, budget=None):
    """('yes', certificate) / ('no', witness) / ('unknown', None).

    A 'no' witness names a relation whose cancelled form lhs = rhs does not
    hold, and why: the first target whose morphism separates the two sides,
    else the two different normal forms of the first cancelled relation
    that `_derive3` refutes."""
    budget = budget or bp.budget
    backend = bp.backend
    refuted = None
    for l, r in bp.relations:
        common = Counter(l) & Counter(r)
        if not common:
            continue
        l2 = tuple(sorted((Counter(l) - common).elements(), key=backend.sort_key))
        r2 = tuple(sorted((Counter(r) - common).elements(), key=backend.sort_key))
        verdict, forms = _derive3(bp, l2, r2, budget)
        if verdict == PROVED:
            continue
        witness = {"cancelled": tuple(common.elements()), "lhs": l2, "rhs": r2}
        target = _refuting_target(bp, l2, r2)
        if target is not None:
            return ("no", {**witness, "target": target.name})
        if verdict == REFUTED and refuted is None:
            refuted = {**witness, "normal_forms": forms}
    if refuted is not None:
        return ("no", refuted)
    cert = _injectivity_certificate(bp)
    if cert is not None:
        return ("yes", cert)
    return ("unknown", None)


def _injectivity_certificate(bp):
    backend = bp.backend
    if backend.kind == "finite":
        for q in prime_powers_upto(9):
            target = field_blueprint(q)
            for f in iter_morphisms(bp, target):
                imgs = [f.apply(s) for s in backend.symbols]
                if len(set(imgs)) == len(imgs):
                    return {"kind": "separating-hom", "target": target.name}
        return None
    return _multiplicative_independence_certificate(bp)


def _small_factor(n):
    n = abs(n)
    out = Counter()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return out


def _multiplicative_independence_certificate(bp, tries=500):
    """A rational point of the relations with multiplicatively independent
    coordinates separates all monomials, certifying B -> B_Z^+ injective."""
    backend = bp.backend
    if not set(backend.coeff.backend.symbols) <= {ZERO, ONE, "-1"}:
        return None
    gens = backend.gens
    if len(gens) > 8 or backend.lattice:
        return None
    if not bp.relations:
        values = {g: Fraction(p) for g, p in zip(gens, _PRIMES)}
        return {"kind": "independent-point",
                "values": {g: str(v) for g, v in values.items()}}
    rng = random.Random(11)

    def term_value(values, t, skip=None):
        v = Fraction(-1) if t[0] == "-1" else Fraction(1)
        for j, e in enumerate(t[1]):
            if e and j != skip:
                v *= values[gens[j]] ** e
        return v

    for _ in range(tries):
        values: dict = {}
        ok = True
        for l, r in bp.relations:
            allterms = list(l) + list(r)
            pick = None
            for ti, t in enumerate(allterms):
                for i, e in enumerate(t[1]):
                    if e in (1, -1) and gens[i] not in values:
                        if sum(1 for t2 in allterms if t2[1][i]) == 1:
                            pick = (ti, i, e)
                            break
                if pick:
                    break
            if pick is None:
                ok = False
                break
            ti, iv, ev = pick
            for j, g in enumerate(gens):
                if g not in values and j != iv:
                    values[g] = Fraction(rng.choice(_PRIMES))
            tsolve = allterms[ti]
            in_lhs = ti < len(l)
            skip_l = ti if in_lhs else -1
            skip_r = ti - len(l) if not in_lhs else -1
            side_l = sum((term_value(values, t) for k, t in enumerate(l)
                          if k != skip_l), Fraction(0))
            side_r = sum((term_value(values, t) for k, t in enumerate(r)
                          if k != skip_r), Fraction(0))
            rhsval = (side_r - side_l) if in_lhs else (side_l - side_r)
            cpart = term_value(values, tsolve, skip=iv)
            if cpart == 0 or rhsval == 0:
                ok = False
                break
            sol = rhsval / cpart
            if ev == -1:
                sol = Fraction(1) / sol
            if sol <= 0:
                ok = False
                break
            values[gens[iv]] = sol
        if not ok or len(values) < len(gens):
            continue

        def eval_sum_exact(terms):
            return sum((term_value(values, t) for t in terms), Fraction(0))

        if any(v == 0 for v in values.values()):
            continue
        if not all(eval_sum_exact(l) == eval_sum_exact(r) for l, r in bp.relations):
            continue
        rows = []
        feasible = True
        for g in gens:
            v = values[g]
            if abs(v.numerator) >= 10 ** 12 or v.denominator >= 10 ** 12:
                feasible = False
                break
            fac = _small_factor(v.numerator)
            for p, e in _small_factor(v.denominator).items():
                fac[p] -= e
            rows.append(fac)
        if not feasible:
            continue
        primeset = sorted({p for fac in rows for p in fac})
        matrix = [[fac.get(p, 0) for p in primeset] for fac in rows]
        if matrix and lattice_rank(matrix) == len(gens):
            return {"kind": "independent-point",
                    "values": {g: str(values[g]) for g in gens}}
    return None


def frobenius_power_sum(bp, terms, p):
    return bp.normalize_sum([bp.backend.power(t, p) for t in terms])


def is_frobenius(bp, p, budget=None):
    """('Proved', None) / ('Counterexample', data) / ('Unknown', None)."""
    budget = budget or bp.budget
    any_unknown = False
    for l, r in bp.relations:
        lp = frobenius_power_sum(bp, l, p)
        rp = frobenius_power_sum(bp, r, p)
        verdict, _ = _derive3(bp, lp, rp, budget)
        if verdict == PROVED:
            continue
        target = _refuting_target(bp, lp, rp)
        if target is not None:
            return ("Counterexample", {"relation": (l, r),
                                       "target": target.name})
        any_unknown = True
    return (UNKNOWN, None) if any_unknown else (PROVED, None)


# ---------------------------------------------------------------------------
# Torus recognition (Hypothesis (H) certificates)


def torus_certificate(bp):
    """(rank, 'F1' | 'F1^2') when B is G_m^rank over F1 or F1^2, else None.

    All generators must be invertible modulo the lattice; the unit group
    coeff-units x Z^n / L decides the rank, and Z/2 torsion together with the
    sign relation tau + 1 = 0 detects the F1^2 form.
    """
    backend = bp.backend
    if backend.kind == "finite":
        if not is_blue_field(bp):
            return None
        units = sorted(s for s in backend.symbols if s != ZERO)
        if units == [ONE]:
            return (0, "F1") if not bp.relations else None
        if len(units) == 2:
            other = next(u for u in units if u != ONE)
            if backend.mul(other, other) != ONE:
                return None
            expected = bp._normalize_relation([ONE, other], [])
            if bp.relations == (expected,):
                return (0, "F1^2")
        return None
    if not all(n in backend.inverted for n in backend.gens):
        return None
    cb = backend.coeff.backend
    cunits = sorted(s for s in cb.symbols if s != ZERO)
    n = len(backend.gens)
    if len(cunits) == 1:
        order2 = None
    elif len(cunits) == 2:
        order2 = next(u for u in cunits if u != ONE)
        if cb.mul(order2, order2) != ONE:
            return None
    else:
        return None
    extra = 1 if order2 else 0
    rows = []
    for vec, char in backend.lattice:
        row = [0] * (extra + n)
        if char != ONE:
            if order2 is None or char != order2:
                return None
            row[0] = 1
        row[extra:] = list(vec)
        rows.append(row)
    if order2:
        rows.append([2] + [0] * n)
    free, torsion = quotient_group_invariants(extra + n, rows)
    if not torsion:
        if order2 is not None:
            return None
        return (free, "F1") if not bp.relations else None
    if torsion == [2]:
        tau = _order_two_element(bp, order2)
        if tau is None:
            return None
        expected = bp._normalize_relation([tau, bp.one()], [])
        if bp.relations == (expected,):
            return (free, "F1^2")
        return None
    return None


def _order_two_element(bp, order2_coeff):
    """A representative of the unique order-2 class of the unit group."""
    backend = bp.backend
    n = len(backend.gens)
    basis = [list(v) for v, _ in backend.lattice]
    for vec in itertools.product(range(-2, 3), repeat=n):
        if basis and in_lattice(basis, [2 * x for x in vec]) \
                and not in_lattice(basis, list(vec)):
            cand = backend.normalize((ONE, tuple(vec)))
            if backend.mul(cand, cand) == backend.one() and cand != backend.one():
                return cand
    if order2_coeff is not None:
        return backend.coeff_element(order2_coeff)
    return None


# ---------------------------------------------------------------------------
# Isomorphism of finite structures (modules, typed complexes, finite tables)


_Structure = namedtuple("_Structure", "elements colours relations shape")


def _structure(elements, colours, relations):
    """`elements` with name-free start colours (ints, one per element)
    refined to a stable partition, and `relations` (lists of element
    tuples). Each round colours x by its colour and, per relation k and
    position p, by the colours of the tuples that hold x at p. The palette
    is sorted, so isomorphic structures get equal colours on corresponding
    elements."""
    elements = tuple(elements)
    label = {x: i for i, x in enumerate(elements)}
    rels = [{tuple(map(label.__getitem__, t)) for t in rel}
            for rel in relations]
    col, count = list(colours), len(set(colours))
    while True:
        held = [[] for _ in elements]
        for k, rel in enumerate(rels):
            for t in rel:
                seen = tuple(map(col.__getitem__, t))
                for p, e in enumerate(t):
                    held[e].append((k, p, seen))
        sig = [(c, tuple(sorted(h))) for c, h in zip(col, held)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        col = [palette[s] for s in sig]
        if len(palette) == count:
            return _Structure(elements, col, rels,
                              (tuple(sorted(col)), tuple(map(len, rels))))
        count = len(palette)


def _isomorphism(a, b, accept=None):
    """The least colour-keeping bijection of `_structure`s a -> b that maps
    each relation of a onto the same relation of b and satisfies
    `accept(mapping)`, as a dict in a's element order, or None. Least: a's
    elements in order, each given the first element of b that works. A
    tuple is checked when its last element is placed; the candidates are
    the fewest that one tuple through an earlier element allows. Each
    placed element keeps its candidate iterator on a stack, not a frame."""
    if a.shape != b.shape:
        return None
    n = len(a.elements)
    image, used = [None] * n, [False] * n
    # per label i, the tuples t it completes (i = t[p] is the largest), each
    # with a position q of an earlier element, None when t is all i
    last = [[] for _ in range(n)]
    for k, rel in enumerate(a.relations):
        for t in rel:
            i = max(t)
            q = next((q for q, e in enumerate(t) if e != i), None)
            last[i].append((k, t, q, t.index(i)))
    through = {}      # (k, q, p): b's labels at p by the label at q

    def candidates(i):
        best = range(n)
        for k, t, q, p in last[i]:
            if q is None:
                continue
            if (k, q, p) not in through:
                through[k, q, p] = by = {}
                for u in b.relations[k]:
                    by.setdefault(u[q], set()).add(u[p])
            hits = through[k, q, p].get(image[t[q]], ())
            if len(hits) < len(best):
                best = hits
        return (y for y in sorted(best)
                if not used[y] and b.colours[y] == a.colours[i])

    stack = [candidates(0)] if n else []
    while stack:
        i = len(stack) - 1
        if image[i] is not None:
            used[image[i]], image[i] = False, None
        for y in stack[i]:
            image[i] = y
            if all(tuple(map(image.__getitem__, t)) in b.relations[k]
                   for k, t, _, _ in last[i]):
                break
        else:
            image[i] = None
            stack.pop()
            continue
        used[image[i]] = True
        if i + 1 < n:
            stack.append(candidates(i + 1))
            continue
        mapping = dict(zip(a.elements, map(b.elements.__getitem__, image)))
        if accept is None or accept(mapping):
            return mapping
    return {} if n == 0 and (accept is None or accept({})) else None


def _table_structure(table):
    """The symbols, 0 and 1 fixed by colour, and the triples (x, y, xy)."""
    s = table.symbols
    return _structure(s, [(x == ZERO) + 2 * (x == ONE) for x in s],
                      [[(x, y, table.mul(x, y)) for x in s for y in s]])


def finite_blueprints_isomorphic(b1, b2, budget=None):
    """The least bijection of the symbols, in symbol order, that fixes 0 and
    1, keeps the products and is a morphism both ways (`is_morphism`
    Proved), or None: `_isomorphism` on the `_table_structure`s."""
    budget = budget or b1.budget
    t1, t2 = b1.backend, b2.backend
    if t1.kind != "finite" or t2.kind != "finite":
        raise BlueprintError("finite tables only")

    def accept(f):
        back = BlueprintMorphism(b2, b1, {v: k for k, v in f.items()})
        return is_morphism(BlueprintMorphism(b1, b2, f), budget)[0] == \
            PROVED and is_morphism(back, budget)[0] == PROVED

    return _isomorphism(_table_structure(t1), _table_structure(t2), accept)
