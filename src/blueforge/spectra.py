"""Prime spectra as finite specialization posets, stalks, residue fields,
globalization, ranks of points, and Weyl extensions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (ONE, ZERO, Blueprint, BlueprintError, FiniteTable,
                   IdealDescriptor, _bits, _closed, _ideal_rules,
                   additive_closure, derive, is_cancellative, is_prime_ideal,
                   localize, quotient_by_ideal, torus_certificate)
from . import counting
from .order import UpSetOrder, _up_masks


class RankUndetermined(BlueprintError):
    pass


@dataclass
class SpecPoint:
    ideal: IdealDescriptor
    rank: int | None = None
    closure_blueprint: Blueprint | None = None

    def label(self):
        return repr(self.ideal)

    def generator_names(self):
        return self.ideal.generator_names()


class SpecSpace(UpSetOrder):
    """The prime ideals of a blueprint with the specialization order.

    p <= q iff ideal(p) is contained in ideal(q); closed sets are the up-sets,
    so closed points sit at the top of the order. The order is stored as one
    up-set bitmask per point. Spectra are decided exactly: always complete.
    """

    projective = False
    complete = True

    def __init__(self, blueprint, points, keysets):
        """`keysets[i]` is a set whose inclusions decide containment of the
        point ideals: the symbols of a finite-table prime, the variables of
        a monomial one."""
        self.blueprint = blueprint
        self.points = tuple(points)
        self._up = _up_masks(keysets)

    def __len__(self):
        return len(self.points)

    def labels(self):
        return [p.label() for p in self.points]

    # Bound on the class itself, where bench/trace.py wraps it.
    covers = UpSetOrder.covers

    def closed_sets(self):
        """The up-sets: the masks s with up[i] & ~s == 0 for each i in s."""
        n = len(self.points)
        if n > 12:
            raise BlueprintError("too many points to enumerate closed sets")
        members = [[i for i in range(n) if s >> i & 1] for s in range(1 << n)]
        return {frozenset(members[s]) for s in range(1 << n)
                if not any(self._up[i] & ~s for i in members[s])}

    # closure / rank machinery ---------------------------------------------
    def ambient_blueprint(self):
        return self.blueprint

    def closure_blueprint(self, i):
        p = self.points[i]
        if p.closure_blueprint is None:
            p.closure_blueprint = quotient_by_ideal(self.blueprint, p.ideal)
        return p.closure_blueprint

    def torus_certificate_at(self, i):
        return torus_certificate(self.closure_blueprint(i))

    def counting_rank(self, i):
        """The degree of N(q) of the closure of point i: proved by
        elimination, sampled as fallback (`_closure_polynomial`)."""
        poly = self._closure_polynomial(i)
        if poly is None:
            raise RankUndetermined("closure counts are not polynomial in q")
        return poly.degree

    def _closure_polynomial(self, i):
        """N(q) of the closure of point i: proved by `counting._proved`,
        else `counting.fit_polynomial` of the counts at the sample q, of
        degree at most len(SAMPLE_Q) - 2 so that one count is held out, or
        None. Raises BlueprintError when the closure is too large to
        count."""
        closure = self.closure_blueprint(i)
        if closure.backend.kind == "monomial" and len(closure.backend.gens) > 6:
            raise BlueprintError("closure too large for counting")
        poly = counting._proved(closure)
        if poly is None:
            poly = counting.fit_polynomial(
                [(q, counting.fq_points(closure, q)) for q in counting.SAMPLE_Q],
                len(counting.SAMPLE_Q) - 2)
        return poly


def spec(blueprint, budget=None):
    """Enumerate the prime spectrum.

    Monomial backends: the primes are the ideals (S) generated by sets S of
    non-inverted variables that no relation forces to grow (see
    `_monomial_primes`); this is decided exactly, without the budget, and
    the result is always complete. Finite tables read no budget either: a
    set S of non-units (a proper ideal holds none) is a prime when {0} + S
    is closed under the ideal rules (`ideals._ideal_rules`), proper and prime.
    """
    backend = blueprint.backend
    if backend.kind == "monomial":
        points, varsets = _monomial_primes(blueprint)
        return SpecSpace(blueprint, points, varsets)
    rules = _ideal_rules(blueprint)
    points = []
    syms = [s for s in backend.symbols
            if s != ZERO and not backend.is_unit(s)]
    for r in range(len(syms) + 1):
        for sub in itertools.combinations(syms, r):
            members = {ZERO, *sub}
            if not _closed(rules, _bits(backend.symbols, members)):
                continue
            ideal = IdealDescriptor(blueprint, blueprint.normalize_sum(sub),
                                    tuple(sorted(members)))
            if ideal.is_proper() and is_prime_ideal(blueprint, ideal):
                points.append(SpecPoint(ideal))
    points.sort(key=lambda p: (len(p.ideal.minimal), p.generator_names()))
    return SpecSpace(blueprint, points,
                     [frozenset(p.ideal.minimal) for p in points])


def _monomial_primes(blueprint, irrelevant=0):
    """The primes of a monomial blueprint, sorted by size and then by names,
    with their variable sets; with a nonzero `irrelevant` mask (bit i for
    gens[i]) the sets that contain all of it are left out, as Proj does.

    The primes are the ideals (S) of sets S of non-inverted variables that
    are closed. A nonzero term lies in (S) iff one of its non-inverted
    variables is in S, so each term is read as the bitmask of those. (S) is
    closed iff no relation has exactly one term outside it, counting the
    terms of both sides with multiplicity. In `additive_closure`, a colon
    ideal (S : c*s) is the whole monoid when s lies in (S) and is (S)
    otherwise. So the multipliers J of a term t are the whole monoid when t
    is that one term outside, which forces t, and lie in (S) in every other
    case, which forces nothing new. Lattice vectors touch only inverted
    variables, so the complement of a closed (S) is multiplicative. No
    budget is read. Combinations of the name-sorted variables come in this
    order unsorted; one `backend.sort_key` rank orders each point's gens.
    """
    backend = blueprint.backend
    gens = backend.gens
    free = sorted((i for i, n in enumerate(gens) if n not in backend.inverted),
                  key=gens.__getitem__)
    relations = [[sum(1 << i for i in free if t[1][i]) for t in l + r]
                 for l, r in blueprint.relations]

    def forces(s):
        return any(sum(not m & s for m in masks) == 1 for masks in relations)

    bit = [1 << i for i in range(len(gens))]
    elems = {i: backend.gen_element(gens[i]) for i in free}
    rank = {i: k for k, i in enumerate(
        sorted(free, key=lambda i: backend.sort_key(elems[i])))}
    points, varsets = [], []
    for r in range(len(free) + 1):
        for sub in itertools.combinations(free, r):
            s = sum(map(bit.__getitem__, sub))
            if irrelevant and not irrelevant & ~s or relations and forces(s):
                continue
            ideal = tuple(map(elems.__getitem__,
                              sorted(sub, key=rank.__getitem__)))
            points.append(SpecPoint(IdealDescriptor(blueprint, ideal, ideal)))
            varsets.append(frozenset(map(gens.__getitem__, sub)))
    return points, varsets


def stalk(blueprint, point):
    """Localization at the complement of a prime: the local blueprint there."""
    backend = blueprint.backend
    if backend.kind == "monomial":
        varset = set()
        for g in point.ideal.minimal:
            for name, e in zip(backend.gens, g[1]):
                if e:
                    varset.add(name)
        invert = [backend.gen_element(n) for n in backend.gens
                  if n not in varset]
        return localize(blueprint, invert)
    comp = [s for s in backend.symbols if not point.ideal.contains(s)]
    return localize(blueprint, comp)


def maximal_ideal_of_local(blueprint):
    """The non-units of a local blueprint, as an ideal."""
    backend = blueprint.backend
    if backend.kind == "finite":
        nonunits = [s for s in backend.symbols
                    if s != ZERO and not backend.is_unit(s)]
        return additive_closure(blueprint, nonunits)
    gens = [backend.gen_element(n) for n in backend.gens
            if n not in backend.inverted]
    return additive_closure(blueprint, gens)


def residue_field(blueprint, point):
    """Stalk modulo its maximal ideal; always a blue field."""
    local = stalk(blueprint, point)
    m = maximal_ideal_of_local(local)
    if not m.minimal or set(m.minimal) == {ZERO}:
        return local
    return quotient_by_ideal(local, m)


# ---------------------------------------------------------------------------
# Globalization


def globalize(blueprint):
    """Global sections of Spec B.

    With a maximum point the top stalk is everything, so Gamma B = B; this
    covers the two-field example, whose non-units form a third prime that
    is its unique closed point. When every stalk is a finite table, the limit
    of compatible stalk families is computed elementwise; sums derivable in
    every stalk give the family blueprint a full addition table (for
    F_q1 x F_q2, catalog.product_ring, the result is isomorphic to the ring).
    For other multi-closed-point blueprints the compatible-family monoid
    coincides with B's and the generated pre-addition is kept; by the
    globalization theorem the spectrum is unchanged either way.
    """
    X = spec(blueprint)
    n = len(X.points)
    if n == 0:
        return blueprint
    maxima = X.closed_points()
    if len(maxima) == 1 and all(X.leq(i, maxima[0]) for i in range(n)):
        return blueprint
    if blueprint.backend.kind != "finite":
        return blueprint
    stalks = [stalk(blueprint, X.points[i]) for i in range(n)]
    restrictions = {}
    for i in range(n):
        for j in range(n):
            if i != j and X.leq(j, i):
                restrictions[(i, j)] = _restriction_map(blueprint, stalks[i],
                                                        stalks[j])
    families = []
    for combo in itertools.product(*(s.backend.symbols for s in stalks)):
        if all(rho[combo[i]] == combo[j]
               for (i, j), rho in restrictions.items()):
            families.append(combo)
    zero = tuple(ZERO for _ in range(n))
    one = tuple(ONE for _ in range(n))
    renames = {}
    for fam in families:
        if fam == zero:
            renames[fam] = ZERO
        elif fam == one:
            renames[fam] = ONE
        else:
            renames[fam] = "|".join(fam)
    mul = {}
    for a in families:
        for b in families:
            prod = tuple(stalks[i].mul(a[i], b[i]) for i in range(n))
            mul[(renames[a], renames[b])] = renames[prod]
    add = None
    sums = _stalk_sum_tables(stalks)
    if sums is not None:
        add = {}
        for a in families:
            for b in families:
                s = tuple(sums[i][(a[i], b[i])] for i in range(n))
                if s not in renames:
                    add = None
                    break
                add[(renames[a], renames[b])] = renames[s]
            if add is None:
                break
    syms = sorted(renames.values(), key=lambda s: (s != ZERO, s != ONE, s))
    return Blueprint(FiniteTable(syms, mul, add), (), budget=blueprint.budget,
                     name=f"Gamma({blueprint.name or 'B'})", check_proper=False)


def _stalk_class_of(stalk_bp, a, s):
    """Class of the fraction a/s in a finite localization, None when s is not
    invertible there."""
    lam = stalk_bp.localization_map
    tb = stalk_bp.backend
    inv = next((b for b in tb.symbols if tb.mul(lam[s], b) == ONE), None)
    if inv is None:
        return None
    return tb.mul(lam[a], inv)


def _restriction_map(blueprint, stalk_special, stalk_general):
    """Stalk at p -> stalk at a generization q (which inverts more)."""
    backend = blueprint.backend
    out = {}
    for a in backend.symbols:
        for s in backend.symbols:
            cls = _stalk_class_of(stalk_special, a, s)
            if cls is None or cls in out:
                continue
            img = _stalk_class_of(stalk_general, a, s)
            if img is None:
                raise BlueprintError("restriction target does not invert enough")
            out[cls] = img
    missing = set(stalk_special.backend.symbols) - set(out)
    if missing:
        raise BlueprintError(f"no fraction representative for classes {missing}")
    return out


def _stalk_sum_tables(stalks):
    """Per-stalk binary sum tables via derivability; None when some pair has
    no single-element sum."""
    tables = []
    for s in stalks:
        tab = {}
        syms = s.backend.symbols
        for a in syms:
            for b in syms:
                if s.is_semiring:
                    tab[(a, b)] = s.backend.eval_sum([a, b])
                    continue
                val = None
                for c in syms:
                    rhs = [c] if c != ZERO else []
                    if derive(s, [a, b], rhs) == "Proved":
                        val = c
                        break
                if val is None:
                    return None
                tab[(a, b)] = val
        tables.append(tab)
    return tables


# ---------------------------------------------------------------------------
# Ranks and the Weyl extension


def rank_of_point(space, i, budget=None):
    """Rank of a point: torus recognition on the closure, with the counting
    polynomial degree as fallback; the two must agree when both certify."""
    p = space.points[i]
    if p.rank is not None:
        return p.rank
    cert = space.torus_certificate_at(i)
    rank_cert = cert[0] if cert else None
    rank_count = None
    try:
        rank_count = space.counting_rank(i)
    except BlueprintError:
        rank_count = None
    if rank_cert is not None and rank_count is not None \
            and rank_cert != rank_count:
        raise RankUndetermined(
            f"torus rank {rank_cert} != counting rank {rank_count}")
    rank = rank_cert if rank_cert is not None else rank_count
    if rank is None:
        raise RankUndetermined(
            f"no method certifies the rank of {space.points[i].label()}")
    p.rank = rank
    return rank


@dataclass
class RankSpace:
    ambient: object
    min_rank: int
    points: tuple            # indices into ambient.points
    certificates: dict       # index -> (rank, 'F1' | 'F1^2') or None
    cancellative: str        # 'yes' | 'no' | 'unknown'
    connected: bool

    @property
    def hypothesis_h(self):
        return (self.connected and self.cancellative == "yes"
                and all(self.certificates.get(i) is not None
                        for i in self.points))

    def __len__(self):
        return len(self.points)


def weyl_extension(space, budget=None):
    """Minimum-rank points with torus certificates: the underlying set of the
    rank space, with a Hypothesis (H) flag."""
    ranks = {i: rank_of_point(space, i, budget)
             for i in range(len(space.points))}
    r = min(ranks.values())
    members = tuple(sorted(i for i, rk in ranks.items() if rk == r))
    certs = {i: space.torus_certificate_at(i) for i in members}
    verdict, _ = is_cancellative(space.ambient_blueprint(), budget)
    return RankSpace(space, r, members, certs, verdict, space.is_connected())


# ---------------------------------------------------------------------------
# Functoriality helpers


def preimage_ideal(morphism, ideal):
    """f^{-1}(I), as an ideal of the source."""
    src = morphism.source
    if src.backend.kind == "finite":
        members = [s for s in src.backend.symbols
                   if ideal.contains(morphism.apply(s))]
        return additive_closure(src, members)
    gens = [src.backend.gen_element(n) for n in src.backend.gens
            if ideal.contains(morphism.apply(src.backend.gen_element(n)))]
    closure = additive_closure(src, gens)
    for n in src.backend.gens:
        g = src.backend.gen_element(n)
        if ideal.contains(morphism.apply(g)) != closure.contains(g):
            raise BlueprintError("preimage is not variable-generated")
    return closure


def spec_map(morphism):
    """The induced map spec(target) -> spec(source), as index pairs."""
    X = spec(morphism.target)
    Y = spec(morphism.source)
    out = {}
    for i, p in enumerate(X.points):
        pre = preimage_ideal(morphism, p.ideal)
        js = [j for j, q in enumerate(Y.points)
              if q.ideal.minimal == pre.minimal]
        if len(js) != 1:
            raise BlueprintError("preimage of a prime is not a listed prime")
        out[i] = js[0]
    return X, Y, out
