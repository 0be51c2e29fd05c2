"""Prime spectra as finite specialization posets, stalks, residue fields,
globalization, ranks of points, and Weyl extensions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (ONE, ZERO, Blueprint, BlueprintError, FiniteTable,
                   IdealDescriptor, additive_closure, derive, is_cancellative,
                   is_prime_ideal, localize, quotient_by_ideal,
                   torus_certificate)
from . import counting


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


def _bits(mask):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_masks(keysets):
    """Up-set masks of the inclusion order on `keysets`: bit j of the i-th
    mask is set iff keysets[i] <= keysets[j]."""
    holders = {}
    for j, keys in enumerate(keysets):
        for k in keys:
            holders[k] = holders.get(k, 0) | (1 << j)
    out = []
    for keys in keysets:
        mask = (1 << len(keysets)) - 1
        for k in keys:
            mask &= holders[k]
        out.append(mask)
    return out


def _hasse(up):
    """Hasse edges (i, j) of the order given by up-set masks, in (i, j)
    order: j strictly above i with nothing strictly between."""
    strict = [m & ~(1 << i) for i, m in enumerate(up)]
    out = []
    for i, above in enumerate(strict):
        through = 0
        for k in _bits(above):
            through |= strict[k]
        out.extend((i, j) for j in _bits(above & ~through))
    return out


class SpecSpace:
    """The prime ideals of a blueprint with the specialization order.

    p <= q iff ideal(p) is contained in ideal(q); closed sets are the up-sets,
    so closed points sit at the top of the order. The order is stored as one
    up-set bitmask per point.
    """

    projective = False

    def __init__(self, blueprint, points, complete=True):
        self.blueprint = blueprint
        self.points = tuple(points)
        self.complete = complete
        keysets = self._containment_sets()
        if keysets is not None:
            self._up = _up_masks(keysets)
        else:
            self._up = [sum(1 << j for j, q in enumerate(self.points)
                            if all(q.ideal.contains(g) for g in p.ideal.minimal))
                        for p in self.points]

    def _containment_sets(self):
        """Per-point sets whose inclusions decide ideal containment: symbol
        sets for finite tables, variable sets when every minimal generator is
        a single variable."""
        backend = self.blueprint.backend
        if backend.kind == "finite":
            return [frozenset(p.ideal.minimal) for p in self.points]
        out = []
        for p in self.points:
            names = set()
            for g in p.ideal.minimal:
                coeff, exps = g
                live = [(i, e) for i, e in enumerate(exps) if e]
                if len(live) != 1 or live[0][1] != 1 \
                        or not backend.coeff.is_unit(coeff):
                    return None
                names.add(backend.gens[live[0][0]])
            out.append(frozenset(names))
        return out

    def __len__(self):
        return len(self.points)

    def leq(self, i, j):
        return bool(self._up[i] >> j & 1)

    def lt(self, i, j):
        return i != j and bool(self._up[i] >> j & 1)

    def labels(self):
        return [p.label() for p in self.points]

    def closed_points(self):
        return [i for i, m in enumerate(self._up) if not m & ~(1 << i)]

    def generic_points(self):
        below = 0
        for i, m in enumerate(self._up):
            below |= m & ~(1 << i)
        return [i for i in range(len(self.points)) if not below >> i & 1]

    def covers(self):
        """Hasse edges (i, j): j specializes i, nothing strictly between."""
        return _hasse(self._up)

    def up_set(self, indices):
        indices = frozenset(indices)
        mask = 0
        for j in indices:
            mask |= self._up[j]
        return indices | frozenset(_bits(mask))

    def closed_sets(self):
        n = len(self.points)
        if n > 12:
            raise BlueprintError("too many points to enumerate closed sets")
        out = set()
        for bits in itertools.product((0, 1), repeat=n):
            s = frozenset(i for i in range(n) if bits[i])
            if s == self.up_set(s):
                out.add(s)
        return out

    def is_connected(self):
        return len(self.connected_components()) <= 1

    def connected_components(self):
        adjacent = list(self._up)
        for i, m in enumerate(self._up):
            for j in _bits(m):
                adjacent[j] |= 1 << i
        out = []
        left = (1 << len(self.points)) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for k in _bits(frontier):
                    reach |= adjacent[k]
                frontier = reach & ~comp
                comp |= reach
            left &= ~comp
            out.append(list(_bits(comp)))
        return out

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
        closure = self.closure_blueprint(i)
        if closure.backend.kind == "monomial" and len(closure.backend.gens) > 6:
            raise BlueprintError("closure too large for counting")
        qs = counting.SAMPLE_Q
        counts = [counting.fq_points(closure, q) for q in qs]
        poly = counting.fit_polynomial(list(zip(qs, counts)))
        if poly is None:
            raise RankUndetermined("closure counts are not polynomial in q")
        return poly.degree


def spec(blueprint, budget=None):
    """Enumerate the prime spectrum.

    Monomial backends: candidate ideals are generated by subsets of the
    non-invertible variables (the underlying monoid is free modulo the unit
    lattice, so a monomial prime is generated by the variables it contains);
    complement multiplicativity is re-verified per candidate.
    """
    budget = budget or blueprint.budget
    backend = blueprint.backend
    points = []
    complete = True
    if backend.kind == "finite":
        syms = [s for s in backend.symbols if s != ZERO]
        for r in range(len(syms) + 1):
            for sub in itertools.combinations(syms, r):
                ideal = additive_closure(blueprint, sub, budget)
                if ideal.saturated != "exact":
                    complete = False
                    continue
                if set(ideal.minimal) != {ZERO} | set(sub):
                    continue
                if not ideal.is_proper():
                    continue
                if is_prime_ideal(blueprint, ideal) is True:
                    points.append(SpecPoint(ideal))
    else:
        candidates = [n for n in backend.gens if n not in backend.inverted]
        seen = set()
        for r in range(len(candidates) + 1):
            for sub in itertools.combinations(candidates, r):
                elems = [backend.gen_element(n) for n in sub]
                ideal = additive_closure(blueprint, elems, budget)
                if ideal.saturated != "exact":
                    complete = False
                    continue
                if ideal.minimal in seen:
                    continue
                seen.add(ideal.minimal)
                if not ideal.is_proper():
                    continue
                if is_prime_ideal(blueprint, ideal) is True:
                    points.append(SpecPoint(ideal))
    points.sort(key=lambda p: (len(p.ideal.minimal), p.generator_names()))
    return SpecSpace(blueprint, points, complete)


def stalk(blueprint, point, budget=None):
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
        return localize(blueprint, invert, budget)
    comp = [s for s in backend.symbols if not point.ideal.contains(s)]
    return localize(blueprint, comp, budget)


def maximal_ideal_of_local(blueprint, budget=None):
    """The non-units of a local blueprint, as an ideal."""
    backend = blueprint.backend
    if backend.kind == "finite":
        nonunits = [s for s in backend.symbols
                    if s != ZERO and not backend.is_unit(s)]
        return additive_closure(blueprint, nonunits, budget)
    gens = [backend.gen_element(n) for n in backend.gens
            if n not in backend.inverted]
    return additive_closure(blueprint, gens, budget)


def residue_field(blueprint, point, budget=None):
    """Stalk modulo its maximal ideal; always a blue field."""
    local = stalk(blueprint, point, budget)
    m = maximal_ideal_of_local(local, budget)
    if not m.minimal or set(m.minimal) == {ZERO}:
        return local
    return quotient_by_ideal(local, m, budget)


# ---------------------------------------------------------------------------
# Globalization


def globalize(blueprint, budget=None):
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
    budget = budget or blueprint.budget
    X = spec(blueprint, budget)
    n = len(X.points)
    if n == 0:
        return blueprint
    maxima = X.closed_points()
    if len(maxima) == 1 and all(X.leq(i, maxima[0]) for i in range(n)):
        return blueprint
    if blueprint.backend.kind != "finite":
        return blueprint
    stalks = [stalk(blueprint, X.points[i], budget) for i in range(n)]
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
    sums = _stalk_sum_tables(stalks, budget)
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
    return Blueprint(FiniteTable(syms, mul, add), (), budget=budget,
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


def _stalk_sum_tables(stalks, budget):
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
                    if derive(s, [a, b], rhs, budget) == "Proved":
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


def preimage_ideal(morphism, ideal, budget=None):
    """f^{-1}(I), as an ideal of the source."""
    src = morphism.source
    if src.backend.kind == "finite":
        members = [s for s in src.backend.symbols
                   if ideal.contains(morphism.apply(s))]
        return additive_closure(src, members, budget)
    gens = [src.backend.gen_element(n) for n in src.backend.gens
            if ideal.contains(morphism.apply(src.backend.gen_element(n)))]
    closure = additive_closure(src, gens, budget)
    for n in src.backend.gens:
        g = src.backend.gen_element(n)
        if ideal.contains(morphism.apply(g)) != closure.contains(g):
            raise BlueprintError("preimage is not variable-generated")
    return closure


def spec_map(morphism, budget=None):
    """The induced map spec(target) -> spec(source), as index pairs."""
    X = spec(morphism.target, budget)
    Y = spec(morphism.source, budget)
    out = {}
    for i, p in enumerate(X.points):
        pre = preimage_ideal(morphism, p.ideal, budget)
        js = [j for j, q in enumerate(Y.points)
              if q.ideal.minimal == pre.minimal]
        if len(js) != 1:
            raise BlueprintError("preimage of a prime is not a listed prime")
        out[i] = js[0]
    return X, Y, out
