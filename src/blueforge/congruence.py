"""Congruences and prime congruences on finite blueprints, the congruence
spectrum with its basis topology, absorbing ideals, and residue fields."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (ONE, PROVED, REFUTED, UNKNOWN, ZERO, Blueprint,
                   BlueprintError, FiniteTable, IdealDescriptor, TooLarge,
                   _scale, _UnionFind, localize)

MULTIPLICITY_CAP = 6


class NotACongruence(BlueprintError):
    pass


def canonical_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partition_blocks_of(carrier, pairs):
    """Blocks of the equivalence generated by `pairs` on `carrier`."""
    uf = _UnionFind(carrier)
    for a, b in pairs:
        uf.union(a, b)
    blocks = {}
    for x in carrier:
        blocks.setdefault(uf.find(x), []).append(x)
    return canonical_partition(blocks.values())


@dataclass
class Congruence:
    blueprint: Blueprint
    partition: tuple
    primality: bool | None = None

    def __post_init__(self):
        self.partition = canonical_partition(self.partition)
        self._block_of = {}
        for block in self.partition:
            for x in block:
                self._block_of[x] = block

    def related(self, a, b):
        return self._block_of[a] is self._block_of[b] or \
            self._block_of[a] == self._block_of[b]

    def block(self, a):
        return self._block_of[a]

    def is_proper(self):
        return len(self.partition) > 1

    def __repr__(self):
        return "/".join("".join(b) for b in self.partition)


def _all_sums(carrier, max_terms):
    """All formal sums (sorted tuples) of bounded length and multiplicity."""
    nonzero = [s for s in carrier]
    out = [()]
    frontier = [()]
    for _ in range(max_terms):
        new = []
        for u in frontier:
            last = u[-1] if u else None
            for s in nonzero:
                if last is not None and s < last:
                    continue
                if u.count(s) >= MULTIPLICITY_CAP:
                    continue
                v = u + (s,)
                new.append(v)
        out.extend(new)
        frontier = new
    return out


def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent, i, j):
    ri, rj = _find(parent, i), _find(parent, j)
    if ri != rj:
        parent[max(ri, rj)] = min(ri, rj)


def _sub_multisets(u, prefixes):
    """(s, rest) for each distinct sub-multiset s of the sorted tuple u that
    lies in `prefixes`, with rest = u - s; both sorted. `prefixes` must hold
    every prefix of its members."""
    out = []

    def walk(start, prefix, skipped):
        out.append((prefix, skipped + u[start:]))
        prev = None
        for k in range(start, len(u)):
            t = u[k]
            if t != prev:
                prev = t
                p = prefix + (t,)
                if p in prefixes:
                    walk(k + 1, p, skipped + u[start:k])

    if () in prefixes:
        walk(0, (), ())
    return out


class _ChainClosure:
    """The partition-free part of the chain axiom (2)* on a finite blueprint.

    Bounded formal sums are joined into components by one-step rewrites
    through the oriented relations scaled by carrier multipliers (on a
    semiring table also by [a, b] = [a + b] for nonzero a <= b). Termwise
    replacements t -> t2 are kept as edges between components, per unordered
    pair {t, t2}, so that a partition adds only the edges inside its blocks.
    The sums are saturated once, for the first partition that passes
    multiplicativity.
    """

    def __init__(self, blueprint, budget):
        if blueprint.backend.kind != "finite":
            raise TooLarge("congruences are implemented for finite tables")
        if len(blueprint.backend.symbols) > 7:
            raise TooLarge("carrier larger than 7")
        self.blueprint = blueprint
        self.budget = budget
        self.moves = None

    def _saturate(self):
        blueprint, budget = self.blueprint, self.budget
        backend = blueprint.backend
        carrier = backend.symbols
        nonzero = [s for s in carrier if s != ZERO]
        sums = _all_sums(nonzero, min(budget.max_terms, 8))
        index = {u: i for i, u in enumerate(sums)}
        mults = backend.multipliers(0)

        def scaled(m, terms):
            return tuple(sorted(_scale(blueprint, m, terms)))

        pairs = [(scaled(m, L), scaled(m, R))
                 for L, R in blueprint.oriented_relations() for m in mults]
        if backend.add_table is not None:
            # a + b of the semiring, each distinct nontrivial scaled copy once
            seen = set()
            for i, a in enumerate(nonzero):
                for b in nonzero[i:]:
                    right = [backend.add_table[(a, b)]]
                    for L, R in (([a, b], right), (right, [a, b])):
                        for m in mults:
                            pair = (scaled(m, L), scaled(m, R))
                            if pair[0] != pair[1] and pair not in seen:
                                seen.add(pair)
                                pairs.append(pair)
        # the scaled pairs by left side, each with its index; the prefixes
        # of the left sides prune the walk over a sum's sub-multisets
        by_left, prefixes = {}, set()
        for k, (mL, mR) in enumerate(pairs):
            by_left.setdefault(mL, []).append((k, mR))
            prefixes.update(mL[:n] for n in range(len(mL) + 1))
        # one budget step per (sum, scaled relation), sums in order; the cut
        # sum keeps only the steps taken before the budget ran out
        reached, last = len(sums), len(pairs)
        if pairs and len(sums) * len(pairs) > budget.max_steps:
            cut, last = divmod(budget.max_steps, len(pairs))
            reached = cut + 1
        self.truncated = reached < len(sums) or last < len(pairs)
        parent = list(range(len(sums)))
        for i in range(reached):
            bound = last if i == reached - 1 else len(pairs)
            for mL, rest in _sub_multisets(sums[i], prefixes):
                for k, mR in by_left.get(mL, ()):
                    if k < bound:
                        j = index.get(tuple(sorted(rest + mR)))
                        if j is not None:
                            _union(parent, i, j)
        roots = [_find(parent, i) for i in range(len(sums))]
        moves = {}
        for i in range(reached):
            u = sums[i]
            for k, t in enumerate(u):
                if k and u[k - 1] == t:
                    continue
                for t2 in carrier:
                    if t2 == t:
                        continue
                    v = u[:k] + u[k + 1:] + ((t2,) if t2 != ZERO else ())
                    j = index.get(tuple(sorted(v)))
                    if j is not None and roots[i] != roots[j]:
                        key = (t, t2) if t < t2 else (t2, t)
                        moves.setdefault(key, set()).add((roots[i], roots[j]))
        self.moves, self.size = moves, len(sums)
        self.singleton = {a: (roots[index[(a,)]] if (a,) in index else None)
                          for a in nonzero}
        self.singleton[ZERO] = roots[index[()]]

    def verdict(self, cong):
        """Proved / Refuted / Unknown for `cong` (a Congruence)."""
        carrier = self.blueprint.backend.symbols
        block_id = {x: i for i, block in enumerate(cong.partition)
                    for x in block}
        if block_id.keys() != set(carrier):
            raise NotACongruence("partition does not cover the carrier")
        # multiplicativity: a ~ b forces ac ~ bc (the table is commutative,
        # and ~ is transitive, so this gives ac ~ bd whenever c ~ d)
        mul = self.blueprint.backend.mul_table
        for a in carrier:
            for b in carrier:
                if a < b and block_id[a] == block_id[b]:
                    for c in carrier:
                        if block_id[mul[(a, c)]] != block_id[mul[(b, c)]]:
                            return REFUTED
        if self.moves is None:
            self._saturate()
        parent = list(range(self.size))
        for (t, t2), edges in self.moves.items():
            if block_id[t] == block_id[t2]:
                for i, j in edges:
                    _union(parent, i, j)
        for a in carrier:
            for b in carrier:
                if a < b and block_id[a] != block_id[b]:
                    ia, ib = self.singleton[a], self.singleton[b]
                    if ia is not None and ib is not None \
                            and _find(parent, ia) == _find(parent, ib):
                        return REFUTED
        return UNKNOWN if self.truncated else PROVED


def is_congruence(blueprint, partition, budget=None):
    """Proved / Refuted / Unknown for the two congruence axioms.

    Multiplicativity is exhausted; the chain axiom is checked by saturating a
    union-find over bounded formal sums under (i) one-step rewrites through
    the pre-addition and (ii) termwise replacements inside a block, then
    verifying that the restriction to the carrier refines no block.
    """
    closure = _ChainClosure(blueprint, budget or blueprint.budget)
    return closure.verdict(Congruence(blueprint, partition))


def is_prime_congruence(blueprint, cong: Congruence):
    """Proper, and ab ~ ac forces b ~ c or a ~ 0 (the quotient is integral)."""
    if cong.primality is not None:
        return cong.primality
    backend = blueprint.backend
    if not cong.is_proper():
        cong.primality = False
        return False
    ok = True
    for a in backend.symbols:
        if cong.related(a, ZERO):
            continue
        for b in backend.symbols:
            for c in backend.symbols:
                if cong.related(backend.mul(a, b), backend.mul(a, c)) \
                        and not cong.related(b, c):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    cong.primality = ok
    return ok


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


@dataclass
class CSpecSpace:
    blueprint: Blueprint
    points: tuple            # prime Congruence objects, canonical order
    complete: bool

    def __len__(self):
        return len(self.points)

    def basis_open(self, f, g):
        """U_{f,g} = indices of prime congruences with f not related to g."""
        return frozenset(i for i, c in enumerate(self.points)
                         if not c.related(f, g))

    def basis(self):
        syms = self.blueprint.backend.symbols
        return {(f, g): self.basis_open(f, g) for f in syms for g in syms}


def cspec(blueprint, budget=None):
    """All prime congruences, ordered by canonical partition form."""
    closure = _ChainClosure(blueprint, budget or blueprint.budget)
    points = []
    complete = True
    for blocks in _set_partitions(sorted(blueprint.backend.symbols)):
        cong = Congruence(blueprint, blocks)
        verdict = closure.verdict(cong)
        if verdict == UNKNOWN:
            complete = False
        elif verdict == PROVED and is_prime_congruence(blueprint, cong):
            points.append(cong)
    points.sort(key=lambda c: c.partition)
    return CSpecSpace(blueprint, tuple(points), complete)


def absorbing_ideal(cong: Congruence) -> IdealDescriptor:
    """I_~ = the block of zero."""
    block = cong.block(ZERO)
    return IdealDescriptor(cong.blueprint, tuple(sorted(block)),
                           tuple(sorted(block)), "exact")


def cspec_to_spec(blueprint, budget=None):
    """The map CSpec -> Spec sending a prime congruence to its absorbing
    ideal; returns (cspec, spec, index map)."""
    from .spectra import spec as spec_fn
    C = cspec(blueprint, budget)
    X = spec_fn(blueprint, budget)
    mapping = {}
    for i, cong in enumerate(C.points):
        ideal = absorbing_ideal(cong)
        js = [j for j, p in enumerate(X.points)
              if set(p.ideal.minimal) == set(ideal.minimal)]
        if len(js) != 1:
            raise BlueprintError(
                f"absorbing ideal {ideal!r} is not a prime of the spectrum")
        mapping[i] = js[0]
    return C, X, mapping


def quotient_by_congruence(blueprint, cong: Congruence, budget=None):
    """B/~ : blocks as symbols, with the pushed pre-addition."""
    backend = blueprint.backend
    budget = budget or blueprint.budget
    rep = {}
    for block in cong.partition:
        label = ZERO if ZERO in block else (ONE if ONE in block else min(block))
        for x in block:
            rep[x] = label
    syms = sorted(set(rep.values()), key=lambda s: (s != ZERO, s != ONE, s))
    mul = {}
    for a in backend.symbols:
        for b in backend.symbols:
            mul[(rep[a], rep[b])] = rep[backend.mul(a, b)]
    rels = []
    for l, r in blueprint.relations:
        nl = [rep[t] for t in l if rep[t] != ZERO]
        nr = [rep[t] for t in r if rep[t] != ZERO]
        if sorted(nl) != sorted(nr):
            rels.append((nl, nr))
    out = Blueprint(FiniteTable(syms, mul), rels, budget=budget,
                    name=f"{blueprint.name or 'B'}/~", check_proper=False)
    out.projection = dict(rep)
    return out


def kernel_congruence(morphism):
    """The kernel of a morphism: a ~ b iff the images coincide."""
    src = morphism.source
    if src.backend.kind != "finite":
        raise TooLarge("kernels are computed for finite sources")
    pairs = []
    for a in src.backend.symbols:
        for b in src.backend.symbols:
            if morphism.apply(a) == morphism.apply(b):
                pairs.append((a, b))
    blocks = partition_blocks_of(src.backend.symbols, pairs)
    return Congruence(src, blocks)


def residue_field_of_congruence(blueprint, cong: Congruence, budget=None):
    """Localize at the absorbing prime and quotient by the pushed congruence;
    the result is a blue field."""
    budget = budget or blueprint.budget
    quotient = quotient_by_congruence(blueprint, cong, budget)
    nonzero = [s for s in quotient.backend.symbols if s != ZERO]
    return localize(quotient, nonzero, budget)
