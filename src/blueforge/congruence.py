"""Congruences and prime congruences on finite blueprints, the congruence
spectrum with its basis topology, absorbing ideals, and residue fields.

A partition ~ of the carrier is a congruence when it is multiplicative and
meets the chain axiom. The chain axiom holds exactly when the quotient B/~
is proper, so it is decided by the normal forms of the completion of the
pre-addition of B/~ (`derivation._quotient_improper_pair`, which also
decides the properness guard of finite tables); no budget is read. That
pre-addition is read off B directly: its symbols are the class
representatives, multiplied as rep(a)·rep(b) = rep(ab), and its relations
are the pushed relations of B; no quotient table is built
(`quotient_by_congruence` builds one). On a semiring table ~ must also
respect the addition, and B/~ is the semiring with the pushed addition.

The congruence spectrum is built from primes and subgroups (Deitmar,
"Congruence schemes", Int. J. Math. 24, 2013). The zero class of a prime
congruence is a prime ideal p, and its other classes form a finite
cancellative monoid, that is a group. So on M = B∖p the congruence is the
kernel of M -> G/H, for G the group completion of M and H a subgroup of
G. `cspec` checks those candidates only, one per prime of `spec(B)` and
subgroup of G, and not every partition of the carrier."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (PROVED, REFUTED, ZERO, Blueprint, BlueprintError,
                   IdealDescriptor, TooLarge, _collapse, _idempotent_power,
                   _quotient_improper_pair, _symbol_key, localize)
from .spectra import spec


class NotACongruence(BlueprintError):
    pass


def canonical_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


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


def _check_table(blueprint):
    if blueprint.backend.kind != "finite":
        raise TooLarge("congruences are implemented for finite tables")


def _verdict(blueprint, cong, multiplicative=False):
    """Proved / Refuted for the partition `cong` of the carrier; TooLarge
    when the completion of B/~ outgrows `derivation._COMPLETION_CAP`. With
    `multiplicative`, the caller vouches that ~ is multiplicative, as
    `_candidates` builds it, and only the addition table is checked.

    Once ~ is multiplicative (and additive), B/~ is a table whose symbols
    are the class representatives (`_symbol_key`-least members, 0 for the
    class of 0) with rep(a)·rep(b) = rep(ab), and the chain axiom is its
    properness, read off B by `derivation._quotient_improper_pair`."""
    backend = blueprint.backend
    carrier = backend.symbols
    block_id = {x: i for i, block in enumerate(cong.partition)
                for x in block}
    # a ~ b forces ac ~ bc, and a + c ~ b + c on a semiring table (both
    # operations are commutative, and ~ is transitive, so this gives
    # ac ~ bd and a + c ~ b + d whenever c ~ d)
    tables = [t for t in (None if multiplicative else backend.mul_table,
                          backend.add_table) if t is not None]
    for t in tables:
        for a in carrier:
            for b in carrier:
                if a < b and block_id[a] == block_id[b]:
                    for c in carrier:
                        if block_id[t[(a, c)]] != block_id[t[(b, c)]]:
                            return REFUTED
    return PROVED if _quotient_improper_pair(
        blueprint, _representatives(cong)) is None else REFUTED


def _representatives(cong):
    """Each symbol's class representative: its `_symbol_key`-least member."""
    return {x: min(block, key=_symbol_key)
            for block in cong.partition for x in block}


def is_congruence(blueprint, partition, budget=None):
    """Proved / Refuted for the two congruence axioms; raises NotACongruence
    unless the blocks are nonempty, disjoint and cover the carrier, and
    TooLarge past `derivation._COMPLETION_CAP` completion rules. The budget
    is not read.

    Multiplicativity, and on a semiring table additivity, are exhausted.
    The chain axiom holds iff the quotient B/~ is proper: no derivation
    identifies a nonzero class with another class or with 0, that is no two
    of them share a normal form under the completion of B/~ and none has
    the empty one. A semiring table without relations, such as the
    catalog's, gives a quotient without relations and so without rules.
    """
    _check_table(blueprint)
    cong = Congruence(blueprint, partition)
    members = sorted(x for block in cong.partition for x in block)
    if () in cong.partition or members != sorted(blueprint.backend.symbols):
        raise NotACongruence("blocks must be nonempty, disjoint and cover"
                             " the carrier")
    return _verdict(blueprint, cong)


def is_prime_congruence(blueprint, cong: Congruence):
    """Proper, and ab ~ ac forces b ~ c or a ~ 0 (the quotient is integral)."""
    if cong.primality is None:
        syms, mul = blueprint.backend.symbols, blueprint.backend.mul
        cong.primality = cong.is_proper() and not any(
            cong.related(mul(a, b), mul(a, c)) and not cong.related(b, c)
            for a in syms if not cong.related(a, ZERO)
            for b in syms for c in syms)
    return cong.primality


@dataclass
class CSpecSpace:
    blueprint: Blueprint
    points: tuple            # prime Congruence objects, canonical order
    complete: bool           # every candidate is decided: always True

    def __len__(self):
        return len(self.points)

    def basis_open(self, f, g):
        """U_{f,g} = indices of prime congruences with f not related to g."""
        return frozenset(i for i, c in enumerate(self.points)
                         if not c.related(f, g))

    def basis(self):
        syms = self.blueprint.backend.symbols
        return {(f, g): self.basis_open(f, g) for f in syms for g in syms}


def _subgroups(mul, group, one):
    """Every subgroup of the finite abelian group `group` with identity
    `one`, as frozensets: <H, g> is the union of the cosets g^k·H."""
    found = {frozenset([one])}
    todo = list(found)
    while todo:
        H = todo.pop()
        for g in group:
            K = set(H)
            x = g
            while x not in H:
                K.update(mul(x, h) for h in H)
                x = mul(x, g)
            K = frozenset(K)
            if K not in found:
                found.add(K)
                todo.append(K)
    return found


def _candidates(blueprint, primes):
    """The partitions that can be prime congruences: for each prime p and
    each subgroup H of the group completion M·e of M = B∖p, e the
    idempotent power of the product of M, p is one class and a ~ b on M iff
    a·e·H = b·e·H. Each is multiplicative and integral."""
    backend = blueprint.backend
    mul = backend.mul
    for point in primes.points:
        ideal = point.ideal.minimal
        rest = [a for a in backend.symbols if a not in ideal]
        e = _idempotent_power(backend, rest)
        group = {mul(a, e) for a in rest}
        for H in _subgroups(mul, group, e):
            cosets = {}
            for a in rest:
                coset = frozenset(mul(mul(a, e), h) for h in H)
                cosets.setdefault(coset, []).append(a)
            yield Congruence(blueprint, [ideal, *cosets.values()])


def _cspec(blueprint, primes):
    """The prime congruences among the candidates built on the points of
    `primes`, the spectrum of `blueprint`; each candidate is multiplicative
    by construction, so its verdict skips that check."""
    points = [cong for cong in _candidates(blueprint, primes)
              if _verdict(blueprint, cong, multiplicative=True) == PROVED]
    points.sort(key=lambda c: c.partition)
    return CSpecSpace(blueprint, tuple(points), True)


def cspec(blueprint, budget=None):
    """All prime congruences, ordered by canonical partition form.

    Every prime congruence has a prime p of `spec(B)` as its zero class and
    is, on M = B∖p, the kernel of M -> G/H for G the group completion of M
    and H a subgroup of G. Only these candidates are checked, by the
    congruence verdict of `is_congruence`, which decides each one, so
    `complete` is always True. Neither that verdict nor `spec` of a finite
    table reads the budget; past `derivation._COMPLETION_CAP` completion
    rules on some B/~ this raises TooLarge."""
    _check_table(blueprint)
    return _cspec(blueprint, spec(blueprint))


def absorbing_ideal(cong: Congruence) -> IdealDescriptor:
    """I_~ = the block of zero."""
    block = cong.block(ZERO)
    return IdealDescriptor(cong.blueprint, tuple(sorted(block)),
                           tuple(sorted(block)))


def cspec_to_spec(blueprint, budget=None):
    """The map CSpec -> Spec sending a prime congruence to its absorbing
    ideal; returns (cspec, spec, index map). The budget is not read."""
    _check_table(blueprint)
    X = spec(blueprint)
    C = _cspec(blueprint, X)
    index = {frozenset(p.ideal.minimal): j for j, p in enumerate(X.points)}
    mapping = {i: index[frozenset(absorbing_ideal(cong).minimal)]
               for i, cong in enumerate(C.points)}
    return C, X, mapping


def quotient_by_congruence(blueprint, cong: Congruence, budget=None):
    """B/~ : blocks as symbols, with the pushed pre-addition, and on a
    semiring table the pushed addition (BlueprintError when ~ does not
    respect it)."""
    return _collapse(blueprint, _representatives(cong),
                     f"{blueprint.name or 'B'}/~", budget or blueprint.budget,
                     add=blueprint.backend.add_table)


def kernel_congruence(morphism):
    """The kernel of a morphism: a ~ b iff the images coincide."""
    src = morphism.source
    if src.backend.kind != "finite":
        raise TooLarge("kernels are computed for finite sources")
    blocks = {}
    for a in src.backend.symbols:
        blocks.setdefault(morphism.apply(a), []).append(a)
    return Congruence(src, blocks.values())


def residue_field_of_congruence(blueprint, cong: Congruence, budget=None):
    """Localize at the absorbing prime and quotient by the pushed congruence;
    the result is a blue field."""
    budget = budget or blueprint.budget
    quotient = quotient_by_congruence(blueprint, cong, budget)
    nonzero = [s for s in quotient.backend.symbols if s != ZERO]
    return localize(quotient, nonzero, budget)
