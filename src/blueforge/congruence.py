"""Congruences and prime congruences on finite blueprints, the congruence
spectrum with its basis topology, absorbing ideals, and residue fields.

A partition ~ of the carrier is a congruence when it is multiplicative and
meets the chain axiom. The chain axiom holds exactly when the quotient B/~
is proper, so it is checked by building B/~ (`core._collapse`) and running
the properness search of `core._improper_search` on it, on the one rewrite
kernel `core._explore`. On a semiring table ~ must also respect the
addition, and B/~ is the semiring with the pushed addition."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (PROVED, REFUTED, UNKNOWN, ZERO, Blueprint,
                   BlueprintError, IdealDescriptor, TooLarge, _collapse,
                   _improper_search, _symbol_key, localize)


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
    """Refuse what the partition loop cannot run on: tables that are not
    finite, and carriers beyond the cap."""
    backend = blueprint.backend
    if backend.kind != "finite":
        raise TooLarge("congruences are implemented for finite tables")
    if len(backend.symbols) > 7:
        raise TooLarge("carrier larger than 7")


def _verdict(blueprint, cong, budget):
    """Proved / Refuted / Unknown for the partition `cong` of the carrier."""
    backend = blueprint.backend
    carrier = backend.symbols
    block_id = {x: i for i, block in enumerate(cong.partition)
                for x in block}
    # a ~ b forces ac ~ bc, and a + c ~ b + c on a semiring table (both
    # operations are commutative, and ~ is transitive, so this gives
    # ac ~ bd and a + c ~ b + d whenever c ~ d)
    tables = [t for t in (backend.mul_table, backend.add_table)
              if t is not None]
    for a in carrier:
        for b in carrier:
            if a < b and block_id[a] == block_id[b]:
                for c in carrier:
                    for t in tables:
                        if block_id[t[(a, c)]] != block_id[t[(b, c)]]:
                            return REFUTED
    quotient = quotient_by_congruence(blueprint, cong, budget)
    nonzero = [s for s in quotient.backend.symbols if s != ZERO]
    pair, cut = _improper_search(quotient, nonzero, budget)
    if pair is not None:
        return REFUTED
    return UNKNOWN if cut else PROVED


def is_congruence(blueprint, partition, budget=None):
    """Proved / Refuted / Unknown for the two congruence axioms; raises
    NotACongruence unless the blocks are nonempty, disjoint and cover the
    carrier.

    Multiplicativity, and on a semiring table additivity, are exhausted.
    The chain axiom holds iff the quotient B/~ is proper: no derivation
    identifies a nonzero class with another class or with 0. That is the
    properness search of `core._improper_search` on B/~; a search cut by
    the budget gives Unknown unless another one finds an identification.
    A semiring table without relations, such as the catalog's, gives a
    quotient without relations, where that search ends at once.
    """
    budget = budget or blueprint.budget
    _check_table(blueprint)
    cong = Congruence(blueprint, partition)
    members = sorted(x for block in cong.partition for x in block)
    if () in cong.partition or members != sorted(blueprint.backend.symbols):
        raise NotACongruence("blocks must be nonempty, disjoint and cover"
                             " the carrier")
    return _verdict(blueprint, cong, budget)


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
    budget = budget or blueprint.budget
    _check_table(blueprint)
    points = []
    complete = True
    for blocks in _set_partitions(sorted(blueprint.backend.symbols)):
        cong = Congruence(blueprint, blocks)
        verdict = _verdict(blueprint, cong, budget)
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
    """B/~ : blocks as symbols, with the pushed pre-addition, and on a
    semiring table the pushed addition (BlueprintError when ~ does not
    respect it)."""
    rep = {x: min(block, key=_symbol_key)
           for block in cong.partition for x in block}
    return _collapse(blueprint, rep, f"{blueprint.name or 'B'}/~",
                     budget or blueprint.budget,
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
