"""Blueprints: commutative monoids with zero carrying a generated pre-addition.

Two monoid backends cover everything in this package: finite multiplication
tables, and monomials over a finite coefficient blueprint with invertibility
flags and an integer identification lattice. Pre-additions are represented by
finite generator sets; membership in the generated congruence is decided on
finite tables (by a semiring's addition table, else by a binomial
completion) and semi-decided over monomials by a budgeted rewrite search
(sound, possibly incomplete).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .budget import Budget
from .snf import hnf_with_transform

PROVED = "Proved"
UNKNOWN = "Unknown"
REFUTED = "Refuted"

ZERO = "0"
ONE = "1"


class BlueprintError(Exception):
    pass


class MalformedBackend(BlueprintError):
    pass


class ImproperRelations(BlueprintError):
    pass


class ForeignElement(BlueprintError):
    pass


class NotAnIdeal(BlueprintError):
    pass


class ImproperIdeal(BlueprintError):
    pass


class UnsupportedIdeal(BlueprintError):
    pass


class TooLarge(BlueprintError):
    """The input exceeds the sizes a computation supports."""


# ---------------------------------------------------------------------------
# Backends


class FiniteTable:
    """A finite commutative monoid with zero, given by its full table.

    An optional addition table marks the blueprint as a semiring; derivability
    of a relation is then decided by evaluating both sides.
    """

    kind = "finite"

    def __init__(self, symbols, mul, add=None):
        self.symbols = tuple(symbols)
        self.mul_table = dict(mul)
        self.add_table = dict(add) if add is not None else None
        self._sym_set = set(self.symbols)
        self._validate()
        self._units = tuple(a for a in self.symbols
                            if any(self.mul_table[(a, b)] == ONE
                                   for b in self.symbols))

    def _validate(self):
        syms = self.symbols
        if ZERO not in self._sym_set:
            raise MalformedBackend("carrier must contain 0")
        if len(syms) > 1 and ONE not in self._sym_set:
            raise MalformedBackend("carrier must contain 1")
        if len(self._sym_set) != len(syms):
            raise MalformedBackend("duplicate carrier symbols")
        for a in syms:
            for b in syms:
                if (a, b) not in self.mul_table:
                    if (b, a) in self.mul_table:
                        self.mul_table[(a, b)] = self.mul_table[(b, a)]
                    else:
                        raise MalformedBackend(f"missing product {a}*{b}")
                if self.mul_table[(a, b)] not in self._sym_set:
                    raise MalformedBackend(f"product {a}*{b} leaves the carrier")
        for a in syms:
            if self.mul_table[(a, ZERO)] != ZERO:
                raise MalformedBackend("0 must be absorbing")
            if len(syms) > 1 and self.mul_table[(a, ONE)] != a:
                raise MalformedBackend("1 must be neutral")
            for b in syms:
                if self.mul_table[(a, b)] != self.mul_table[(b, a)]:
                    raise MalformedBackend("multiplication must be commutative")
                for c in syms:
                    if (self.mul_table[(self.mul_table[(a, b)], c)]
                            != self.mul_table[(a, self.mul_table[(b, c)])]):
                        raise MalformedBackend("multiplication must be associative")
        if self.add_table is not None:
            for a in syms:
                if self.add_table[(a, ZERO)] != a:
                    raise MalformedBackend("0 must be neutral for addition")
                for b in syms:
                    if self.add_table[(a, b)] != self.add_table[(b, a)]:
                        raise MalformedBackend("addition must be commutative")

    def normalize(self, elem):
        if elem not in self._sym_set:
            raise ForeignElement(f"{elem!r} not in carrier")
        return elem

    def mul(self, a, b):
        return self.mul_table[(a, b)]

    def is_zero(self, elem):
        return elem == ZERO

    def one(self):
        """1, or 0 on the one-symbol zero table, where 1 = 0."""
        return ONE if len(self.symbols) > 1 else ZERO

    def zero(self):
        return ZERO

    def degree(self, elem):
        return 0

    def sort_key(self, elem):
        return (0, elem)

    def divide(self, t, l):
        return [s for s in self.symbols if self.mul_table[(s, l)] == t]

    def multipliers(self, max_degree):
        return [s for s in self.symbols if s != ZERO]

    def units(self):
        return self._units

    def is_unit(self, elem):
        return elem in self._units

    def power(self, a, e):
        if e < 0:
            inv = next((b for b in self.symbols if self.mul_table[(a, b)] == ONE), None)
            if inv is None:
                raise BlueprintError(f"{a} is not invertible")
            return self.power(inv, -e)
        r = ONE
        for _ in range(e):
            r = self.mul_table[(r, a)]
        return r

    def render(self, elem):
        return elem

    def eval_sum(self, terms):
        if self.add_table is None:
            raise BlueprintError("no addition table")
        acc = ZERO
        for t in terms:
            acc = self.add_table[(acc, t)]
        return acc


class MonomialBackend:
    """Monomials c * T^e over a finite coefficient blueprint.

    `lattice` identifies monomials: a vector v with character chi means
    T^v = chi holds in the monoid. Lattice support columns are forced
    invertible, and normal forms are canonical coset representatives.
    """

    kind = "monomial"

    def __init__(self, coeff_bp, gens, inverted=(), lattice=()):
        self.coeff = coeff_bp
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise MalformedBackend("duplicate generator names")
        if coeff_bp.backend.kind != "finite":
            raise MalformedBackend("coefficient blueprint must be a finite table")
        inv = set(inverted)
        for vec, _char in lattice:
            if len(vec) != len(self.gens):
                raise MalformedBackend("lattice vector has wrong length")
            inv.update(g for g, v in zip(self.gens, vec) if v)
        unknown = inv - set(self.gens)
        if unknown:
            raise MalformedBackend(f"invertibility flags on unknown generators {unknown}")
        self.inverted = frozenset(inv)
        self.lattice = self._reduce_lattice(lattice)
        self._pivots = tuple(sorted(
            ((next(i for i, x in enumerate(vec) if x), vec, char)
             for vec, char in self.lattice), key=lambda r: r[0]))
        self._nzero = (ZERO, (0,) * len(self.gens))
        # Lattice-free divisibility data for _monomial_divides: the pairs
        # (a, c*a) over nonzero coefficients c, and the indices whose
        # exponents may not go negative.
        syms = coeff_bp.backend.symbols
        self._coeff_multiples = frozenset(
            (a, coeff_bp.mul(c, a)) for a in syms for c in syms if c != ZERO)
        self._fixed = tuple(i for i, name in enumerate(self.gens)
                            if name not in self.inverted)

    def _reduce_lattice(self, lattice):
        coeff = self.coeff
        rows, chars = [], []
        for vec, char in lattice:
            if not coeff.is_unit(char):
                raise MalformedBackend("lattice character must be a unit")
            rows.append(list(vec))
            chars.append(char)
        if not rows:
            return ()
        basis, transforms, kernel = hnf_with_transform(rows)

        def combine(trow):
            c = ONE
            for base_char, t in zip(chars, trow):
                if t:
                    c = coeff.mul(c, coeff.backend.power(base_char, t))
            return c

        for trow in kernel:
            c = combine(trow)
            if c != ONE:
                raise ImproperRelations(
                    f"identification lattice forces 1 = {c} among coefficients")
        out = [(tuple(b), combine(t)) for b, t in zip(basis, transforms)]
        out.sort(key=lambda r: r[0])
        return tuple(out)

    def _reduce_vector(self, vec, char=ONE):
        vec = list(vec)
        coeff = self.coeff
        for p, bvec, bchar in self._pivots:
            q = vec[p] // bvec[p]
            if q:
                vec = [a - q * b for a, b in zip(vec, bvec)]
                char = coeff.mul(char, coeff.backend.power(bchar, q))
        return vec, char

    # element protocol -----------------------------------------------------
    def normalize(self, elem):
        coeff, exps = elem
        coeff = self.coeff.backend.normalize(coeff)
        if len(exps) != len(self.gens):
            raise ForeignElement("exponent vector has wrong length")
        if coeff == ZERO:
            return self._nzero
        vec, char = self._reduce_vector(exps)
        coeff = self.coeff.mul(coeff, char)
        if coeff == ZERO:
            return self._nzero
        for name, e in zip(self.gens, vec):
            if e < 0 and name not in self.inverted:
                raise ForeignElement(f"negative exponent on non-invertible {name}")
        return (coeff, tuple(vec))

    def mul(self, a, b):
        (c1, e1), (c2, e2) = a, b
        c = self.coeff.mul(c1, c2)
        if c == ZERO:
            return self._nzero
        return self.normalize((c, tuple(x + y for x, y in zip(e1, e2))))

    def is_zero(self, elem):
        return elem[0] == ZERO

    def one(self):
        return (ONE, (0,) * len(self.gens))

    def zero(self):
        return self._nzero

    def degree(self, elem):
        return sum(abs(e) for e in elem[1])

    def sort_key(self, elem):
        return (1, elem[0], elem[1])

    def divide(self, t, l):
        """Multipliers m with m*l == t."""
        if self.is_zero(t) or self.is_zero(l):
            return []
        out = []
        diff = tuple(x - y for x, y in zip(t[1], l[1]))
        for c in self.coeff.backend.symbols:
            if c == ZERO or self.coeff.mul(c, l[0]) != t[0]:
                continue
            try:
                m = self.normalize((c, diff))
            except ForeignElement:
                continue
            if self.mul(m, l) == t:
                out.append(m)
        return out

    def multipliers(self, max_degree):
        coeffs = [c for c in self.coeff.backend.symbols if c != ZERO]
        out = set()
        for c in coeffs:
            for v in self._exp_vectors(max_degree):
                try:
                    out.add(self.normalize((c, v)))
                except ForeignElement:
                    pass
        return sorted(out, key=self.sort_key)

    @lru_cache(maxsize=8)
    def _exp_vectors(self, max_degree):
        ranges = []
        for name in self.gens:
            if name in self.inverted:
                ranges.append(range(-max_degree, max_degree + 1))
            else:
                ranges.append(range(0, max_degree + 1))
        return tuple(v for v in itertools.product(*ranges)
                     if sum(abs(x) for x in v) <= max_degree)

    def is_unit(self, elem):
        if self.is_zero(elem):
            return False
        coeff, exps = self.normalize(elem)
        if not self.coeff.is_unit(coeff):
            return False
        return all(e == 0 or name in self.inverted
                   for name, e in zip(self.gens, exps))

    def power(self, a, e):
        if e == 0:
            return self.one()
        if e < 0:
            coeff, exps = a
            cinv = self.coeff.backend.power(coeff, -1)
            return self.power(self.normalize((cinv, tuple(-x for x in exps))), -e)
        r = self.one()
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def gen_element(self, name):
        i = self.gens.index(name)
        e = [0] * len(self.gens)
        e[i] = 1
        return self.normalize((ONE, tuple(e)))

    def coeff_element(self, sym):
        return self.normalize((sym, (0,) * len(self.gens)))

    def render(self, elem):
        coeff, exps = elem
        if coeff == ZERO:
            return "0"
        parts = []
        if coeff != ONE or not any(exps):
            parts.append(coeff)
        for name, e in zip(self.gens, exps):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Blueprint


class Blueprint:
    """A monoid backend plus a finite set of pre-addition generators."""

    def __init__(self, backend, relations=(), budget=None, name=None,
                 check_proper=True):
        """Normalize the relations and, with `check_proper`, run the
        properness guard (`improper_pair` at `_guard_budget`): the blueprint
        is decided, certified or searched proper, else ImproperRelations."""
        self.backend = backend
        self.budget = budget or Budget()
        self.name = name
        rels = []
        for lhs, rhs in relations:
            pair = self._normalize_relation(lhs, rhs)
            if pair is not None:
                rels.append(pair)
        self.relations = tuple(sorted(set(rels)))
        self._oriented = tuple(side for l, r in self.relations
                               for side in ((l, r), (r, l)))
        if check_proper:
            pair = improper_pair(self, _guard_budget(self.budget))
            if pair is not None:
                a, b = pair
                raise ImproperRelations(
                    f"relations identify {self.render(a)} and {self.render(b)}")

    # -- basic element handling -------------------------------------------
    def normalize(self, elem):
        return self.backend.normalize(elem)

    def normalize_sum(self, terms):
        out = [self.backend.normalize(t) for t in terms]
        out = [t for t in out if not self.backend.is_zero(t)]
        out.sort(key=self.backend.sort_key)
        return tuple(out)

    def _normalize_relation(self, lhs, rhs):
        l, r = self.normalize_sum(lhs), self.normalize_sum(rhs)
        if l == r:
            return None
        return (l, r) if l <= r else (r, l)

    def mul(self, a, b):
        return self.backend.mul(a, b)

    def one(self):
        return self.backend.one()

    def zero(self):
        return self.backend.zero()

    def is_unit(self, elem):
        return self.backend.is_unit(elem)

    def render(self, elem):
        return self.backend.render(elem)

    def render_sum(self, terms):
        if not terms:
            return "0"
        return " + ".join(self.render(t) for t in terms)

    def __repr__(self):
        n = self.name or f"<{self.backend.kind} blueprint>"
        return f"Blueprint({n}, {len(self.relations)} relations)"

    @property
    def is_semiring(self):
        return (self.backend.kind == "finite"
                and self.backend.add_table is not None)

    def oriented_relations(self):
        return list(self._oriented)

    def carrier(self):
        if self.backend.kind != "finite":
            raise BlueprintError("infinite carrier; use membership predicates")
        return self.backend.symbols

    def element(self, text):
        return parse_element(self, text)

    def sum_of(self, text):
        text = text.strip()
        if not text or text == "0":
            return ()
        return self.normalize_sum([parse_element(self, t.strip())
                                   for t in text.split("+")])


def _guard_budget(budget):
    return Budget(min(budget.max_degree, 3), budget.max_terms,
                  min(budget.max_steps, 4000))


def _per_blueprint(build):
    """`build(bp)`, built on first use and then kept on the blueprint, which
    is not mutated after construction."""
    name = "_cached" + build.__name__

    def get(bp):
        try:
            return bp.__dict__[name]
        except KeyError:
            out = bp.__dict__[name] = build(bp)
            return out
    return get


# ---------------------------------------------------------------------------
# Element parsing (JSON monomial grammar)


def parse_element(bp, text):
    text = text.strip()
    backend = bp.backend
    if backend.kind == "finite":
        return backend.normalize(text)
    if text == "0":
        return backend.zero()
    coeff = ONE
    exps = [0] * len(backend.gens)
    for part in text.split("*"):
        part = part.strip()
        if not part:
            raise ForeignElement(f"bad monomial {text!r}")
        if "^" in part:
            var, _, pw = part.partition("^")
            var = var.strip()
            if var not in backend.gens:
                raise ForeignElement(f"unknown generator {var!r}")
            exps[backend.gens.index(var)] += int(pw)
        elif part in backend.gens:
            exps[backend.gens.index(part)] += 1
        else:
            coeff = bp.backend.coeff.mul(coeff, bp.backend.coeff.backend.normalize(part))
    return backend.normalize((coeff, tuple(exps)))


# The layers import what they need from the above, so they load last; core
# serves every name they bind, `improper_pair` for `Blueprint` among them.
from . import derivation, ideals, morphisms, predicates

for _layer in (derivation, morphisms, ideals, predicates):
    globals().update((k, v) for k, v in vars(_layer).items() if k[:2] != "__")
