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

import heapq
import itertools
import random
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

from .budget import Budget
from .fields import gf, prime_powers_upto
from .snf import (hnf_with_transform, in_lattice, lattice_rank,
                  quotient_group_invariants)

PROVED = "Proved"
UNKNOWN = "Unknown"
REFUTED = "Refuted"

ZERO = "0"
ONE = "1"

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


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
        properness guard: the blueprint is certified or searched proper
        (`improper_pair` at `_guard_budget`), else ImproperRelations."""
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


def mk_blueprint(backend, relations=(), budget=None, name=None):
    """Validate and build a blueprint; runs the properness guard."""
    return Blueprint(backend, relations, budget=budget, name=name)


# ---------------------------------------------------------------------------
# The derivation engine


def _scale(bp, m, terms):
    """The nonzero products m*t, t in terms."""
    mul, is_zero = bp.backend.mul, bp.backend.is_zero
    return [x for t in terms if not is_zero(x := mul(m, t))]


class _RewriteMemo:
    """What the rewrite kernel computes for one search, so that each piece is
    computed once: the multipliers that carry a relation's left side onto a
    term, and per (multiplier, relation) the scaled sides. Tied to one
    blueprint and one degree bound; a search drops it when it returns."""

    __slots__ = ("bp", "max_degree", "quotients", "cands", "left", "right",
                 "adds")

    def __init__(self, bp, max_degree):
        self.bp = bp
        self.max_degree = max_degree
        self.quotients = {}  # (t, l) -> backend.divide(t, l)
        self.cands = {}   # (t, i) -> multipliers m with m*l == t, l in L_i
        self.left = {}    # (m, i) -> m*L_i, or () over the degree bound
        self.right = {}   # (m, i) -> m*R_i
        self.adds = {}    # i with L_i empty -> the nonempty m*R_i

    def candidates(self, t, i, L):
        out = self.cands.get((t, i))
        if out is None:
            out = self.cands[t, i] = set()
            for l in L:
                q = self.quotients.get((t, l))
                if q is None:
                    q = self.quotients[t, l] = self.bp.backend.divide(t, l)
                out.update(q)
        return out

    def scaled_left(self, m, i, L):
        out = self.left.get((m, i))
        if out is None:
            out = self.left[m, i] = (
                tuple(_scale(self.bp, m, L))
                if self.bp.backend.degree(m) <= self.max_degree else ())
        return out

    def scaled_right(self, m, i, R):
        out = self.right.get((m, i))
        if out is None:
            out = self.right[m, i] = _scale(self.bp, m, R)
        return out

    def additions(self, i, R):
        out = self.adds.get(i)
        if out is None:
            mults = self.bp.backend.multipliers(self.max_degree)
            out = self.adds[i] = [add for add in (_scale(self.bp, m, R)
                                                  for m in mults) if add]
        return out


def _rewrites(bp, u, budget, memo=None):
    """One-step rewrites of the formal sum u under the generated congruence.

    Sums are sorted by their terms: both backends' `sort_key` orders as the
    elements themselves do.
    """
    if memo is None:
        memo = _RewriteMemo(bp, budget.max_degree)
    max_terms = budget.max_terms
    size = len(u)
    terms = set(u)
    for i, (L, R) in enumerate(bp._oriented):
        if not L:
            for add in memo.additions(i, R):
                if size + len(add) <= max_terms:
                    yield tuple(sorted((*u, *add)))
            continue
        cands = set()
        for t in terms:
            cands.update(memo.candidates(t, i, L))
        for m in sorted(cands):
            mL = memo.scaled_left(m, i, L)
            if not mL:
                continue
            v = list(u)
            try:
                for x in mL:
                    v.remove(x)
            except ValueError:   # m*L is not contained in u
                continue
            mR = memo.scaled_right(m, i, R)
            if size - len(mL) + len(mR) <= max_terms:
                v += mR
                v.sort()
                yield tuple(v)


def _explore(bp, start, budget, targets=frozenset(), collect_singles=False,
             memo=None):
    """Bounded BFS through the congruence class of `start`.

    Returns (hit_target, singles_found, truncated). `memo` lets searches on
    the same blueprint and degree bound share the kernel's work.
    """
    if memo is None:
        memo = _RewriteMemo(bp, budget.max_degree)
    seen = {start}
    frontier = [start]
    singles = set()
    steps = 0
    truncated = False
    while frontier:
        nxt = []
        for u in frontier:
            for v in _rewrites(bp, u, budget, memo):
                steps += 1
                if steps > budget.max_steps:
                    return False, singles, True
                if v in seen:
                    continue
                seen.add(v)
                if v in targets:
                    return True, singles, truncated
                if collect_singles and len(v) == 1:
                    singles.add(v[0])
                nxt.append(v)
        frontier = nxt
    return False, singles, truncated


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


# Rules of a completion past which it gives up: uncapped, the completion of
# roots_sums(7) runs for minutes, where its BFS answers in milliseconds; at
# 64 rules it gives up in about 50 ms.
_COMPLETION_CAP = 64


def _scaled_pairs(relations, multipliers, mul, zero):
    """The pairs (m*L, m*R), m in `multipliers` and L = R in `relations`,
    products by `mul`, with the products equal to `zero` dropped: a finite
    table's or a module's relations."""
    def scale(m, terms):
        return [x for t in terms if (x := mul(m, t)) != zero]
    return [(scale(m, L), scale(m, R)) for L, R in relations
            for m in multipliers]


class _Completion:
    """The reduced Gröbner basis, read as rewrite rules, of the binomial
    ideal of a finite pre-addition.

    A sum of `symbols`, the nonzero elements, is an exponent vector over
    them, and the pre-addition is the monoid congruence on these vectors
    generated by `pairs` of sums: for a finite table or a module, the pairs
    (m*L, m*R) of `_scaled_pairs`, m a nonzero symbol and L = R a relation.
    u ~ v iff x^u - x^v lies in the ideal of those binomials
    (Eisenbud-Sturmfels, Duke Math. J. 84, 1996), so u ~ v iff u and v
    have the same normal form under the completed rules
    (Ballantyne-Lankford, Comp. Math. Appl. 7, 1981). Buchberger's
    algorithm in graded reverse lex order: the pair with the least lcm
    first, pairs with coprime leading terms skipped, the basis kept reduced
    on each insert. More than `_COMPLETION_CAP` rules raise TooLarge.
    """

    def __init__(self, symbols, pairs):
        self.symbols = list(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.rules = {}   # id -> (lhs, rhs), lhs > rhs
        self._steps = {}  # id -> (bitmask of lhs, lhs entries, rhs - lhs)
        self._pairs = []  # heap of (key(lcm), id, id, lcm)
        self._ids = itertools.count()
        pending = sorted((self._key(u), u, v) for L, R in pairs
                         if (u := self.vector(L)) != (v := self.vector(R)))
        self._pending = [(u, v) for _, u, v in reversed(pending)]
        while True:
            while self._pending:
                self._equate(*self._pending.pop())
            if not self._pairs:
                break
            _, i, j, lcm = heapq.heappop(self._pairs)
            if i in self.rules and j in self.rules:
                # the lcm rewritten by each of the two rules
                self._equate(*(tuple(a - b + c for a, b, c
                                     in zip(lcm, *self.rules[k]))
                               for k in (i, j)))

    @staticmethod
    def _key(u):
        """Graded reverse lex: by degree, then the smaller last exponent
        is the larger monomial."""
        return sum(u), tuple(-e for e in reversed(u))

    def vector(self, terms):
        u = [0] * len(self.symbols)
        for t in terms:
            u[self.index[t]] += 1
        return tuple(u)

    def _put(self, k, lhs, rhs):
        self.rules[k] = lhs, rhs
        self._steps[k] = (sum(1 << i for i, e in enumerate(lhs) if e),
                          tuple((i, e) for i, e in enumerate(lhs) if e),
                          tuple((i, b - a) for i, (a, b)
                                in enumerate(zip(lhs, rhs)) if a != b))

    def _reduce(self, u):
        """The normal form of the vector u under the rules so far."""
        u = list(u)
        support = sum(1 << k for k, e in enumerate(u) if e)
        done = False
        while not done:
            done = True
            for need, lhs, delta in self._steps.values():
                if need & support == need and \
                        (times := min(u[k] // e for k, e in lhs)):
                    for k, d in delta:
                        u[k] += times * d
                        if u[k]:
                            support |= 1 << k
                        else:
                            support &= ~(1 << k)
                    done = False
        return tuple(u)

    def _equate(self, u, v):
        u, v = self._reduce(u), self._reduce(v)
        if u == v:
            return
        if self._key(u) < self._key(v):
            u, v = v, u
        for k, (lhs, rhs) in list(self.rules.items()):
            if all(a >= b for a, b in zip(lhs, u)):
                del self.rules[k], self._steps[k]
                self._pending.append((lhs, rhs))
        new = next(self._ids)
        self._put(new, u, v)
        for k, (lhs, rhs) in list(self.rules.items()):
            if k != new:
                self._put(k, lhs, self._reduce(rhs))
                if any(a and b for a, b in zip(lhs, u)):
                    lcm = tuple(map(max, lhs, u))
                    heapq.heappush(self._pairs, (self._key(lcm), k, new, lcm))
        if len(self.rules) > _COMPLETION_CAP:
            raise TooLarge(f"completion past {_COMPLETION_CAP} rules")

    def normal_form(self, terms):
        """The normal form of a sum of nonzero symbols, as a sorted sum."""
        u = self._reduce(self.vector(terms))
        return tuple(s for s, e in zip(self.symbols, u) for _ in range(e))


def _improper_pair(symbols, pairs, zero):
    """The pair that an uncut `_improper_search` over `symbols` returns, read
    off the normal forms of the completion of `pairs`: (zero, m) for the
    first m whose normal form is empty, else (m, b) for the first m that
    shares its normal form with another symbol, b the least such; None
    when the sums are proper. Past `_COMPLETION_CAP` rules, TooLarge. When
    every pair has two terms or more a side, no rewrite applies to the
    empty sum or to a single term, and no completion is needed."""
    if all(len(L) > 1 and len(R) > 1 for L, R in pairs):
        return None
    done = _Completion(symbols, pairs)
    forms = {s: done.normal_form((s,)) for s in symbols}
    for m in symbols:
        if not forms[m]:
            return zero, m
        same = [b for b in symbols if b != m and forms[b] == forms[m]]
        if same:
            return m, min(same)
    return None


@_per_blueprint
def _completion(bp):
    """The completion of a finite table's pre-addition, or None past its
    cap."""
    symbols = [s for s in bp.backend.symbols if s != ZERO]
    try:
        return _Completion(symbols, _scaled_pairs(bp.relations, symbols,
                                                  bp.backend.mul, ZERO))
    except TooLarge:
        return None


def _derive3(bp, l, r, budget):
    """Three-valued core: Proved / Refuted / Unknown on normalized sums.

    Decided without the budget on finite tables: by the addition table of a
    semiring, else by the normal forms of `_Completion`, whose Refuted
    carries the two normal forms. Where the completion outgrows its cap, and
    on monomial backends, Proved comes from a bounded search and nothing is
    refuted."""
    if l == r:
        return PROVED, None
    if bp.is_semiring:
        vl = bp.backend.eval_sum(l)
        vr = bp.backend.eval_sum(r)
        return (PROVED, None) if vl == vr else (REFUTED, (vl, vr))
    if not bp.relations:
        # The pre-addition generated by nothing relates sums iff their
        # zero-free normal forms coincide.
        return REFUTED, None
    if bp.backend.kind == "finite" and (done := _completion(bp)) is not None:
        nl, nr = done.normal_form(l), done.normal_form(r)
        return (PROVED, None) if nl == nr else (REFUTED, (nl, nr))
    half = Budget(budget.max_degree, budget.max_terms,
                  max(1, budget.max_steps // 2))
    memo = _RewriteMemo(bp, half.max_degree)
    hit, _, _ = _explore(bp, l, half, targets=frozenset([r]), memo=memo)
    if hit:
        return PROVED, None
    hit, _, _ = _explore(bp, r, half, targets=frozenset([l]), memo=memo)
    if hit:
        return PROVED, None
    return UNKNOWN, None


def derive(bp, lhs, rhs, budget=None):
    """Proved when lhs = rhs lies in the generated pre-addition, else
    Unknown. Decided on finite tables, which read no budget unless their
    completion outgrows its cap (see `_derive3`); semi-decided by a bounded
    search over monomials."""
    budget = budget or bp.budget
    l = bp.normalize_sum(lhs)
    r = bp.normalize_sum(rhs)
    verdict, _ = _derive3(bp, l, r, budget)
    return PROVED if verdict == PROVED else UNKNOWN


def _improper_search(bp, elements, budget):
    """The properness search: one search per element, in order and with one
    shared memo, up to the first element m that is identified with
    something. That gives (0, m) when its search reaches the empty sum, else
    (m, b) with b the least element the search reaches. Returns the pair or
    None, and whether the budget cut a search short. A derivation is
    symmetric, so a search that returns uncut has seen m's whole class."""
    if not bp.relations:
        return None, False
    memo = _RewriteMemo(bp, budget.max_degree)
    cut = False
    for m in elements:
        hit, singles, truncated = _explore(bp, (m,), budget, targets={()},
                                           collect_singles=True, memo=memo)
        cut = cut or truncated
        if hit:
            return (bp.backend.zero(), m), cut
        if singles:
            return (m, min(singles)), cut
    return None, cut


def _certified_proper(bp):
    """True when `bp` is certified proper: a monomial blueprint over a
    coefficient table without relations, whose relations all read
    0 = a + b with units a and b, all ratios b/a being one u with u*u = 1.
    Without relations nothing is identified, so it is proper.

    Proof. Write M' for the nonzero monomials. A rewrite step inserts or
    removes a chunk c*a + c*b with c in M' (c*a and c*b are in M', as a and
    b are units), so u ~ v puts u - v in the subgroup I of Z[M'] spanned by
    the x + x*(b/a), x in M'. Let H be the subgroup of M^x x {+1, -1}
    generated by the pairs (b/a, -1), acting on Z[M'] by (w, s)x = s*w*x.
    Then I is spanned by the x - h*x with h in H, and Z[M']/I is the
    coinvariant module: one Z or Z/2 per H-orbit of M', in which no x is 0
    and x = y only if y = w*x for some (w, +1) in H. If every b/a is u with
    u*u = 1, then H = {(1, +1), (u, -1)}, so no single element is
    identified with 0 or with another element."""
    backend = bp.backend
    if backend.kind != "monomial" or backend.coeff.relations:
        return False
    ratios = set()
    for l, r in bp.relations:
        if l or len(r) != 2 or not all(map(backend.is_unit, r)):
            return False
        ratios.add(backend.mul(r[1], backend.power(r[0], -1)))
    if not ratios:
        return True
    u = ratios.pop()
    return not ratios and backend.mul(u, u) == backend.one()


def improper_pair(bp, budget):
    """The first derivable identification of a probe element with 0, as
    (0, p), or with another element, or None: certified (see
    `_certified_proper`) or searched, where a search cut by the budget
    finds nothing."""
    if not bp.relations or _certified_proper(bp):
        return None
    return _improper_search(bp, _probe_elements(bp), budget)[0]


def _probe_elements(bp):
    backend = bp.backend
    probes = []
    if backend.kind == "finite":
        probes.extend(s for s in backend.symbols if s != ZERO)
    else:
        probes.append(backend.one())
        for g in backend.gens:
            probes.append(backend.gen_element(g))
        for g, h in itertools.combinations_with_replacement(backend.gens, 2):
            probes.append(backend.mul(backend.gen_element(g),
                                      backend.gen_element(h)))
    for l, r in bp.relations:
        probes.extend(l)
        probes.extend(r)
    seen = []
    for p in probes:
        p = backend.normalize(p)
        if not backend.is_zero(p) and p not in seen:
            seen.append(p)
    return seen


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


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class IdealDescriptor:
    blueprint: Blueprint
    given: tuple
    minimal: tuple          # minimal generators (monomial) or the full set (finite)
    saturated = "exact"     # every closure is decided

    def contains(self, elem):
        bp = self.blueprint
        backend = bp.backend
        elem = backend.normalize(elem)
        if backend.is_zero(elem):
            return True
        if backend.kind == "finite":
            return elem in self.minimal
        return any(_monomial_divides(backend, g, elem) for g in self.minimal)

    def is_proper(self):
        return not self.contains(self.blueprint.one())

    def generator_names(self):
        bp = self.blueprint
        if bp.backend.kind == "finite":
            gens = [s for s in self.minimal if s != ZERO]
            return tuple(sorted(gens))
        return tuple(sorted(bp.render(g) for g in self.minimal))

    def __repr__(self):
        inner = ", ".join(self.generator_names())
        return f"({inner})" if inner else "(0)"


def _monomial_divides(backend, g, m):
    if backend.is_zero(g):
        return backend.is_zero(m)
    if not backend.lattice and not backend.is_zero(m):
        # Without a lattice, normalize((c, m - g)) is (c, m - g) when no
        # fixed exponent goes negative and raises otherwise, and then
        # (c, m - g) * g == m iff c * g0 == m0: the loop below reduces to this.
        ge, me = g[1], m[1]
        return ((g[0], m[0]) in backend._coeff_multiples
                and all(me[i] >= ge[i] for i in backend._fixed))
    diff = tuple(x - y for x, y in zip(m[1], g[1]))
    for c in backend.coeff.backend.symbols:
        if c == ZERO or backend.coeff.mul(c, g[0]) != m[0]:
            continue
        try:
            h = backend.normalize((c, diff))
        except ForeignElement:
            continue
        if backend.mul(h, g) == m:
            return True
    return False


def additive_closure(bp, elems, budget=None):
    """Smallest ideal containing `elems`: closed under multiplication by the
    monoid and under the rule (sum a_i + c = sum b_j, a_i and b_j in I) => c in I.
    No backend reads the budget. Finite tables take the least fixpoint of
    `_ideal_rules`. A monomial ideal is its minimal generators g. For a
    relation with terms T, a term t once in T and a coefficient c != 0, the
    rule adds h*c*t for the minimal h of the intersection, by lcms, of the
    colon ideals (I : c*s), s != t. Units never change membership, so
    (I : c*s) is generated by the max(g - s, 0) on non-inverted columns
    that it holds (Cox-Little-O'Shea, "Ideals, Varieties, and Algorithms",
    ch. 4 §4). Dickson's lemma ends the loop."""
    backend = bp.backend
    if backend.kind == "finite":
        syms = backend.symbols
        start = {ZERO, *(backend.normalize(e) for e in elems)}
        members = _close(_ideal_rules(bp), _bits(syms, start))
        return IdealDescriptor(bp, bp.normalize_sum(elems),
                               tuple(sorted(_members(syms, members))))
    divides, cmul = partial(_monomial_divides, backend), backend.coeff.mul
    coeffs = [c for c in backend.coeff.backend.symbols if c != ZERO]
    fixed = [i in backend._fixed for i in range(len(backend.gens))]

    def colon(c, s):
        cands = ((g, tuple(max(a - b, 0) if f else 0
                           for a, b, f in zip(g[1], s[1], fixed))) for g in mins)
        return [v for g, v in cands if divides(g, backend.mul((c, v), s))]

    mins = _minimal([m for m in map(backend.normalize, elems)
                     if not backend.is_zero(m)], divides)
    changed = bool(bp.relations)
    while changed:
        changed = False
        for l, r in bp.relations:
            terms = l + r
            for t, c in itertools.product(terms, coeffs):
                if terms.count(t) != 1 or cmul(c, t[0]) == ZERO:
                    continue
                J = [(0,) * len(fixed)]
                for s in terms:
                    if s != t and cmul(c, s[0]) != ZERO:
                        J = _minimal((tuple(map(max, a, b)) for a in J
                                      for b in colon(c, s)),
                                     lambda a, b: all(map(int.__le__, a, b)))
                grown = _minimal(
                    mins + [backend.mul((c, h), t) for h in J], divides)
                changed, mins = changed or grown != mins, grown
    return IdealDescriptor(bp, bp.normalize_sum(elems),
                           tuple(sorted(mins, key=backend.sort_key)))


def _minimal(items, divides):
    """The items that no other divides, in input order; of two that divide
    each other the first is kept."""
    out = []
    for x in items:
        if not any(divides(w, x) for w in out):
            out = [w for w in out if not divides(x, w)]
            out.append(x)
    return out


def _closure_rules(carrier, actors, act, relations):
    """Horn rules over bitmasks of `carrier` (bit i for carrier[i]), a dict
    premise -> conclusion: x => act(b, x) for b in `actors`, and for each
    oriented relation (L, R), a term once in L and not in R is forced when
    all other terms are in. Their fixpoints read no budget (Dowling-Gallier,
    J. Logic Programming 1, 1984)."""
    bit = {x: 1 << i for i, x in enumerate(carrier)}
    rules = {bit[x]: _bits(carrier, {act(b, x) for b in actors})
             for x in carrier}
    for L, R in relations:
        premise = _bits(carrier, {*L, *R})
        for t in set(L).difference(R):
            if L.count(t) == 1:
                key = premise & ~bit[t]
                rules[key] = rules.get(key, 0) | bit[t]
    return rules


def _close(rules, members):
    """The least bitmask above `members` that is closed under `rules`."""
    changed = True
    while changed:
        changed = False
        for premise, conclusion in rules.items():
            if premise & members == premise and conclusion & ~members:
                members |= conclusion
                changed = True
    return members


def _closed(rules, members):
    return not any(premise & members == premise and conclusion & ~members
                   for premise, conclusion in rules.items())


def _bits(carrier, elems):
    return sum(1 << i for i, x in enumerate(carrier) if x in elems)


def _members(carrier, mask):
    return [x for i, x in enumerate(carrier) if mask >> i & 1]


@_per_blueprint
def _ideal_rules(bp):
    """The closure rules of ideals of a finite table: the relations scaled by
    every nonzero m, and each sum a + b = c of a semiring table as the
    relation [c] = [a, b], both ways round. These have the closed sets of
    the rule "c is forced when c plus at most two members sums to a sum of
    at most two members": as 0 is neutral and addition commutative, both
    say that members are closed under sums and that x + c = y, x and y
    members, forces c."""
    backend = bp.backend
    rels = _scaled_pairs(bp.oriented_relations(), backend.multipliers(0),
                         backend.mul, ZERO)
    if bp.is_semiring:
        for (a, b), c in backend.add_table.items():
            rels += [((c,), (a, b)), ((a, b), (c,))]
    return _closure_rules(backend.symbols, backend.symbols, backend.mul, rels)


def is_prime_ideal(bp, ideal):
    """True or False, never Unknown: is the complement a multiplicative set?"""
    if not ideal.is_proper():
        raise NotAnIdeal("ideal is not proper")
    backend = bp.backend
    if backend.kind == "finite":
        comp = [s for s in backend.symbols if s not in ideal.minimal]
        if ONE not in comp:
            return False
        return all(backend.mul(a, b) in comp for a in comp for b in comp)
    for g in ideal.minimal:
        coeff, exps = g
        if not backend.coeff.is_unit(coeff):
            return False
        nz = [e for e in exps if e]
        if len(nz) != 1 or nz[0] != 1:
            return False
    if not backend.lattice:
        # A proper ideal's generators are non-inverted variables in S; a
        # product of two variables outside S has exponent 0 on all of S, so
        # with no lattice no generator divides it.
        return True
    varset = {backend.gens[i] for g in ideal.minimal
              for i, e in enumerate(g[1]) if e}
    outside = [backend.gen_element(n) for n in backend.gens if n not in varset]
    for a in outside:
        for b in outside:
            if ideal.contains(backend.mul(a, b)):
                return False
    return True


# ---------------------------------------------------------------------------
# Quotients


def quotient_by_ideal(bp, ideal, budget=None):
    """B/I with I collapsed to zero and relations pushed forward.

    Pushed relations that identify two distinct surviving elements migrate
    into the monoid structure (identification lattice / symbol merge) so the
    quotient stays proper. Satisfies the universal property: morphisms killing
    I factor uniquely through the result.
    """
    budget = budget or bp.budget
    if not ideal.is_proper():
        raise ImproperIdeal("cannot quotient by an improper ideal")
    backend = bp.backend
    if backend.kind == "finite":
        return _finite_quotient(bp, ideal, budget)

    kill = set()
    for g in ideal.minimal:
        coeff, exps = g
        nz = [(i, e) for i, e in enumerate(exps) if e]
        if len(nz) != 1 or nz[0][1] != 1 or not backend.coeff.is_unit(coeff):
            raise UnsupportedIdeal("monomial quotients need variable-generated ideals")
        kill.add(nz[0][0])
    keep = [i for i in range(len(backend.gens)) if i not in kill]
    gens = tuple(backend.gens[i] for i in keep)
    inverted = tuple(n for n in backend.inverted if n in gens)
    lattice = []
    for vec, char in backend.lattice:
        if any(vec[i] for i in kill):
            raise UnsupportedIdeal("ideal meets the identification lattice")
        lattice.append((tuple(vec[i] for i in keep), char))

    def push(elem):
        coeff, exps = elem
        if coeff == ZERO or any(exps[i] for i in kill):
            return None
        return (coeff, tuple(exps[i] for i in keep))

    rels = []
    for l, r in bp.relations:
        pl = [push(t) for t in l]
        pr = [push(t) for t in r]
        rels.append(([t for t in pl if t is not None],
                     [t for t in pr if t is not None]))
    out = build_proper_monomial(backend.coeff, gens, inverted, lattice, rels,
                                budget, name=f"{bp.name or 'B'}/{ideal!r}")
    out.killed_generators = tuple(backend.gens[i] for i in sorted(kill))
    return out


def build_proper_monomial(coeff_bp, gens, inverted, lattice, relations, budget,
                          name=None):
    """Build a monomial blueprint, migrating derivable single=single
    identifications into the lattice until the properness guard, certified
    or searched (`improper_pair`), is clean."""
    lattice = list(lattice)
    for _ in range(20):
        backend = MonomialBackend(coeff_bp, gens, inverted, lattice)
        rels = []
        improper = None
        for l, r in relations:
            nl = [backend.normalize(t) for t in l]
            nr = [backend.normalize(t) for t in r]
            nl = [t for t in nl if not backend.is_zero(t)]
            nr = [t for t in nr if not backend.is_zero(t)]
            if sorted(nl) == sorted(nr):
                continue
            if (not nl and len(nr) == 1) or (not nr and len(nl) == 1):
                raise ImproperIdeal("a pushed relation kills a surviving element")
            if len(nl) == 1 and len(nr) == 1:
                improper = (nl[0], nr[0])
                break
            rels.append((nl, nr))
        if improper is None:
            candidate = Blueprint(backend, rels, budget=budget, name=name,
                                  check_proper=False)
            improper = improper_pair(candidate, _guard_budget(budget))
            if improper is None:
                return candidate
            if backend.is_zero(improper[0]):
                raise ImproperIdeal("a derivation kills a surviving element")
        (c1, e1), (c2, e2) = improper
        vec = tuple(x - y for x, y in zip(e1, e2))
        if not any(vec):
            raise ImproperRelations("quotient identifies distinct coefficients")
        if all(any(e) for e in (e1, e2)):
            # m1 = m2 with neither side a unit monomial is a genuine monoid
            # identification (a non-free semigroup), outside this backend
            raise UnsupportedIdeal(
                "quotient needs a non-unit monomial identification")
        char = next((c for c in coeff_bp.backend.symbols
                     if coeff_bp.mul(c, c1) == c2), None)
        if char is None or not coeff_bp.is_unit(char):
            raise ImproperRelations("identification needs a unit character")
        lattice.append((vec, char))
    raise ImproperRelations("identification lattice failed to stabilize")


def _symbol_key(s):
    """The carrier order of finite tables: 0, then 1, then by name."""
    return (s != ZERO, s != ONE, s)


class _UnionFind:
    """Each class is named by its least member under `_symbol_key`."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        keep, drop = sorted((ra, rb), key=_symbol_key)
        self.parent[drop] = keep
        return True


def _close_under_action(uf, symbols, carrier, act):
    """Merge classes of `uf` until x ~ y forces act(b, x) ~ act(b, y) for
    every b in `symbols`, a monoid acting on `carrier`: act(b, act(c, x)) =
    act(bc, x). The pairs (x, root of x) generate the classes, and b c again
    lies in `symbols`, so one pass over those pairs closes them."""
    for x, r in [(x, uf.find(x)) for x in carrier]:
        for b in symbols:
            uf.union(act(b, x), act(b, r))


def _collapse(bp, rep, name, budget, add=None):
    """The quotient table of the finite blueprint `bp` by the multiplicative
    equivalence whose classes `rep` names (symbol -> class name), with the
    pushed relations, the pushed addition table `add` when one is given,
    and `projection` = rep."""
    symbols = bp.backend.symbols
    mul = {(rep[a], rep[b]): rep[bp.backend.mul(a, b)]
           for a in symbols for b in symbols}
    pushed = None
    if add is not None:
        pushed = {}
        for a in symbols:
            for b in symbols:
                c = rep[add[(a, b)]]
                if pushed.setdefault((rep[a], rep[b]), c) != c:
                    raise BlueprintError("pushed addition is inconsistent")
    rels = [([rep[t] for t in l], [rep[t] for t in r]) for l, r in bp.relations]
    syms = sorted(set(rep.values()), key=_symbol_key)
    out = Blueprint(FiniteTable(syms, mul, pushed), rels, budget=budget,
                    name=name, check_proper=False)
    out.projection = dict(rep)
    return out


def _finite_quotient(bp, ideal, budget):
    """Collapse the ideal to 0, close under multiplication, and merge each
    derivable identification until the quotient is proper; each merge joins
    two classes, so the loop ends."""
    symbols = bp.backend.symbols
    uf = _UnionFind(symbols)
    for s in ideal.minimal:
        uf.union(ZERO, s)
    while True:
        _close_under_action(uf, symbols, symbols, bp.backend.mul)
        out = _collapse(bp, {s: uf.find(s) for s in symbols},
                        f"{bp.name or 'B'}/I", budget)
        pair = improper_pair(out, _guard_budget(budget))
        if pair is None:
            return out
        uf.union(*pair)


def quotient_universal_factoring(bp, ideal, quotient, morphism, budget=None):
    """The unique morphism B/I -> C with g(f(x)) = h(x), or None."""
    budget = budget or bp.budget
    if bp.backend.kind != "finite":
        raise BlueprintError("universal-property checks run on finite tables")
    images = {}
    for s in bp.backend.symbols:
        q = quotient.projection[s]
        tgt = morphism.apply(s)
        if q in images and images[q] != tgt:
            return None
        images[q] = tgt
    g = BlueprintMorphism(quotient, morphism.target, images)
    verdict, _ = is_morphism(g, budget)
    return g if verdict == PROVED else None


# ---------------------------------------------------------------------------
# Localization and unit fields


def localize(bp, elems, budget=None):
    """Invert a finitely generated multiplicative set.

    Inverting 0 yields the zero blueprint, flagged via `zero_inverted`.
    """
    budget = budget or bp.budget
    backend = bp.backend
    elems = [backend.normalize(e) for e in elems]
    if any(backend.is_zero(e) for e in elems):
        zero_table = FiniteTable((ZERO,), {(ZERO, ZERO): ZERO})
        out = Blueprint(zero_table, (), budget=budget, name="0",
                        check_proper=False)
        out.zero_inverted = True
        return out
    if backend.kind == "monomial":
        newly = set()
        for e in elems:
            for name, exp in zip(backend.gens, e[1]):
                if exp:
                    newly.add(name)
        nb = MonomialBackend(backend.coeff, backend.gens,
                             backend.inverted | newly, backend.lattice)
        out = Blueprint(nb, [(list(l), list(r)) for l, r in bp.relations],
                        budget=budget, name=f"{bp.name or 'B'}_loc",
                        check_proper=False)
        out.zero_inverted = False
        return out
    return _finite_localize(bp, elems, budget)


def _idempotent_power(backend, elems):
    """The idempotent power e of the product of `elems` in a finite table.
    e lies in the monoid S that `elems` generate, every s in S divides it,
    and S·e is a group with identity e: so a·c = b·c for some c in S iff
    a·e = b·e."""
    s = backend.one()
    for x in elems:
        s = backend.mul(s, x)
    e = s
    while backend.mul(e, e) != e:
        e = backend.mul(e, s)
    return e


def _finite_localize(bp, elems, budget):
    """B[S^-1] for S generated by `elems`, as the image eB, with e the
    idempotent power of the product of `elems` (`_idempotent_power`): every
    s in S divides e, e = st. So a/1 = b/1 iff ea = eb, and a/s = at/e =
    at/1: every class holds some a/1, and the class names and the pushed
    addition of a semiring table come from B."""
    backend = bp.backend
    e = _idempotent_power(backend, elems)
    blocks = {}
    for a in backend.symbols:
        blocks.setdefault(backend.mul(e, a), []).append(a)
    rep = {a: min(block, key=_symbol_key)
           for block in blocks.values() for a in block}
    out = _collapse(bp, rep, f"{bp.name or 'B'}_loc", budget,
                    add=backend.add_table)
    out.zero_inverted = False
    out.localization_map = out.projection
    return out


def localization_morphism(bp, localized):
    if bp.backend.kind == "monomial":
        images = {g: localized.backend.gen_element(g) for g in bp.backend.gens}
        for c in bp.backend.coeff.backend.symbols:
            images[c] = localized.backend.coeff_element(c)
        return BlueprintMorphism(bp, localized, images)
    images = {s: localized.localization_map[s] for s in bp.backend.symbols}
    return BlueprintMorphism(bp, localized, images)


def unit_field(bp):
    """The blue field on the units plus zero, with the restricted relations."""
    backend = bp.backend
    if backend.kind == "finite":
        units = set(backend.units())
        syms = sorted(units | {ZERO}, key=_symbol_key)
        mul = {(a, b): backend.mul(a, b) for a in syms for b in syms}
        rels = [(l, r) for l, r in bp.relations
                if all(t in syms for t in l + r)]
        add = None
        if bp.is_semiring:
            add0 = {(a, b): backend.add_table[(a, b)] for a in syms for b in syms}
            if all(v in set(syms) for v in add0.values()):
                add = add0
        return Blueprint(FiniteTable(syms, mul, add), rels, budget=bp.budget,
                         name=f"{bp.name or 'B'}^x", check_proper=False)
    coeff = backend.coeff if is_blue_field(backend.coeff) else unit_field(backend.coeff)
    gens = tuple(n for n in backend.gens if n in backend.inverted)
    keep = [i for i, n in enumerate(backend.gens) if n in backend.inverted]
    lattice = [(tuple(v[i] for i in keep), c) for v, c in backend.lattice]
    nb = MonomialBackend(coeff, gens, gens, lattice)

    def restrict(t):
        if not backend.is_unit(t):
            return None
        c, exps = t
        return (c, tuple(exps[i] for i in keep))

    rels = []
    for l, r in bp.relations:
        nl = [restrict(t) for t in l]
        nr = [restrict(t) for t in r]
        if all(t is not None for t in nl + nr):
            rels.append((nl, nr))
    return Blueprint(nb, rels, budget=bp.budget, name=f"{bp.name or 'B'}^x",
                     check_proper=False)


def is_blue_field(bp):
    backend = bp.backend
    if backend.kind == "finite":
        units = set(backend.units())
        return all(s in units for s in backend.symbols if s != ZERO)
    return (all(n in backend.inverted for n in backend.gens)
            and is_blue_field(backend.coeff))


# ---------------------------------------------------------------------------
# Morphisms


class BlueprintMorphism:
    """A multiplicative map given by images of generators / carrier symbols."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)

    def apply(self, elem):
        src, tgt = self.source.backend, self.target.backend
        elem = src.normalize(elem)
        if src.kind == "finite":
            if src.is_zero(elem):
                return tgt.zero()
            if elem == ONE:
                return tgt.one()
            return tgt.normalize(self.images[elem])
        coeff, exps = elem
        if coeff == ZERO:
            return tgt.zero()
        acc = tgt.one() if coeff == ONE else tgt.normalize(self.images[coeff])
        for name, e in zip(src.gens, exps):
            if e:
                acc = tgt.mul(acc, tgt.power(tgt.normalize(self.images[name]), e))
        return acc

    def apply_sum(self, terms):
        return self.target.normalize_sum([self.apply(t) for t in terms])

    def __repr__(self):
        bits = []
        for k, v in sorted(self.images.items(), key=lambda kv: str(kv[0])):
            key = k if isinstance(k, str) else self.source.render(k)
            bits.append(f"{key}->{self.target.render(v)}")
        return "Morphism(" + ", ".join(bits) + ")"


def is_morphism(f, budget=None):
    """(Proved | Unknown | Refuted | 'RefutedOnGenerator', evidence)."""
    budget = budget or f.source.budget
    src, tgt = f.source.backend, f.target.backend
    try:
        if src.kind == "finite":
            for a in src.symbols:
                for b in src.symbols:
                    if f.apply(src.mul(a, b)) != tgt.mul(f.apply(a), f.apply(b)):
                        return REFUTED, (a, b)
        else:
            cb = src.coeff.backend
            for a in cb.symbols:
                for b in cb.symbols:
                    lhs = f.apply(src.coeff_element(cb.mul(a, b)))
                    rhs = tgt.mul(f.apply(src.coeff_element(a)),
                                  f.apply(src.coeff_element(b)))
                    if lhs != rhs:
                        return REFUTED, (a, b)
            for l, r in src.coeff.relations:
                il = f.apply_sum([src.coeff_element(t) for t in l])
                ir = f.apply_sum([src.coeff_element(t) for t in r])
                verdict, _ = _derive3(f.target, il, ir, budget)
                if verdict == REFUTED:
                    return "RefutedOnGenerator", (l, r)
                if verdict == UNKNOWN:
                    return UNKNOWN, None
            for vec, char in src.lattice:
                acc = tgt.one()
                for name, e in zip(src.gens, vec):
                    if e:
                        acc = tgt.mul(acc, tgt.power(tgt.normalize(f.images[name]), e))
                if acc != f.apply(src.coeff_element(char)):
                    return REFUTED, (vec, char)
    except BlueprintError:
        return REFUTED, "image of an invertible generator is not a unit"
    overall = PROVED
    for l, r in f.source.relations:
        il, ir = f.apply_sum(l), f.apply_sum(r)
        verdict, _ = _derive3(f.target, il, ir, budget)
        if verdict == REFUTED:
            return "RefutedOnGenerator", (l, r)
        if verdict == UNKNOWN:
            overall = UNKNOWN
    return overall, None


# ---------------------------------------------------------------------------
# Presentations over N and Z


@dataclass(frozen=True)
class Presentation:
    """Finitely presented (semi)ring: generators plus polynomial relations.

    Polynomials map exponent tuples to integer coefficients. A semiring
    presentation has (lhs, rhs) pairs with N-coefficients; a ring presentation
    has single polynomials lhs - rhs.
    """
    gens: tuple
    relations: tuple
    ring: bool

    def __str__(self):
        base = "Z" if self.ring else "N"
        gens = ",".join(self.gens)
        if self.ring:
            rels = "; ".join(render_poly(self.gens, r) for r in self.relations)
        else:
            rels = "; ".join(f"{render_poly(self.gens, l)} = {render_poly(self.gens, r)}"
                             for l, r in self.relations)
        return f"{base}[{gens}] / ({rels})" if rels else f"{base}[{gens}]"


def render_poly(gens, poly):
    if not poly:
        return "0"
    bits = []
    for exps, c in sorted(poly.items()):
        mono = "*".join(f"{g}^{e}" if e > 1 else g
                        for g, e in zip(gens, exps) if e)
        if not mono:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ")


def _poly_sub(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) - v
        if not out[k]:
            del out[k]
    return out


def _presentation_gens(bp):
    backend = bp.backend
    gens = []
    if backend.kind == "finite":
        gens.extend(s for s in backend.symbols if s not in (ZERO, ONE))
    else:
        gens.extend(s for s in backend.coeff.backend.symbols
                    if s not in (ZERO, ONE))
        gens.extend(backend.gens)
        gens.extend(n + "__inv" for n in backend.gens if n in backend.inverted)
    return tuple(gens)


def _sum_terms_poly(bp, terms, gi):
    poly: dict = {}
    backend = bp.backend
    n = len(gi)
    for t in terms:
        exps = [0] * n
        if backend.kind == "finite":
            if t == ZERO:
                continue
            if t != ONE:
                exps[gi[t]] = 1
        else:
            coeff, es = t
            if coeff == ZERO:
                continue
            if coeff != ONE:
                exps[gi[coeff]] = 1
            for name, e in zip(backend.gens, es):
                if e > 0:
                    exps[gi[name]] += e
                elif e < 0:
                    exps[gi[name + "__inv"]] += -e
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + 1
    return poly


def _structural_polys(bp, gi):
    backend = bp.backend
    n = len(gi)
    unit = {tuple([0] * n): 1}

    def mono(assignments):
        exps = [0] * n
        for g, e in assignments:
            exps[gi[g]] += e
        return {tuple(exps): 1}

    def table_rels(table, symbols):
        out = []
        for a in symbols:
            for b in symbols:
                if a <= b and ZERO not in (a, b) and ONE not in (a, b):
                    prod = table.mul(a, b)
                    lhs = mono([(a, 1), (b, 1)])
                    if prod == ZERO:
                        rhs = {}
                    elif prod == ONE:
                        rhs = unit
                    else:
                        rhs = mono([(prod, 1)])
                    out.append((lhs, rhs))
        return out

    out = []
    if backend.kind == "finite":
        out.extend(table_rels(backend, backend.symbols))
    else:
        cb = backend.coeff.backend
        out.extend(table_rels(cb, cb.symbols))
        for l, r in backend.coeff.relations:
            out.append((_sum_terms_poly_symbols(l, gi, n),
                        _sum_terms_poly_symbols(r, gi, n)))
        for name in backend.gens:
            if name in backend.inverted:
                out.append((mono([(name, 1), (name + "__inv", 1)]), unit))
        for vec, char in backend.lattice:
            assignments = []
            for name, e in zip(backend.gens, vec):
                if e > 0:
                    assignments.append((name, e))
                elif e < 0:
                    assignments.append((name + "__inv", -e))
            rhs = unit if char == ONE else mono([(char, 1)])
            out.append((mono(assignments), rhs))
    return out


def _sum_terms_poly_symbols(terms, gi, n):
    poly: dict = {}
    for t in terms:
        exps = [0] * n
        if t == ZERO:
            continue
        if t != ONE:
            exps[gi[t]] = 1
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + 1
    return poly


def semiring_presentation(bp):
    """B^+ = N[A]/R as a finitely presented semiring."""
    gens = _presentation_gens(bp)
    gi = {g: i for i, g in enumerate(gens)}
    rels = list(_structural_polys(bp, gi))
    for l, r in bp.relations:
        rels.append((_sum_terms_poly(bp, l, gi), _sum_terms_poly(bp, r, gi)))
    canon = set()
    for l, r in rels:
        pair = (tuple(sorted(l.items())), tuple(sorted(r.items())))
        if pair[0] == pair[1]:
            continue
        canon.add(pair if pair[0] <= pair[1] else (pair[1], pair[0]))
    out = tuple((dict(l), dict(r)) for l, r in sorted(canon))
    return Presentation(gens, out, ring=False)


def ring_presentation(bp):
    """B_Z^+ = Z[A]/I(R) as a finitely presented ring."""
    semi = semiring_presentation(bp)
    seen = set()
    out = []
    for l, r in semi.relations:
        poly = _poly_sub(l, r)
        if not poly:
            continue
        key = tuple(sorted(poly.items()))
        nkey = tuple(sorted((k, -v) for k, v in poly.items()))
        if key in seen or nkey in seen:
            continue
        seen.add(key)
        out.append(poly)
    return Presentation(semi.gens, tuple(out), ring=True)


def _int_in_field(c, field):
    out = 0
    for _ in range(c % field.p):
        out = field.add(out, 1)
    return out


def eval_poly(poly, values, field):
    acc = 0
    for exps, c in poly.items():
        term = _int_in_field(c, field)
        for v, e in zip(values, exps):
            for _ in range(e):
                term = field.mul(term, v)
        acc = field.add(acc, term)
    return acc


def count_presentation_points(pres, q):
    """Number of homomorphisms of the presented (semi)ring into F_q."""
    field = gf(q)
    count = 0
    for values in itertools.product(range(q), repeat=len(pres.gens)):
        ok = True
        for rel in pres.relations:
            if pres.ring:
                if eval_poly(rel, values, field) != 0:
                    ok = False
                    break
            else:
                l, r = rel
                if eval_poly(l, values, field) != eval_poly(r, values, field):
                    ok = False
                    break
        if ok:
            count += 1
    return count


def presentation_normalizes_to_integers(pres):
    """Greedily eliminate generators pinned by linear monic relations; True if
    everything reduces away over Z (the presented ring is the integers)."""
    if not pres.ring:
        raise ValueError("ring presentations only")
    gens = list(pres.gens)
    values: dict = {}
    rels = [dict(r) for r in pres.relations]
    changed = True
    while changed:
        changed = False
        for rel in rels:
            live_terms = []
            const = Fraction(0)
            ok = True
            for exps, c in rel.items():
                unknown = [(i, e) for i, e in enumerate(exps)
                           if e and gens[i] not in values]
                factor = Fraction(c)
                for i, e in enumerate(exps):
                    if e and gens[i] in values:
                        factor *= values[gens[i]] ** e
                if not unknown:
                    const += factor
                else:
                    live_terms.append((unknown, factor))
            if not ok or len(live_terms) != 1:
                continue
            unknown, factor = live_terms[0]
            if len(unknown) != 1 or unknown[0][1] != 1 or factor == 0:
                continue
            values[gens[unknown[0][0]]] = -const / factor
            changed = True
    if len(values) < len(gens):
        return False
    for rel in rels:
        total = Fraction(0)
        for exps, c in rel.items():
            term = Fraction(c)
            for i, e in enumerate(exps):
                if e:
                    term *= values[gens[i]] ** e
            total += term
        if total != 0:
            return False
    return all(v.denominator == 1 for v in values.values())


# ---------------------------------------------------------------------------
# Semiring targets and morphism enumeration


@cache
def field_blueprint(q):
    """F_q as a finite-table semiring blueprint (symbols '0'..'q-1')."""
    f = gf(q)
    syms = [str(i) for i in range(q)]
    mul = {(str(a), str(b)): str(f.mul(a, b)) for a in range(q) for b in range(q)}
    add = {(str(a), str(b)): str(f.add(a, b)) for a in range(q) for b in range(q)}
    return Blueprint(FiniteTable(syms, mul, add), (), name=f"F{q}",
                     check_proper=False)


@cache
def boolean_semiring_blueprint():
    """B1 with its idempotent addition table attached."""
    mul = {(a, b): (ONE if a == b == ONE else ZERO)
           for a in (ZERO, ONE) for b in (ZERO, ONE)}
    add = {(ZERO, ZERO): ZERO, (ZERO, ONE): ONE, (ONE, ZERO): ONE, (ONE, ONE): ONE}
    return Blueprint(FiniteTable((ZERO, ONE), mul, add), (), name="B1+",
                     check_proper=False)


def _sum_checks(bp, cimages):
    """The conditions on a map out of `bp` as pairs of sums that must agree.

    The frees are the generators of a monomial backend, or the carrier
    symbols other than 0 and 1 of a finite one. A term is (constant,
    ((free index, exponent), ...)) with increasing indices: the image of a
    coefficient under `cimages` times powers of the free values. Zero terms
    are left out. A finite source contributes f(a)*f(b) = f(ab) for every
    pair of symbols and its relations; a monomial source its lattice rows and
    its relations.
    """
    backend = bp.backend
    checks = []
    if backend.kind == "finite":
        index = {s: i for i, s in enumerate(
            s for s in backend.symbols if s not in (ZERO, ONE))}

        def product_term(*syms):
            if ZERO in syms:
                return ()
            powers = {}
            for s in syms:
                if s != ONE:
                    powers[index[s]] = powers.get(index[s], 0) + 1
            return ((ONE, tuple(sorted(powers.items()))),)

        for a in backend.symbols:
            for b in backend.symbols:
                checks.append((product_term(backend.mul(a, b)),
                               product_term(a, b)))
        for l, r in bp.relations:
            checks.append((sum(map(product_term, l), ()),
                           sum(map(product_term, r), ())))
    else:
        def monomial_term(coeff, exps):
            c = ONE if coeff == ONE else cimages[coeff]
            if c == ZERO:
                return ()
            return ((c, tuple((i, e) for i, e in enumerate(exps) if e)),)

        for vec, char in backend.lattice:
            checks.append((monomial_term(ONE, vec),
                           monomial_term(char, (0,) * len(vec))))
        for l, r in bp.relations:
            checks.append((sum((monomial_term(*t) for t in l), ()),
                           sum((monomial_term(*t) for t in r), ())))
    return tuple(dict.fromkeys(checks))


def _sum_total(tb, vals):
    """A side's value as `apply_sum` and `eval_sum` give it: zero terms
    dropped, the rest sorted by `tb.sort_key`, so the result does not rest on
    the addition being associative."""
    vals = [v for v in vals if v != ZERO]
    if len(vals) > 1:
        vals.sort(key=tb.sort_key)
    return tb.eval_sum(vals)


def _place_checks(checks, tb, rank):
    """`checks` (see `_sum_checks`) in one list per step, each check at the
    step of the last free it involves; `rank` maps each free to its step.
    None when a check that involves no free fails."""
    placed = [[] for _ in rank]
    for lhs, rhs in checks:
        d = max((rank[i] for _, p in lhs + rhs for i, _ in p), default=-1)
        if d >= 0:
            placed[d].append((lhs, rhs))
        elif _sum_total(tb, [c for c, _ in lhs]) != \
                _sum_total(tb, [c for c, _ in rhs]):
            return None
    return placed


def _solutions(bp, tb, domains, cimages=None):
    """The value tuples of `itertools.product(*domains)`, one domain per free
    of `bp` (see `_sum_checks`), under which every check of `bp` holds in the
    finite semiring table `tb`, in product order. `cimages` gives the
    coefficient images of a monomial source.

    Sides are evaluated by `_sum_total`. Each check runs in the loop over the
    last free it involves. When that loop starts, each term's product over
    the earlier frees is formed once. Which values pass depends only on those
    products, so the passing values are memoized on them.
    """
    mul = tb.mul_table
    powers = {}

    def pw(x, e):
        v = powers.get((x, e))
        if v is None:
            v = powers[(x, e)] = tb.power(x, e)
        return v

    placed = _place_checks(_sum_checks(bp, cimages), tb, range(len(domains)))
    if placed is None:
        return
    # Per loop: its terms as (constant, earlier powers, own exponent), and
    # each check as the bounds (start, middle, end) of its two sides.
    terms = [[] for _ in domains]
    bounds = [[] for _ in domains]
    for d, checks in enumerate(placed):
        for lhs, rhs in checks:
            start = len(terms[d])
            for c, p in lhs + rhs:
                own = p and p[-1][0] == d
                terms[d].append((c, p[:-1] if own else p,
                                 p[-1][1] if own else 0))
            bounds[d].append((start, start + len(lhs), len(terms[d])))
    last = max((d for d in range(len(domains)) if bounds[d]), default=-1)
    tail = domains[last + 1:]
    memo = [{} for _ in range(last + 1)]

    def passing(d, values):
        if not bounds[d]:
            return domains[d]
        prefix = []
        for c, earlier, _ in terms[d]:
            for i, e in earlier:
                c = mul[(c, pw(values[i], e))]
            prefix.append(c)
        key = tuple(prefix)
        found = memo[d].get(key)
        if found is None:
            exps = [e for _, _, e in terms[d]]
            found = []
            for x in domains[d]:
                vals = [p if not e else mul[(p, pw(x, e))]
                        for p, e in zip(prefix, exps)]
                if all(_sum_total(tb, vals[a:b]) == _sum_total(tb, vals[b:c])
                       for a, b, c in bounds[d]):
                    found.append(x)
            memo[d][key] = found
        return found

    def walk(d, values):
        if d > last:
            for rest in itertools.product(*tail):
                yield values + rest
            return
        for x in passing(d, values):
            yield from walk(d + 1, values + (x,))

    yield from walk(0, ())


def _elimination_order(checks, domains, size):
    """The frees that some check involves, greedily ordered so that few
    states of `_count_solutions` are expected. Once a set S of frees is set,
    each term of a check still open takes at most min(size, product of the
    domain sizes of its frees in S) values, and the estimate is the product
    of these bounds. The next free is the one that makes it smallest, the
    lowest index on a tie.
    """
    spans = []                # per term: its bound so far
    terms = []                # per check: its terms as (span index, frees)
    left = []                 # per check: its frees not yet set
    through = {}              # free -> the checks that involve it
    for c, (lhs, rhs) in enumerate(checks):
        terms.append([])
        for _, p in lhs + rhs:
            terms[c].append((len(spans), {i for i, _ in p}))
            spans.append(1)
        left.append({i for _, p in lhs + rhs for i, _ in p})
        for i in left[c]:
            through.setdefault(i, []).append(c)

    def change(f):
        # The estimate after setting f is the current one times num / den:
        # a check that f closes drops its terms, and in the others the
        # terms that involve f grow.
        num = den = 1
        for c in through[f]:
            for j, frees in terms[c]:
                if len(left[c]) == 1:
                    den *= spans[j]
                elif f in frees:
                    den *= spans[j]
                    num *= min(size, spans[j] * len(domains[f]))
        return num, den

    order = []
    while through:
        best = None
        for f in sorted(through):
            num, den = change(f)
            if best is None or num * best[2] < best[1] * den:
                best = f, num, den
        f = best[0]
        for c in through.pop(f):
            left[c].discard(f)
            for j, frees in terms[c]:
                if f in frees:
                    spans[j] = min(size, spans[j] * len(domains[f]))
        order.append(f)
    return order


def _count_solutions(bp, tb, domains, cimages=None):
    """The number of value tuples `_solutions` yields for the same
    arguments, found without listing them.

    This is counting by variable elimination (Dechter, "Bucket elimination",
    Artif. Intell. 113, 1999) as a forward pass: the frees that some check
    involves are set one at a time, in the order of `_elimination_order`.
    After some frees are set, a state is the tuple of the partial products of
    the terms of the checks still open; equal states are merged and carry
    their multiplicity. Each check is evaluated by `_sum_total`, as in
    `_solutions`, at the step of the last free it involves, and its terms then
    leave the state. The frees that no check involves multiply the count by
    their domain sizes.
    """
    mul = tb.mul_table
    checks = _sum_checks(bp, cimages)
    order = _elimination_order(checks, domains, len(tb.symbols))
    rank = {f: k for k, f in enumerate(order)}
    placed = _place_checks(checks, tb, rank)
    if placed is None:
        return 0
    # The state's slots are the terms of the checks in the order the checks
    # close, so the open ones are always a suffix.
    slots = [t for level in placed for lhs, rhs in level for t in lhs + rhs]
    states = {tuple(c for c, _ in slots): 1}
    exponents = {f: [] for f in order}     # free -> (slot, exponent)
    for k, (_, p) in enumerate(slots):
        for i, e in p:
            exponents[i].append((k, e))
    offset = 0
    for d, f in enumerate(order):
        # A check that involves f closes at step d or later, so its slots
        # are still in the state.
        touched = [(k - offset, e) for k, e in exponents[f]]
        width = 0
        bounds = []
        for lhs, rhs in placed[d]:
            start, mid = width, width + len(lhs)
            width = mid + len(rhs)
            bounds.append((start, mid, width))
        offset += width
        steps = [[(k, tb.power(x, e)) for k, e in touched]
                 for x in domains[f]]
        passes = {}
        nxt = {}
        for state, m in states.items():
            for step in steps:
                new = list(state)
                for k, p in step:
                    new[k] = mul[(new[k], p)]
                if width:
                    head = tuple(new[:width])
                    ok = passes.get(head)
                    if ok is None:
                        ok = passes[head] = all(
                            _sum_total(tb, head[a:b])
                            == _sum_total(tb, head[b:c]) for a, b, c in bounds)
                    if not ok:
                        continue
                    new = new[width:]
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + m
        if not nxt:
            return 0
        states = nxt
    count = sum(states.values())
    for i, dom in enumerate(domains):
        if i not in rank:
            count *= len(dom)
    return count


def _coefficient_images(bp, tb):
    """The maps of the coefficient carrier of a monomial source `bp` into the
    table `tb` that fix 0 and 1 and keep its products and relations."""
    coeff = bp.backend.coeff
    cb = coeff.backend
    cfrees = [s for s in cb.symbols if s not in (ZERO, ONE)]
    out = []
    for values in itertools.product(tb.symbols, repeat=len(cfrees)):
        images = dict(zip(cfrees, values))
        images[ZERO] = ZERO
        images[ONE] = ONE
        if any(tb.mul(images[a], images[b]) != images[cb.mul(a, b)]
               for a in cb.symbols for b in cb.symbols):
            continue
        if any(tb.eval_sum([images[t] for t in l]) != tb.eval_sum([images[t] for t in r])
               for l, r in coeff.relations):
            continue
        out.append(images)
    return out


def _free_domains(bp, tb):
    """One list of candidate values in `tb` per free of `bp` (see
    `_sum_checks`): every symbol, or the units for an inverted generator."""
    backend = bp.backend
    if backend.kind == "finite":
        frees = [s for s in backend.symbols if s not in (ZERO, ONE)]
        return [tb.symbols] * len(frees)
    units = sorted(set(tb.symbols) - {ZERO})
    return [units if name in backend.inverted else list(tb.symbols)
            for name in backend.gens]


def enumerate_morphisms(bp, target):
    """All blueprint morphisms into a finite semiring-table target."""
    return list(iter_morphisms(bp, target))


def iter_morphisms(bp, target):
    """The morphisms of `enumerate_morphisms`, in its order, one at a time."""
    if not target.is_semiring:
        raise BlueprintError("morphism enumeration needs a semiring target")
    tb = target.backend
    backend = bp.backend
    domains = _free_domains(bp, tb)
    if backend.kind == "finite":
        frees = [s for s in backend.symbols if s not in (ZERO, ONE)]
        for values in _solutions(bp, tb, domains):
            images = dict(zip(frees, values))
            images[ZERO] = ZERO
            images[ONE] = ONE
            yield BlueprintMorphism(bp, target, images)
        return
    for cimages in _coefficient_images(bp, tb):
        for values in _solutions(bp, tb, domains, cimages):
            images = dict(cimages)
            images.update(zip(backend.gens, values))
            yield BlueprintMorphism(bp, target, images)


def refutation_targets():
    return [boolean_semiring_blueprint()] + \
        [field_blueprint(q) for q in prime_powers_upto(5)]


def _refuting_target(bp, lhs, rhs):
    """The first of `refutation_targets()` with a morphism that sends the
    sums lhs and rhs to different values, or None."""
    for target in refutation_targets():
        for f in iter_morphisms(bp, target):
            if target.backend.eval_sum(f.apply_sum(lhs)) != \
                    target.backend.eval_sum(f.apply_sum(rhs)):
                return target
    return None


# ---------------------------------------------------------------------------
# Cancellativity and Frobenius predicates


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
