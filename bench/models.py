"""The benchmark's own description of the catalog objects it queries.

Nothing here imports blueforge. Each object is written down from its
mathematical definition: generator names and relation terms for the monomial
blueprints over F1, carrier symbols, multiplication table and relations for
the finite ones. The input generator and the oracles work on these models
only; the runner checks once per run that every model agrees with the
library's catalog, so a model that drifts from the catalog fails loudly
instead of silently producing wrong inputs.

Elements of a monomial model are exponent tuples (every coefficient is 1);
elements of a table model are symbol strings. Sums are sorted tuples.
"""

from __future__ import annotations

import itertools

ZERO = "0"
ONE = "1"


class MonomialModel:
    kind = "monomial"

    def __init__(self, name, gens, relations):
        self.name = name
        self.gens = tuple(gens)
        self.relations = tuple((tuple(sorted(self.parse(t) for t in l)),
                                tuple(sorted(self.parse(t) for t in r)))
                               for l, r in relations)

    def parse(self, text):
        exps = [0] * len(self.gens)
        if text.strip() == ONE:
            return tuple(exps)
        for part in text.split("*"):
            var, _, pw = part.strip().partition("^")
            exps[self.gens.index(var)] += int(pw) if pw else 1
        return tuple(exps)

    def text(self, e):
        parts = []
        for name, k in zip(self.gens, e):
            if k == 1:
                parts.append(name)
            elif k:
                parts.append(f"{name}^{k}")
        return "*".join(parts) if parts else ONE

    def sum_text(self, terms):
        return " + ".join(self.text(t) for t in terms) if terms else ZERO

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def is_zero(self, e):
        return False

    def divide(self, t, l, max_degree):
        m = tuple(x - y for x, y in zip(t, l))
        if min(m) < 0 or sum(m) > max_degree:
            return []
        return [m]

    def monomials(self, max_degree):
        """Every exponent vector of total degree <= max_degree, sorted."""
        out = [e for e in itertools.product(range(max_degree + 1),
                                            repeat=len(self.gens))
               if sum(e) <= max_degree]
        return sorted(out)

    def insert_multipliers(self):
        return self.monomials(1)

    def elements(self, max_degree=2):
        return self.monomials(max_degree)


class TableModel:
    kind = "finite"

    def __init__(self, name, symbols, mul, relations=(), semiring=False):
        self.name = name
        self.symbols = tuple(symbols)
        self.table = dict(mul)
        self.relations = tuple((tuple(sorted(t for t in l if t != ZERO)),
                                tuple(sorted(t for t in r if t != ZERO)))
                               for l, r in relations)
        self.semiring = semiring

    def parse(self, text):
        return text.strip()

    def text(self, s):
        return s

    def sum_text(self, terms):
        return " + ".join(terms) if terms else ZERO

    def mul(self, a, b):
        return self.table[(a, b)]

    def is_zero(self, s):
        return s == ZERO

    def nonzero(self):
        return [s for s in self.symbols if s != ZERO]

    def divide(self, t, l, max_degree):
        return [s for s in self.nonzero() if self.table[(s, l)] == t]

    def insert_multipliers(self):
        return self.nonzero()

    def elements(self, max_degree=2):
        return self.nonzero()

    def units(self):
        return [a for a in self.nonzero()
                if any(self.table[(a, b)] == ONE for b in self.symbols)]


def oriented(model):
    out = []
    for l, r in model.relations:
        out.append((l, r))
        out.append((r, l))
    return out


# ---------------------------------------------------------------------------
# The objects


def sl2():
    return MonomialModel("sl2", ("T1", "T2", "T3", "T4"),
                         [(["T2*T3", "1"], ["T1*T4"])])


def sl2_minors():
    return MonomialModel("sl2_minors", ("a", "b", "c", "d"),
                         [(["b*c", "1"], ["a*d"])])


def affine(n):
    return MonomialModel(f"A{n}", tuple(f"T{k}" for k in range(1, n + 1)), [])


def proj_cone(n):
    gens = tuple(f"T{k}" for k in range(n + 1))
    return MonomialModel(f"P{n}", gens, [])


def gr24():
    """Gr(2,4): Pluecker coordinates with x12*x34 - x13*x24 + x14*x23 = 0
    split by sign."""
    gens = ("x12", "x13", "x14", "x23", "x24", "x34")
    return MonomialModel("gr24", gens,
                         [(["x14*x23", "x12*x34"], ["x13*x24"])])


def _mu_names(n):
    if n == 1:
        return (ONE,)
    if n == 2:
        return (ONE, "-1")
    return (ONE,) + tuple(f"z{k}" for k in range(1, n))


def _mu_table(n):
    names = _mu_names(n)
    syms = (ZERO,) + names
    mul = {}
    for a in syms:
        for b in syms:
            if ZERO in (a, b):
                mul[(a, b)] = ZERO
            else:
                mul[(a, b)] = names[(names.index(a) + names.index(b)) % n]
    return names, syms, mul


def f1n(n):
    """mu_n with zero; every subgroup of order > 1 sums to zero."""
    names, syms, mul = _mu_table(n)
    rels = []
    for d in range(1, n):
        if n % d == 0:
            rels.append(([names[(d * i) % n] for i in range(n // d)], []))
    return TableModel(f"f1n{n}", syms, mul, rels)


def f1():
    return f1n(1)


def roots_sums(n):
    """mu_n with zero; the subgroup of order e sums to e ones."""
    names, syms, mul = _mu_table(n)
    rels = []
    for e in range(2, n + 1):
        if n % e == 0:
            d = n // e
            rels.append(([names[(d * i) % n] for i in range(e)], [ONE] * e))
    return TableModel(f"roots_sums{n}", syms, mul, rels)


def b1():
    mul = {(a, b): ONE if a == b == ONE else ZERO
           for a in (ZERO, ONE) for b in (ZERO, ONE)}
    return TableModel("b1", (ZERO, ONE), mul, [([ONE], [ONE, ONE])])


def idempotent():
    syms = (ZERO, ONE, "e")
    mul = {}
    for a in syms:
        for b in syms:
            if ZERO in (a, b):
                mul[(a, b)] = ZERO
            elif a == ONE:
                mul[(a, b)] = b
            elif b == ONE:
                mul[(a, b)] = a
            else:
                mul[(a, b)] = "e"
    return TableModel("idempotent", syms, mul)


def _pair_sym(a, b):
    if a == 0 and b == 0:
        return ZERO
    if a == 1 and b == 1:
        return ONE
    return f"({a},{b})"


def _pairs_table(p1, p2):
    """F_p1 x F_p2 (primes) as symbols and componentwise multiplication."""
    elems = [(a, b) for a in range(p1) for b in range(p2)]
    syms = sorted({_pair_sym(a, b) for a, b in elems},
                  key=lambda s: (s != ZERO, s != ONE, s))
    mul = {(_pair_sym(a, b), _pair_sym(c, d)):
           _pair_sym(a * c % p1, b * d % p2)
           for a, b in elems for c, d in elems}
    return syms, mul


def two_fields(p1=2, p2=3):
    """k1* x k2* with zero; the pre-addition is generated by the addition of
    each field inside its own factor."""
    syms, mul = _pairs_table(p1, p2)
    rels = []
    for a in range(1, p1):
        for c in range(a, p1):
            s = (a + c) % p1
            rels.append(([_pair_sym(a, 0), _pair_sym(c, 0)],
                         [] if s == 0 else [_pair_sym(s, 0)]))
    for b in range(1, p2):
        for d in range(b, p2):
            s = (b + d) % p2
            rels.append(([_pair_sym(0, b), _pair_sym(0, d)],
                         [] if s == 0 else [_pair_sym(0, s)]))
    return TableModel(f"two_fields{p1}{p2}", syms, mul, rels)


def product_ring(p1=2, p2=3):
    """F_p1 x F_p2 with its ring addition (no generated relations)."""
    syms, mul = _pairs_table(p1, p2)
    return TableModel(f"product_ring{p1}{p2}", syms, mul, semiring=True)


def mixed_terms(terms):
    """Terms of a two_fields sum with both components nonzero."""
    return sorted(t for t in terms if t == ONE or (
        t.startswith("(") and "0" not in t[1:-1].split(",")))
