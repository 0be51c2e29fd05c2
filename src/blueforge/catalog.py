"""Named constructors for the worked examples; the oracle suite.

Every entry carries machine-checkable expected facts that the test suite
verifies on each build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

from .core import (ONE, ZERO, Blueprint, FiniteTable, MonomialBackend,
                   TooLarge)
from .fields import gf
from .schemes import BlueScheme, GradedBlueprint, projective_space


# ---------------------------------------------------------------------------
# Small coefficient blueprints


@cache
def f1():
    """The field with one element: the monoid {0, 1}, no relations."""
    table = FiniteTable((ZERO, ONE), {(ZERO, ZERO): ZERO, (ZERO, ONE): ZERO,
                                      (ONE, ONE): ONE})
    return Blueprint(table, (), name="F1")


@cache
def b1():
    """The idempotent two-element semiring as a blueprint: 1 + 1 = 1."""
    table = FiniteTable((ZERO, ONE), {(ZERO, ZERO): ZERO, (ZERO, ONE): ZERO,
                                      (ONE, ONE): ONE})
    return Blueprint(table, [([ONE], [ONE, ONE])], name="B1")


def _mu_n_table(n, names):
    """Multiplication table of mu_n with zero; names[k] labels zeta^k."""
    syms = (ZERO,) + names
    mul = {(ZERO, s): ZERO for s in syms}
    for a in range(n):
        for b in range(n):
            mul[(names[a], names[b])] = names[(a + b) % n]
    return FiniteTable(syms, mul)


def _mu_names(n):
    if n == 1:
        return (ONE,)
    if n == 2:
        return (ONE, "-1")
    return (ONE,) + tuple(f"z{k}" for k in range(1, n))


@cache
def f1n(n):
    """The cyclotomic extension: mu_n with zero, and for every proper divisor
    d of n the sum over the subgroup generated by zeta^d is zero. The
    associated ring is Z[zeta_n]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = _mu_names(n)
    table = _mu_n_table(n, names)
    rels = []
    for d in range(1, n):
        if n % d == 0:
            rels.append(([names[(d * i) % n] for i in range(n // d)], []))
    return Blueprint(table, rels, name=f"F1^{n}" if n > 1 else "F1")


@cache
def f1_squared():
    """{0, 1, -1} with 1 + (-1) = 0."""
    return f1n(2)


@cache
def roots_of_unity_sums(n):
    """mu_n with zero where each subgroup sums to the matching number of ones
    (the Witt-vector flavoured Frobenius example)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = _mu_names(n)
    table = _mu_n_table(n, names)
    rels = []
    for e in range(2, n + 1):
        if n % e == 0:
            d = n // e
            subgroup = [names[(d * i) % n] for i in range(e)]
            rels.append((subgroup, [ONE] * e))
    return Blueprint(table, rels, name=f"mu{n}-sums")


# ---------------------------------------------------------------------------
# Affine and projective standards


def affine_space(n, budget=None):
    """F1[T1..Tn]."""
    gens = tuple(f"T{k}" for k in range(1, n + 1))
    return Blueprint(MonomialBackend(f1(), gens), budget=budget, name=f"A{n}")


def torus(n, budget=None):
    """F1[T1^{+-1}..Tn^{+-1}]."""
    gens = tuple(f"T{k}" for k in range(1, n + 1))
    return Blueprint(MonomialBackend(f1(), gens, gens), budget=budget,
                     name=f"Gm{n}")


def proj_space(n, budget=None) -> BlueScheme:
    """P^n over F1 as a chart-glued blue scheme with its graded model."""
    return projective_space(f1(), n, budget=budget, name=f"P{n}")


def proj_cone(n, budget=None) -> GradedBlueprint:
    """The graded blueprint F1[T0..Tn] whose Proj is P^n."""
    gens = tuple(f"T{k}" for k in range(n + 1))
    bp = Blueprint(MonomialBackend(f1(), gens), budget=budget,
                   name=f"P{n}.cone")
    return GradedBlueprint(bp, {g: 1 for g in gens})


# ---------------------------------------------------------------------------
# SL2


def sl2_f1(budget=None):
    """F1[T1..T4] with T1*T4 = T2*T3 + 1."""
    backend = MonomialBackend(f1(), ("T1", "T2", "T3", "T4"))
    t = {n: backend.gen_element(n) for n in backend.gens}
    rel = ([backend.mul(t["T1"], t["T4"])],
           [backend.mul(t["T2"], t["T3"]), backend.one()])
    return Blueprint(backend, [rel], budget=budget, name="SL2")


def sl2_minors(budget=None):
    """The 1x1 matrix minors a, b, c, d with the determinant relation
    a*d = b*c + 1; for n = 2 this is the SL2 blueprint up to renaming."""
    backend = MonomialBackend(f1(), ("a", "b", "c", "d"))
    g = {n: backend.gen_element(n) for n in backend.gens}
    rel = ([backend.mul(g["a"], g["d"])],
           [backend.mul(g["b"], g["c"]), backend.one()])
    return Blueprint(backend, [rel], budget=budget, name="SL2-minors")


# ---------------------------------------------------------------------------
# Grassmannians


def _pluecker_symbol(indices):
    """(sign, sorted tuple) of an alternating coordinate symbol, or None."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign, tuple(sorted(idx))


def _coord_name(subset):
    return "x" + "".join(str(i) for i in subset)


def grassmannian_f1(e, d, budget=None) -> GradedBlueprint:
    """Gr(e,d) over F1: Pluecker coordinates x_I with the sign-split
    Grassmann-Pluecker quadratic relations, degree-1 grading."""
    if not (0 <= e <= d):
        raise ValueError("need 0 <= e <= d")
    if d > 6:
        raise TooLarge("d > 6")
    subsets = list(itertools.combinations(range(1, d + 1), e))
    gens = tuple(_coord_name(s) for s in subsets)
    backend = MonomialBackend(f1(), gens)
    coord = {s: backend.gen_element(_coord_name(s)) for s in subsets}

    seen = set()
    rels = []
    for head in itertools.combinations(range(1, d + 1), max(e - 1, 0)):
        for tail in itertools.combinations(range(1, d + 1), e + 1):
            pos, neg = [], []
            for k, j in enumerate(tail):
                left = _pluecker_symbol(head + (j,))
                right = _pluecker_symbol([x for x in tail if x != j])
                if left is None or right is None:
                    continue
                sign = left[0] * right[0] * (-1) ** k
                term = backend.mul(coord[left[1]], coord[right[1]])
                (pos if sign > 0 else neg).append(term)
            pos.sort(key=backend.sort_key)
            neg.sort(key=backend.sort_key)
            if tuple(pos) == tuple(neg) or (not pos and not neg):
                continue
            key = tuple(sorted([tuple(pos), tuple(neg)]))
            if key in seen:
                continue
            seen.add(key)
            rels.append((pos, neg))
    bp = Blueprint(backend, rels, budget=budget, name=f"Gr({e},{d})")
    return GradedBlueprint(bp, {g: 1 for g in gens})


# ---------------------------------------------------------------------------
# Small worked examples


@cache
def idempotent_example():
    """The monoid {0, e, 1} with e^2 = e."""
    table = FiniteTable((ZERO, ONE, "e"),
                        {(ZERO, ZERO): ZERO, (ZERO, ONE): ZERO,
                         (ZERO, "e"): ZERO, (ONE, ONE): ONE,
                         (ONE, "e"): "e", ("e", "e"): "e"})
    return Blueprint(table, (), name="idem")


def _pair_sym(a, b):
    if a == 0 and b == 0:
        return ZERO
    if a == 1 and b == 1:
        return ONE
    return f"({a},{b})"


@cache
def product_ring(q1=2, q2=3):
    """F_{q1} x F_{q2} as a semiring-table blueprint (the globalization the
    two-field example aims at)."""
    g1, g2 = gf(q1), gf(q2)
    elems = [(a, b) for a in range(q1) for b in range(q2)]
    mul = {}
    add = {}
    for (a, b) in elems:
        for (c, d) in elems:
            mul[(_pair_sym(a, b), _pair_sym(c, d))] = \
                _pair_sym(g1.mul(a, c), g2.mul(b, d))
            add[(_pair_sym(a, b), _pair_sym(c, d))] = \
                _pair_sym(g1.add(a, c), g2.add(b, d))
    syms = sorted((_pair_sym(a, b) for a, b in elems),
                  key=lambda s: (s != ZERO, s != ONE, s))
    return Blueprint(FiniteTable(tuple(syms), mul, add), (),
                     name=f"F{q1}xF{q2}", check_proper=False)


@cache
def two_fields(q1=2, q2=3):
    """The two-field blueprint: carrier k1* x k2* with the pre-addition
    generated componentwise from each field's addition.

    No mixed relation is derivable (the mixed-term multiset is invariant
    under every rewrite), so the sum (1,1)+(1,1) stays undefined; the same
    invariant makes the set of non-units a third prime ideal."""
    g1, g2 = gf(q1), gf(q2)
    elems = [(a, b) for a in range(q1) for b in range(q2)]
    syms = [_pair_sym(a, b) for a, b in elems]
    mul = {}
    for (a, b) in elems:
        for (c, d) in elems:
            prod = (g1.mul(a, c), g2.mul(b, d))
            mul[(_pair_sym(a, b), _pair_sym(c, d))] = _pair_sym(*prod)
    table = FiniteTable(tuple(sorted(set(syms), key=lambda s: (s != ZERO, s != ONE, s))), mul)
    rels = []
    for a in range(1, q1):
        for c in range(a, q1):
            s = g1.add(a, c)
            lhs = [_pair_sym(a, 0), _pair_sym(c, 0)]
            rhs = [] if s == 0 else [_pair_sym(s, 0)]
            rels.append((lhs, rhs))
    for b in range(1, q2):
        for d in range(b, q2):
            s = g2.add(b, d)
            lhs = [_pair_sym(0, b), _pair_sym(0, d)]
            rhs = [] if s == 0 else [_pair_sym(0, s)]
            rels.append((lhs, rhs))
    return Blueprint(table, rels, name=f"k{q1}xk{q2}")


# ---------------------------------------------------------------------------
# The registry


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    builder: object
    doc: str
    expected_facts: dict = field(default_factory=dict)


CATALOG = {}


def _register(name, builder, doc, **facts):
    CATALOG[name] = CatalogEntry(name, builder, doc, dict(facts))


_register("f1", lambda: f1(), "the field with one element",
          spec_points=1, blue_field=True, cancellative="yes",
          counting_coeffs=(1,))
_register("f1_squared", lambda: f1_squared(), "{0,+-1} with 1+(-1)=0",
          spec_points=1, blue_field=True, cancellative="yes")
_register("f1n", f1n, "cyclotomic extension F1^n (param: n)")
_register("b1", lambda: b1(), "idempotent semiring {0,1}, 1+1=1",
          spec_points=1, cancellative="no", frobenius2="Proved")
_register("roots_sums", roots_of_unity_sums,
          "mu_n with subgroup-sum relations (param: n)")
_register("affine", affine_space, "affine n-space over F1 (param: n)")
_register("torus", torus, "split torus of rank n (param: n)")
_register("proj", proj_space, "projective n-space over F1 (param: n)")
_register("sl2", lambda: sl2_f1(), "the SL2 coordinate blueprint",
          spec_points=7, closed_points=2, weyl_size=2,
          counting_coeffs=(0, -1, 0, 1), euler=0, cancellative="yes")
_register("sl2_minors", lambda: sl2_minors(), "SL2 by matrix minors",
          spec_points=7, closed_points=2)
_register("gr", grassmannian_f1, "Grassmannian Gr(e,d) over F1 (params: e,d)",)
_register("idempotent", lambda: idempotent_example(),
          "the monoid {0,e,1} with e^2=e",
          spec_points=2, carrier=3)
_register("two_fields", two_fields,
          "the two-field blueprint on k1* x k2* (params: q1,q2)",
          spec_points=3)
_register("product_ring", product_ring,
          "F_q1 x F_q2 as a semiring blueprint (params: q1,q2)",
          spec_points=2)


_ALIASES = {
    "f1^2": "f1_squared",
    "f12": "f1_squared",
    "grassmannian": "gr",
    "sl2f1": "sl2",
}


def build(name, params=()):
    """Build a catalog object from its name and integer parameters.

    Accepts URI-style references like "sl2", "affine:2", "gr:2,4", and the
    short aliases A<n> / P<n> / Gm<n>.
    """
    key = name.strip().lower()
    if key.startswith("catalog:"):
        key = key[len("catalog:"):]
    if ":" in key:
        key, _, rest = key.partition(":")
        params = tuple(int(x) for x in rest.replace(",", " ").split())
    if not params:
        for prefix, target in (("a", "affine"), ("p", "proj"), ("gm", "torus")):
            if key.startswith(prefix) and key[len(prefix):].isdigit():
                params = (int(key[len(prefix):]),)
                key = target
                break
    key = _ALIASES.get(key, key)
    if key not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(sorted(CATALOG))}")
    entry = CATALOG[key]
    return entry.builder(*params)


def names():
    return sorted(CATALOG)
