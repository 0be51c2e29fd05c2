"""Quiver representations with integral bases, F1-representations, naive
F1-rational points, F_q subrepresentation counts (per-arrow containment
tables and backtracking over the vertices), and the Euler-characteristic
comparison theorems."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import BlueprintError, TooLarge
from .counting import SAMPLE_Q, fit_polynomial
# The tests and bench/trace.py read `_rref_bases` and `_reduce_vec` here.
from .fields import (_rref, _rref_bases, _reduce_vec, _subspace_contains,
                     gf)


class HypothesisViolated(BlueprintError):
    pass


class NotPolynomial(BlueprintError):
    pass


@dataclass(frozen=True)
class Quiver:
    """A finite directed graph: vertices 0..n-1 and arrows (source, target)."""

    n_vertices: int
    arrows: tuple

    def __post_init__(self):
        for s, t in self.arrows:
            if not (0 <= s < self.n_vertices and 0 <= t < self.n_vertices):
                raise ValueError("arrow endpoint out of range")

    def underlying_is_tree(self):
        """Connected and acyclic as an undirected simple graph."""
        edges = {frozenset((s, t)) for s, t in self.arrows if s != t}
        if any(s == t for s, t in self.arrows):
            return False
        if len(edges) != len(self.arrows):
            return False
        if len(edges) != self.n_vertices - 1:
            return False
        seen = {0}
        frontier = [0]
        adj = {i: set() for i in range(self.n_vertices)}
        for e in edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n_vertices


class IntegralRep:
    """Integer matrices M_alpha of shape d_target x d_source per arrow."""

    def __init__(self, quiver, dims, matrices, basis_labels=None):
        self.quiver = quiver
        self.dims = tuple(dims)
        self.matrices = [np.asarray(m, dtype=int) for m in matrices]
        if len(self.dims) != quiver.n_vertices:
            raise ValueError("one dimension per vertex required")
        if len(self.matrices) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(quiver.arrows, self.matrices):
            if m.shape != (self.dims[t], self.dims[s]):
                raise ValueError(
                    f"matrix for arrow {s}->{t} must be {self.dims[t]}x{self.dims[s]}")
        if basis_labels is None:
            basis_labels = tuple(tuple(f"b{i}.{k}" for k in range(d))
                                 for i, d in enumerate(self.dims))
        self.basis_labels = basis_labels

    def __repr__(self):
        return f"IntegralRep(dims={self.dims}, arrows={self.quiver.arrows})"


class F1Rep:
    """Pointed sets with base-point-preserving maps whose fibres over
    non-base elements have at most one element."""

    def __init__(self, quiver, sizes, maps):
        self.quiver = quiver
        self.sizes = tuple(sizes)
        self.maps = [dict(m) for m in maps]
        if len(self.maps) != len(quiver.arrows):
            raise ValueError("one map per arrow required")
        for (s, t), m in zip(quiver.arrows, self.maps):
            hits = {}
            for x in range(self.sizes[s]):
                y = m.get(x)  # None encodes the base point
                if y is None:
                    continue
                if not (0 <= y < self.sizes[t]):
                    raise ValueError("map image out of range")
                if y in hits:
                    raise ValueError(
                        f"fibre over element {y} has more than one element")
                hits[y] = x


def f1_rep_to_integral(rep: F1Rep) -> IntegralRep:
    """The associated integral representation: 0/1 monomial matrices on the
    basis of non-base elements."""
    mats = []
    for (s, t), m in zip(rep.quiver.arrows, rep.maps):
        a = np.zeros((rep.sizes[t], rep.sizes[s]), dtype=int)
        for x, y in m.items():
            if y is not None:
                a[y, x] = 1
        mats.append(a)
    return IntegralRep(rep.quiver, rep.sizes, mats)


# ---------------------------------------------------------------------------
# Naive F1-rational points


def _dimension_vector(rep, e):
    """`e` as a tuple, with one nonnegative entry per vertex of `rep`."""
    e = tuple(e)
    if len(e) != rep.quiver.n_vertices:
        raise ValueError("one entry per vertex required")
    if any(k < 0 for k in e):
        raise ValueError("dimension vector entries must be nonnegative")
    return e


def naive_f1_points(rep: IntegralRep, e):
    """Basis-subset families (S_i) of sizes e_i closed under the arrows: each
    chosen basis vector maps to zero or to exactly a basis vector that is
    again chosen."""
    e = _dimension_vector(rep, e)
    if any(ei > di for ei, di in zip(e, rep.dims)):
        raise ValueError("dimension vector out of bounds")
    choices = [list(itertools.combinations(range(d), k))
               for d, k in zip(rep.dims, e)]
    out = []
    for family in itertools.product(*choices):
        ok = True
        for (s, t), m in zip(rep.quiver.arrows, rep.matrices):
            for b in family[s]:
                col = m[:, b]
                nz = np.nonzero(col)[0]
                if len(nz) == 0:
                    continue
                if len(nz) != 1 or col[nz[0]] != 1:
                    ok = False
                    break
                if nz[0] not in family[t]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(frozenset(f) for f in family))
    return out


# ---------------------------------------------------------------------------
# F_q subrepresentation counting


def _arrow_table(field, m, sources, targets, rank):
    """For each source basis U, the indices j with m(U) inside targets[j],
    memoized on the reduced-row-echelon form W of m(U). Every j contains
    W = 0, none a W of rank above `rank`, and only W itself one of rank
    `rank`; smaller W are tested against each target. A target of full
    dimension is the whole space and contains every image."""
    everything = frozenset(range(len(targets)))
    if rank == len(m):
        return [everything] * len(sources)
    add, mul = field.add_table, field.mul_table

    def image(vec):
        out = []
        for row in m:
            acc = 0
            for a, x in zip(row, vec):
                if a and x:
                    acc = add[acc][mul[a][x]]
            out.append(acc)
        return out

    index = {basis: j for j, basis in enumerate(targets)}
    found = {}
    table = []
    for basis in sources:
        w = _rref(field, [image(vec) for vec in basis])
        js = found.get(w)
        if js is None:
            if not w:
                js = everything
            elif len(w) > rank:
                js = frozenset()
            elif len(w) == rank:
                js = frozenset((index[w],))
            else:
                js = frozenset(j for j, target in enumerate(targets)
                               if _subspace_contains(field, target, w))
            found[w] = js
        table.append(js)
    return table


def subrep_count_fq(rep: IntegralRep, e, q):
    """Count of e-dimensional subrepresentations over F_q.

    A subspace of F_q^d is its canonical reduced-row-echelon basis from
    `_rref_bases`. Each arrow s -> t gets a table `_arrow_table`: per basis
    of vertex s, the set of bases of vertex t that contain its image. The
    families are then counted by backtracking over the vertices in order,
    each arrow checked in the loop over its later endpoint: a loop filters
    the bases of its vertex once, and an arrow between two vertices gives,
    for the choice at the earlier one, the set of bases allowed at the later
    one (through the inverted table when the arrow points backwards). A
    vertex on no arrow multiplies the count by its number of bases. An
    entry e_i > d_i gives 0.
    """
    if q not in SAMPLE_Q:
        raise TooLarge(f"no field table for q={q}")
    if any(d > 4 for d in rep.dims):
        raise TooLarge("vertex dimension above 4")
    e = _dimension_vector(rep, e)
    field = gf(q)
    grids = [_rref_bases(d, k, q) for d, k in zip(rep.dims, e)]
    # allowed[v]: the bases of v its loops keep. links[v]: per arrow to an
    # earlier vertex u, the bases of v allowed by each choice at u.
    allowed = [frozenset(range(len(grid))) for grid in grids]
    links = [[] for _ in grids]
    for (s, t), m in zip(rep.quiver.arrows, rep.matrices):
        # Integers land in the prime subfield, whose elements are 0..p-1.
        m = [[int(x) % field.p for x in row] for row in m]
        table = _arrow_table(field, m, grids[s], grids[t], e[t])
        if s == t:
            allowed[s] = frozenset(j for j in allowed[s] if j in table[j])
        elif s < t:
            links[t].append((s, table))
        else:
            sources = [set() for _ in grids[t]]
            for i, js in enumerate(table):
                for j in js:
                    sources[j].add(i)
            links[s].append((t, [frozenset(x) for x in sources]))
    on_arrows = {v for arrow in rep.quiver.arrows for v in arrow}
    count = 1
    for v, grid in enumerate(grids):
        if v not in on_arrows:
            count *= len(grid)
    order = sorted(on_arrows)
    choice = [None] * len(grids)

    def walk(i):
        if i == len(order):
            return 1
        v = order[i]
        total = 0
        for j in allowed[v].intersection(
                *(table[choice[u]] for u, table in links[v])):
            choice[v] = j
            total += walk(i + 1)
        return total

    return count * walk(0)


def good_sample_q(rep):
    """Prime powers whose characteristic divides no nonzero matrix entry.

    Fibres at bad primes deviate from the generic count (diag(2,2) over F_2
    degenerates), and the counting polynomial belongs to the generic model.
    """
    bad = set()
    for m in rep.matrices:
        for x in np.asarray(m).flat:
            x = abs(int(x))
            d = 2
            while d * d <= x:
                if x % d == 0:
                    bad.add(d)
                    while x % d == 0:
                        x //= d
                d += 1
            if x > 1:
                bad.add(x)
    return [q for q in SAMPLE_Q if gf(q).p not in bad]


def chi_via_interpolation(rep: IntegralRep, e):
    """Euler characteristic N(1) of the counting polynomial fitted from
    subrepresentation counts at good primes, with held-out verification.
    An entry e_i > d_i gives 0: there is no such subrepresentation."""
    e = _dimension_vector(rep, e)
    if any(ei > di for ei, di in zip(e, rep.dims)):
        return 0
    bound = sum(ei * (di - ei) for ei, di in zip(e, rep.dims))
    qs = good_sample_q(rep)
    if bound + 2 > len(qs):
        raise TooLarge(
            f"degree bound {bound} needs {bound + 2} good sample prime powers,"
            f" have {len(qs)}")
    counts = [(q, subrep_count_fq(rep, e, q)) for q in qs[:bound + 2]]
    poly = fit_polynomial(counts)
    if poly is None or poly.degree > bound:
        raise NotPolynomial("subrepresentation counts are not polynomial")
    extra = [(q, subrep_count_fq(rep, e, q)) for q in qs[bound + 2:]]
    if not all(poly(q) == c for q, c in extra):
        raise NotPolynomial("held-out sample mismatch")
    return poly(1)


def weyl_count_diagonal_tree(rep: IntegralRep, e):
    """Torus-fixed-point count for tree quivers with invertible diagonal
    matrices: coordinate-subset families closed under the index-support maps
    of the arrows."""
    e = _dimension_vector(rep, e)
    if not rep.quiver.underlying_is_tree():
        raise HypothesisViolated("underlying graph is not a tree")
    for (s, t), m in zip(rep.quiver.arrows, rep.matrices):
        if rep.dims[s] != rep.dims[t]:
            raise HypothesisViolated("matrices must be square")
        a = np.asarray(m)
        if not np.array_equal(a, np.diag(np.diagonal(a))):
            raise HypothesisViolated("matrices must be diagonal")
        if any(x == 0 for x in np.diagonal(a)):
            raise HypothesisViolated("diagonal entries must be invertible")
    choices = [list(itertools.combinations(range(d), k))
               for d, k in zip(rep.dims, e)]
    count = 0
    for family in itertools.product(*choices):
        ok = True
        for (s, t), _m in zip(rep.quiver.arrows, rep.matrices):
            if not set(family[s]) <= set(family[t]):
                ok = False
                break
        if ok:
            count += 1
    return count
