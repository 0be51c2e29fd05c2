"""Quiver representations with integral bases, F1-representations, naive
F1-rational points, F_q subrepresentation counts (per-arrow containment
tables and backtracking over the vertices), and the Euler-characteristic
comparison theorems.

The Euler characteristic of a quiver Grassmannian is computed by torus
localisation whenever a grading separates the basis vectors at every vertex
(`has_separating_grading`): it is then the number of coordinate
subrepresentations. Otherwise it is N(1) of the counting polynomial fitted
from F_q subrepresentation counts."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .core import BlueprintError, TooLarge, _UnionFind
from .counting import SAMPLE_Q, fit_polynomial
# The tests and bench/trace.py read `_rref_bases` and `_reduce_vec` here.
from .fields import (_rref, _rref_bases, _reduce_vec, _subspace_contains,
                     gf)
from .snf import lattice_rank

# `_closed_families` raises TooLarge rather than test more coordinate families
# (S_v), |S_v| = e_v, than this.
MAX_COORDINATE_FAMILIES = 100_000


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
        """Connected and acyclic as an undirected simple graph: n - 1 arrows,
        each joining two different components of the ones before it."""
        if len(self.arrows) != self.n_vertices - 1:
            return False
        uf = _UnionFind(range(self.n_vertices))
        return all(uf.union(s, t) for s, t in self.arrows)


def _integers(values, message):
    """`values` as a tuple of Python ints, or ValueError(message)."""
    try:
        return tuple(operator.index(x) for x in values)
    except TypeError:
        raise ValueError(message) from None


def _integer_matrix(m, s, t, rows, cols):
    """`m` as a tuple of `rows` row tuples of `cols` Python ints."""
    shape = (f"matrix for arrow {s}->{t} must be {rows}x{cols}:"
             f" a list of {rows} rows of {cols} integers")
    try:
        m = [list(row) for row in m]
    except TypeError:
        raise ValueError(shape) from None
    if len(m) != rows or any(len(row) != cols for row in m):
        raise ValueError(shape)
    entry = f"matrix for arrow {s}->{t} has an entry that is not an integer"
    return tuple(_integers(row, entry) for row in m)


class IntegralRep:
    """Integer matrices M_alpha per arrow, each a tuple of d_target rows of
    d_source Python ints (a 0 x d matrix has no rows)."""

    def __init__(self, quiver, dims, matrices):
        self.quiver = quiver
        self.dims = _integers(dims, "dims must be a list of integers")
        if any(d < 0 for d in self.dims):
            raise ValueError("dims must be nonnegative")
        if len(self.dims) != quiver.n_vertices:
            raise ValueError("one dimension per vertex required")
        matrices = list(matrices)
        if len(matrices) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        self.matrices = tuple(
            _integer_matrix(m, s, t, self.dims[t], self.dims[s])
            for (s, t), m in zip(quiver.arrows, matrices))

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
        a = [[0] * rep.sizes[s] for _ in range(rep.sizes[t])]
        for x, y in m.items():
            if y is not None:
                a[y][x] = 1
        mats.append(a)
    return IntegralRep(rep.quiver, rep.sizes, mats)


# ---------------------------------------------------------------------------
# Naive F1-rational points


def _dimension_vector(rep, e):
    """`e` as a tuple, with one nonnegative entry per vertex of `rep`."""
    e = _integers(e, "dimension vector entries must be integers")
    if len(e) != rep.quiver.n_vertices:
        raise ValueError("one entry per vertex required")
    if any(k < 0 for k in e):
        raise ValueError("dimension vector entries must be nonnegative")
    return e


def _closed_families(rep, e, successors):
    """The families (S_v) of basis subsets with |S_v| = e_v, each S_v a
    frozenset, in `itertools.product` order over the vertices' combinations,
    that are closed under the arrows. Per arrow, `successors[b]` is the
    frozenset of target indices that a chosen source index b forces into the
    target subset, or None if b may not be chosen. Raises TooLarge before
    listing anything when there are more than MAX_COORDINATE_FAMILIES
    families to test."""
    families = math.prod(math.comb(d, k) for d, k in zip(rep.dims, e))
    if families > MAX_COORDINATE_FAMILIES:
        raise TooLarge(f"{families} coordinate families, more than"
                       f" {MAX_COORDINATE_FAMILIES}")
    choices = [[frozenset(c) for c in itertools.combinations(range(d), k)]
               for d, k in zip(rep.dims, e)]
    checks = list(zip(rep.quiver.arrows, successors))
    for family in itertools.product(*choices):
        if all(succ[b] is not None and succ[b] <= family[t]
               for (s, t), succ in checks for b in family[s]):
            yield family


def naive_f1_points(rep: IntegralRep, e):
    """Basis-subset families (S_i) of sizes e_i closed under the arrows: each
    chosen basis vector maps to zero or to exactly a basis vector that is
    again chosen."""
    e = _dimension_vector(rep, e)
    if any(ei > di for ei, di in zip(e, rep.dims)):
        raise ValueError("dimension vector out of bounds")
    successors = []
    for (s, _t), m in zip(rep.quiver.arrows, rep.matrices):
        columns = [[row[b] for row in m] for b in range(rep.dims[s])]
        successors.append([frozenset(r for r, x in enumerate(col) if x)
                           if set(col) <= {0, 1} and sum(col) <= 1 else None
                           for col in columns])
    return list(_closed_families(rep, e, successors))


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
        m = [[x % field.p for x in row] for row in m]
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
    entries = {x for m in rep.matrices for row in m for x in row if x}
    return [q for q in SAMPLE_Q if all(x % gf(q).p for x in entries)]


def has_separating_grading(rep: IntegralRep):
    """Whether a grading separates the basis vectors at every vertex.

    A grading is a weight w(v, i) per basis vector and a shift d(alpha) per
    arrow with w(t, r) - w(s, c) = d(alpha) for every nonzero entry
    M_alpha[r][c]. Link two basis vectors when an entry joins them. Along a
    spanning tree of each component, the potential of a vector counts the
    arrows crossed from the component's root, with sign, so that
    w = w(root) + potential . d; every other link gives a cycle vector c,
    and the gradings are exactly the d with c . d = 0 for every cycle, with
    w(root) free per component. Two vectors at one vertex get different
    weights under some grading iff they lie in different components or the
    difference of their potentials is outside the Q-span of the cycles. A
    generic combination of such gradings then separates all pairs at once.
    """
    n = len(rep.quiver.arrows)
    links = {(v, i): [] for v, d in enumerate(rep.dims) for i in range(d)}
    for k, ((s, t), m) in enumerate(zip(rep.quiver.arrows, rep.matrices)):
        for r, row in enumerate(m):
            for c, x in enumerate(row):
                if x:
                    links[s, c].append(((t, r), k, 1))
                    links[t, r].append(((s, c), k, -1))
    potential = {}
    groups = {}  # (component root, vertex) -> potentials of its vectors
    cycles = set()
    for root in links:
        if root in potential:
            continue
        potential[root] = (0,) * n
        stack = [root]
        while stack:
            x = stack.pop()
            groups.setdefault((root, x[0]), []).append(potential[x])
            for y, k, sign in links[x]:
                p = list(potential[x])
                p[k] += sign
                p = tuple(p)
                if y not in potential:
                    potential[y] = p
                    stack.append(y)
                elif p != potential[y]:
                    cycles.add(tuple(a - b for a, b in zip(p, potential[y])))
    cycles = [list(c) for c in cycles]
    rank = lattice_rank(cycles) if cycles else 0
    for group in groups.values():
        for p, p2 in itertools.combinations(group, 2):
            diff = [a - b for a, b in zip(p, p2)]
            if not any(diff) or (cycles and
                                 lattice_rank(cycles + [diff]) == rank):
                return False
    return True


def _coordinate_subrep_count(rep: IntegralRep, e):
    """The number of basis-subset families (S_v) with |S_v| = e_v that are
    closed under the column supports: for each arrow and each chosen source
    index b, every r with M_alpha[r][b] != 0 is chosen at the target."""
    successors = [[frozenset(r for r, row in enumerate(m) if row[b])
                   for b in range(rep.dims[s])]
                  for (s, _t), m in zip(rep.quiver.arrows, rep.matrices)]
    return sum(1 for _ in _closed_families(rep, e, successors))


def chi_via_interpolation(rep: IntegralRep, e):
    """Euler characteristic of the complex quiver Grassmannian Gr_e(M).

    When `has_separating_grading(rep)`, a generic one-parameter subgroup of
    the grading acts on Gr_e(M) (it maps subrepresentations to
    subrepresentations, since each arrow only shifts weights) with
    one-dimensional weight spaces at every vertex. Its fixed points are then
    the coordinate subrepresentations, finitely many, and
    chi(Gr_e(M)) = chi of the fixed locus (Bialynicki-Birula), which is
    their number `_coordinate_subrep_count`. Where the F_q counts are
    polynomial this equals N(1) (Katz). Otherwise chi is N(1) of the
    counting polynomial fitted from subrepresentation counts at good primes,
    with held-out verification (`_interpolated_chi`). An entry e_i > d_i
    gives 0: there is no such subrepresentation."""
    e = _dimension_vector(rep, e)
    if any(ei > di for ei, di in zip(e, rep.dims)):
        return 0
    if has_separating_grading(rep):
        return _coordinate_subrep_count(rep, e)
    return _interpolated_chi(rep, e)


def _interpolated_chi(rep: IntegralRep, e):
    """N(1) of the counting polynomial fitted from subrepresentation counts
    at good primes, with held-out verification, for a checked dimension
    vector e with e_i <= d_i."""
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
    of the arrows. The hypotheses give the separating grading w(v, i) = i,
    d = 0, so this is `_coordinate_subrep_count`."""
    e = _dimension_vector(rep, e)
    if not rep.quiver.underlying_is_tree():
        raise HypothesisViolated("underlying graph is not a tree")
    for (s, t), m in zip(rep.quiver.arrows, rep.matrices):
        if rep.dims[s] != rep.dims[t]:
            raise HypothesisViolated("matrices must be square")
        if any(x and i != j
               for i, row in enumerate(m) for j, x in enumerate(row)):
            raise HypothesisViolated("matrices must be diagonal")
        if not all(m[i][i] for i in range(len(m))):
            raise HypothesisViolated("diagonal entries must be invertible")
    return _coordinate_subrep_count(rep, e)
