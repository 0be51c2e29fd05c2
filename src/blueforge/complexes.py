"""Order complexes, Coxeter complexes as Weyl orbits of the standard flag,
Weyl-group orbit complexes on projective coordinate posets, the oriflamme
construction, and type-A buildings over F_q. Typed isomorphism is the one
search for finite structures, `predicates._isomorphism` on
`predicates._structure`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import BlueprintError, TooLarge, _isomorphism, _structure
from .fields import _rref_bases as _rref_subspaces, _subspace_contains, gf
from .order import _bits, _closure, _heights, _minimal, _up_masks


class DimensionTooLarge(BlueprintError):
    pass


class RankTooLarge(BlueprintError):
    pass


class SeedNotSimplex(BlueprintError):
    pass


# ---------------------------------------------------------------------------
# Posets


class FinitePoset:
    """A finite poset on hashable labels, stored as one up-set bitmask per
    element (in the order of `elements`)."""

    def __init__(self, elements, leq_pairs):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        self._order(elements, _closure(len(elements), [(index[a], index[b])
                                                       for a, b in leq_pairs]))

    @classmethod
    def _from_up(cls, elements, up):
        """From up-set masks that are already closed: none is reclosed."""
        self = cls.__new__(cls)
        self._order(tuple(elements), list(up))
        return self

    def _order(self, elements, up):
        self.elements, self._up = elements, up
        self.index = {x: i for i, x in enumerate(elements)}
        for i, m in enumerate(up):
            if any(up[j] >> i & 1 for j in _bits(m & ~(1 << i))):
                raise ValueError("not antisymmetric")
        self._height = _heights(up)

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b):
        return bool(self._up[self.index[a]] >> self.index[b] & 1)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def chains(self):
        """All nonempty strictly increasing chains, as tuples: depth first,
        elements taken by the size of their down-set."""
        below = [0] * len(self.elements)
        for m in self._up:
            for j in _bits(m):
                below[j] += 1
        order = sorted(range(len(self.elements)), key=below.__getitem__)
        above = [[j for j in order if j != i and m >> j & 1]
                 for i, m in enumerate(self._up)]
        out = []

        def extend(chain, last):
            out.append(chain)
            for j in above[last]:
                extend(chain + (self.elements[j],), j)

        for i in order:
            extend((self.elements[i],), i)
        return out

    def height(self, x):
        return self._height[self.index[x]]

    def sup(self, xs):
        """Least upper bound, or None."""
        ubs = (1 << len(self.elements)) - 1
        for x in xs:
            ubs &= self._up[self.index[x]]
        mins = list(_bits(_minimal(self._up, ubs)))
        return self.elements[mins[0]] if len(mins) == 1 else None

    def restricted(self, keep):
        keep = set(keep)
        kept = [i for i, x in enumerate(self.elements) if x in keep]
        mask = sum(1 << i for i in kept)
        new = {i: k for k, i in enumerate(kept)}
        return FinitePoset._from_up(
            [self.elements[i] for i in kept],
            [sum(1 << new[j] for j in _bits(self._up[i] & mask))
             for i in kept])

    def maximal(self):
        return [x for i, (x, m) in enumerate(zip(self.elements, self._up))
                if not m & ~(1 << i)]

    def minimal(self):
        everything = (1 << len(self.elements)) - 1
        return [self.elements[i] for i in _bits(_minimal(self._up, everything))]


def specialization_poset(space):
    """The strict specialization order of a spectrum-like object, with closed
    points minimal (they are the most special)."""
    down = [0] * len(space._up)
    for i, m in enumerate(space._up):
        for j in _bits(m):
            down[j] |= 1 << i
    return FinitePoset._from_up(space.labels(), down)


def poset_of_space(space):
    """The same order as the space itself: generic points at the bottom."""
    return FinitePoset._from_up(space.labels(), space._up)


# ---------------------------------------------------------------------------
# Typed simplicial complexes


class TypedComplex:
    """A finite simplicial complex with one type label per vertex; every
    simplex has pairwise distinct vertex types."""

    def __init__(self, vertices, types, facets):
        self.vertices = tuple(vertices)
        self.types = dict(types)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        facs = list({frozenset(f) for f in facets})
        # keep the faces that no larger face contains: the maximal elements
        # of the inclusion order
        up = _up_masks(facs)
        self.facets = tuple(sorted(
            (f for k, f in enumerate(facs) if up[k] == 1 << k),
            key=lambda f: sorted(self.index[v] for v in f)))
        for f in self.facets:
            tps = [self.types[v] for v in f]
            if len(set(tps)) != len(tps):
                raise ValueError("facet with repeated vertex types")

    def simplices(self):
        out = set()
        for f in self.facets:
            for r in range(1, len(f) + 1):
                out.update(frozenset(c) for c in itertools.combinations(f, r))
        return out

    def f_vector(self):
        counts = {}
        for s in self.simplices():
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return tuple(counts.get(d, 0) for d in range(max(counts) + 1)) \
            if counts else ()

    def chambers(self):
        top = max(len(f) for f in self.facets)
        return [f for f in self.facets if len(f) == top]

    def is_pure(self):
        return len({len(f) for f in self.facets}) == 1

    def panel_chamber_counts(self):
        """For each panel (codimension-1 face of a chamber), the number of
        chambers containing it. Counting ch - {v} over chambers ch and their
        vertices v is exact: all chambers have the top size, so a chamber
        holds a panel iff the panel is that chamber minus one vertex."""
        panels = {}
        for ch in self.chambers():
            for v in ch:
                panel = ch - {v}
                panels[panel] = panels.get(panel, 0) + 1
        return panels

    def is_thin(self):
        return self.is_pure() and \
            all(c == 2 for c in self.panel_chamber_counts().values())

    def type_histogram(self):
        hist = {}
        for v in self.vertices:
            hist[self.types[v]] = hist.get(self.types[v], 0) + 1
        return hist

    def __repr__(self):
        return (f"TypedComplex({len(self.vertices)} vertices, "
                f"{len(self.facets)} facets)")

    def facet_lines(self):
        """The text format: one facet per line, 'type:label' tokens sorted."""
        lines = []
        for f in self.facets:
            toks = sorted(f"{self.types[v]}:{v}" for v in f)
            lines.append(" ".join(toks))
        return sorted(lines)


def tilde_complex(poset, rank=None):
    """Chains of the poset as simplices; vertex types are the ranks (heights
    by default)."""
    if rank is None:
        heights = {x: poset.height(x) for x in poset.elements}
        rank = heights.get
    chains = poset.chains()
    facets = [frozenset(c) for c in chains]
    types = {x: rank(x) for x in poset.elements}
    return TypedComplex(poset.elements, types, facets)


# ---------------------------------------------------------------------------
# The extended complex Delta(X): monotone maps from subset posets


def _subset_poset_elements(k):
    base = list(range(k + 1))
    return [frozenset(s) for r in range(1, k + 2)
            for s in itertools.combinations(base, r)]


def full_complex_maps(poset, max_dim):
    """All order-preserving maps from the face poset of a k-simplex into the
    poset, for k <= max_dim, keyed by dimension."""
    if max_dim > 5:
        raise DimensionTooLarge("max_dim > 5")
    out = {}
    for k in range(max_dim + 1):
        cells = _subset_poset_elements(k)
        cells.sort(key=lambda s: (len(s), sorted(s)))
        maps = []

        def assign(i, current):
            if i == len(cells):
                maps.append(dict(current))
                return
            cell = cells[i]
            for x in poset.elements:
                ok = True
                for prev in cells[:i]:
                    if prev < cell and not poset.leq(current[prev], x):
                        ok = False
                        break
                if ok:
                    current[cell] = x
                    assign(i + 1, current)
                    del current[cell]

        assign(0, {})
        out[k] = maps
    return out


def sup_map_of_chain(poset, chain):
    """The monotone map I -> x_{max I} attached to a chain."""
    k = len(chain) - 1
    return {s: chain[max(s)] for s in _subset_poset_elements(k)}


def sup_simplex(poset, points):
    """The monotone map I -> sup{x_i : i in I} for an arbitrary vertex tuple;
    raises SeedNotSimplex when some sup is missing."""
    k = len(points) - 1
    out = {}
    for s in _subset_poset_elements(k):
        val = poset.sup([points[i] for i in s])
        if val is None:
            raise SeedNotSimplex(f"no supremum for {sorted(s)}")
        out[s] = val
    return out


# ---------------------------------------------------------------------------
# Coxeter groups of classical type


def _compose(p, q):
    """Permutations as tuples over a symbol domain dict-free: p after q."""
    return tuple(p[i] for i in q)


def _signed_compose(p, q, n):
    """Signed permutations stored as tuples s with s[i] in {+-1..+-n} for
    i = 0..n-1: (p*q)(i) = p(q(i))."""
    out = []
    for i in range(n):
        v = q[i]
        w = p[abs(v) - 1]
        out.append(w if v > 0 else -w)
    return tuple(out)


def _group_closure(generators, compose, identity):
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = compose(s, g)
                if h not in elems:
                    elems.add(h)
                    new.append(h)
        frontier = new
    return sorted(elems)


def coxeter_group(family, n):
    """Elements and generators of W(A_n) as permutations of {0..n}, W(B_n) =
    W(C_n) as signed permutations, W(D_n) as even-signed permutations.

    The generators are the adjacent transpositions, then for B/C the sign
    change of the last entry and for D the signed swap of the last two."""
    if family not in ("A", "B", "C", "D"):
        raise ValueError("family must be one of A, B, C, D")
    least = 2 if family == "D" else 1
    if n < least:
        raise ValueError(f"no Coxeter group {family}_{n}: the rank must be "
                         f"at least {least}")
    if family == "A":
        ident = tuple(range(n + 1))
        comp = _compose
    else:
        ident = tuple(range(1, n + 1))
        comp = lambda p, q: _signed_compose(p, q, n)
    gens = []
    for i in range(len(ident) - 1):
        g = list(ident)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    if family != "A":
        g = list(ident)
        if family == "D":
            g[-2:] = -ident[-1], -ident[-2]
        else:
            g[-1] = -ident[-1]
        gens.append(tuple(g))
    return _group_closure(gens, comp, ident), gens, comp


@dataclass
class CoxeterGroupAction:
    family: str
    rank: int
    elements: tuple
    generators: tuple
    compose: object
    vertex_action: object    # (group element, vertex) -> vertex

    def act_on_simplex(self, g, simplex):
        return frozenset(self.vertex_action(g, v) for v in simplex)


def coxeter_complex(family, n):
    """The Coxeter complex: the orbit of the standard flag under W.

    Entry t of `standard_orbit_seed(family, n)` is the vertex fixed by the
    maximal parabolic subgroup W_{S-t}, so the type-t vertices are the cosets
    w W_{S-t}, told apart by the point w.seed[t]. The vertex is labelled
    (t, w) with w the first element of its coset in the sorted group;
    chambers correspond to group elements."""
    if n > 5:
        raise RankTooLarge("n > 5")
    elems, gens, comp = coxeter_group(family, n)
    act = _coordinate_action(family, n, _ambient_size(family, n))
    seed = standard_orbit_seed(family, n)

    def point(w, t):
        return frozenset(act(w, i) for i in seed[t])

    label = [{} for _ in seed]     # type t: point -> vertex (t, w)
    facets = [frozenset(label[t].setdefault(point(w, t), (t, w))
                        for t in range(len(seed))) for w in elems]
    vertices = sorted(v for by_point in label for v in by_point.values())
    cx = TypedComplex(vertices, {v: v[0] for v in vertices}, facets)

    def vact(g, v):
        t, w = v
        return label[t][point(comp(g, w), t)]

    action = CoxeterGroupAction(family, n, tuple(elems), tuple(gens), comp,
                                vact)
    return cx, action


# ---------------------------------------------------------------------------
# Weyl orbit complexes inside P^{m-1}


def _ambient_size(family, n):
    return {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[family]


def _coordinate_action(family, n, m):
    """Realize W as permutations of the coordinate labels {1..m}, pairing
    i <-> m+1-i (the standard anti-diagonal form)."""
    if family == "A":
        def act(g, label):
            return g[label - 1] + 1
        return act

    def act(g, label):
        if 2 * label == m + 1:
            return label
        if label <= n:
            v = g[label - 1]
            return v if v > 0 else m + 1 + v
        partner = m + 1 - label
        v = g[partner - 1]
        img_partner = v if v > 0 else m + 1 + v
        return m + 1 - img_partner
    return act


def standard_orbit_seed(family, n):
    """The seed simplex: coordinate flags defined over F1.

    A: the full flag {1} < {1,2} < ... < {1..n} in P^n;
    B/C: the maximal isotropic coordinate flag;
    D: the oriflamme pair sharing dimensions 1..n-2 with both maximal
    isotropic subspaces {1..n-1, n+1} and {1..n}.

    Entry t is the vertex fixed by the maximal parabolic subgroup W_{S-t},
    S the generators of `coxeter_group(family, n)` in order.
    """
    if family in ("A", "B", "C"):
        return [frozenset(range(1, k + 1)) for k in range(1, n + 1)]
    if family == "D":
        seed = [frozenset(range(1, k + 1)) for k in range(1, n - 1)]
        seed.append(frozenset(list(range(1, n)) + [n + 1]))
        seed.append(frozenset(range(1, n + 1)))
        return seed
    raise ValueError("family must be one of A, B, C, D")


def _is_isotropic(subset, family, m):
    if family == "A":
        return True
    for i in subset:
        j = m + 1 - i
        if j == i or j in subset:
            return False
    return True


_ORBIT_MAX_RANK = {"A": 7, "B": 5, "C": 5, "D": 5}


def weyl_orbit_complex(family, n, seed=None):
    """The orbit of a seed simplex (a set of coordinate-subset points of
    P^{m-1}) under the Weyl group acting on coordinate labels, closed under
    faces. Vertex types are the W-orbit classes.

    Ranks above A_7, B_5, C_5 and D_5 raise RankTooLarge before the group is
    closed: A_8 has 9! elements, and from m = 12 coordinates on the
    concatenated vertex names clash ({12} and {1, 2} are both "12")."""
    if n > _ORBIT_MAX_RANK.get(family, n):
        raise RankTooLarge(f"{family}_{n}: orbit complexes stop at "
                           f"{family}_{_ORBIT_MAX_RANK[family]}")
    m = _ambient_size(family, n)
    elems, gens, comp = coxeter_group(family, n)
    act = _coordinate_action(family, n, m)
    if seed is None:
        seed = standard_orbit_seed(family, n)
    seed = [frozenset(s) for s in seed]
    for s in seed:
        if not s or not s <= set(range(1, m + 1)):
            raise SeedNotSimplex(f"{sorted(s)} is not a point of P^{m-1}")
        if not _is_isotropic(s, family, m):
            raise SeedNotSimplex(f"{sorted(s)} is not isotropic")
    if len({frozenset(s) for s in seed}) != len(seed):
        raise SeedNotSimplex("seed vertices repeat")

    def act_point(g, pt):
        return frozenset(act(g, i) for i in pt)

    facets = set()
    vertices = set()
    for g in elems:
        img = frozenset(act_point(g, s) for s in seed)
        facets.add(img)
        vertices.update(img)
    # types = orbit classes, numbered deterministically
    orbits = []
    seen = set()
    for v in sorted(vertices, key=lambda s: (len(s), sorted(s))):
        if v in seen:
            continue
        orb = {act_point(g, v) for g in elems} & vertices
        orbits.append(sorted(orb, key=lambda s: (len(s), sorted(s))))
        seen.update(orb)
    types = {}
    for t, orb in enumerate(orbits):
        for v in orb:
            types[v] = t
    labels = sorted(vertices, key=lambda s: (len(s), sorted(s)))
    named = {v: "".join(str(i) for i in sorted(v)) for v in labels}
    cx = TypedComplex([named[v] for v in labels],
                      {named[v]: types[v] for v in labels},
                      [frozenset(named[v] for v in f) for f in facets])
    back = {named[v]: v for v in labels}

    def vact(g, vname):
        return named[act_point(g, back[vname])]

    action = CoxeterGroupAction(family, n, tuple(elems), tuple(gens), comp,
                                vact)
    return cx, action


# ---------------------------------------------------------------------------
# Type-A buildings over F_q


def building_type_a(n, q):
    """Flags of proper nonzero subspaces of F_q^{n+1}; chambers are complete
    flags. Vertex types are the dimensions."""
    if n < 1:
        raise ValueError(f"no building of type A_{n}: the rank must be at "
                         "least 1")
    if n > 3 or q not in (2, 3):
        raise TooLarge("building_type_a supports n <= 3, q in {2, 3}")
    dim = n + 1
    field = gf(q)
    spaces = {r: _rref_subspaces(dim, r, q) for r in range(1, dim)}
    vertices = [(r, s) for r in spaces for s in spaces[r]]
    types = {v: v[0] for v in vertices}
    facets = []

    def extend(flag, r):
        if r == dim:
            facets.append(frozenset((k + 1, s) for k, s in enumerate(flag)))
            return
        prev = flag[-1] if flag else None
        for s in spaces[r]:
            if prev is None or _subspace_contains(field, s, prev):
                flag.append(s)
                extend(flag, r + 1)
                flag.pop()

    extend([], 1)
    return TypedComplex(vertices, types, facets)


def coordinate_apartment(building_cx, n, q):
    """The subcomplex on coordinate subspaces (spans of standard basis
    vectors)."""
    def is_coordinate(v):
        _, rows = v
        return all(sum(1 for x in row if x) == 1 for row in rows)

    keep = [v for v in building_cx.vertices if is_coordinate(v)]
    keepset = set(keep)
    facets = []
    for f in building_cx.facets:
        inter = frozenset(v for v in f if v in keepset)
        if len(inter) == len(f):
            facets.append(inter)
    return TypedComplex(keep, {v: building_cx.types[v] for v in keep}, facets)


# ---------------------------------------------------------------------------
# Typed isomorphism testing


def is_isomorphic_typed(c1, c2):
    """A type-preserving simplicial bijection (up to a bijection of the type
    alphabets) as {"vertex_map", "type_map"}, or None:
    `predicates._isomorphism` on the `_typed_structure`s."""
    if len(c1.vertices) > 200 or len(c2.vertices) > 200:
        raise TooLarge("too many vertices")
    found = _isomorphism(_typed_structure(c1), _typed_structure(c2))
    if found is None:
        return None
    part = {kind: {x: y for (k, x), (_, y) in found.items() if k == kind}
            for kind in "vt"}
    return {"vertex_map": part["v"], "type_map": part["t"]}


def _typed_structure(cx):
    """Types, vertices and facets as one `predicates._structure`, related by
    typing, incidence and vertex adjacency. The types come first, then the
    facets one by one, each after its vertices not placed before."""
    order = [("t", t) for t in sorted(set(cx.types[v] for v in cx.vertices))]
    placed = set()
    for f in cx.facets:
        order += [("v", v) for v in sorted(f - placed, key=cx.index.get)]
        placed |= f
        order.append(("f", f))
    order += [("v", v) for v in cx.vertices if v not in placed]
    typing = [(("v", v), ("t", cx.types[v])) for v in cx.vertices]
    incidence = [(("v", v), ("f", f)) for f in cx.facets for v in f]
    adjacency = [(("v", u), ("v", v))
                 for f in cx.facets for u in f for v in f if u != v]
    return _structure(order, ["tvf".index(x[0]) for x in order],
                      [typing, incidence, adjacency])
