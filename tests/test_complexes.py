"""Order complexes, Coxeter complexes, orbit complexes, buildings."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog, complexes as cx
from blueforge.fields import _rref_bases, gf
from blueforge.schemes import proj
from blueforge.spectra import rank_of_point, spec


def full_complex_counts_bruteforce(poset, max_dim):
    """Independent oracle: filter all assignments of poset elements to the
    subset lattice for monotonicity."""
    out = {}
    for k in range(max_dim + 1):
        cells = cx._subset_poset_elements(k)
        count = 0
        for combo in itertools.product(poset.elements, repeat=len(cells)):
            val = dict(zip(cells, combo))
            if all(poset.leq(val[a], val[b])
                   for a in cells for b in cells if a < b):
                count += 1
        out[k] = count
    return out


def minus_generic(space):
    po = cx.poset_of_space(space)
    bottom = set(po.minimal())
    return po.restricted([e for e in po.elements if e not in bottom])


class TestPosets:
    def test_affine_line_chain(self):
        po = cx.poset_of_space(spec(catalog.affine_space(1)))
        assert len(po.chains()) == 3  # two vertices and one edge

    def test_specialization_poset_closed_points_minimal(self, sl2_space):
        po = cx.specialization_poset(sl2_space)
        assert set(po.minimal()) == {"(T1, T4)", "(T2, T3)"}

    def test_antichain(self):
        po = cx.FinitePoset(["a", "b"], [])
        assert all(len(c) == 1 for c in po.chains())

    def test_p2_height(self):
        po = cx.poset_of_space(proj(catalog.proj_cone(2)))
        assert max(len(c) for c in po.chains()) == 3


class TestTildeComplex:
    def test_p2_minus_generic_is_hexagon(self):
        P2 = proj(catalog.proj_cone(2))
        po = minus_generic(P2)
        t = cx.tilde_complex(po)
        assert t.f_vector() == (6, 6)
        a2, _ = cx.coxeter_complex("A", 2)
        assert cx.is_isomorphic_typed(t, a2) is not None

    def test_pn_minus_generic_facets(self):
        for n in (1, 2, 3, 4):
            P = proj(catalog.proj_cone(n))
            t = cx.tilde_complex(minus_generic(P))
            assert len(t.chambers()) == math.factorial(n + 1)

    def test_ranks_increase_along_chains(self, sl2_space):
        # closure order: x < y iff x lies in the closure of y, so closed
        # points are minimal and ranks strictly increase along chains
        po = cx.specialization_poset(sl2_space)
        ranks = {sl2_space.points[i].label(): rank_of_point(sl2_space, i)
                 for i in range(len(sl2_space))}
        cx.tilde_complex(po, rank=lambda x: ranks[x])
        for chain in po.chains():
            values = [ranks[x] for x in chain]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_antichain_gives_vertices_only(self):
        po = cx.FinitePoset(["a", "b", "c"], [])
        t = cx.tilde_complex(po)
        assert t.f_vector() == (3,)


class TestFullComplex:
    def test_contains_tilde_as_subcomplex(self):
        po = cx.FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        maps = cx.full_complex_maps(po, 2)
        chains = po.chains()
        for chain in chains:
            sup_map = cx.sup_map_of_chain(po, chain)
            assert sup_map in maps[len(chain) - 1]

    def test_counts_match_bruteforce(self):
        po = cx.FinitePoset(["a", "b"], [("a", "b")])
        maps = cx.full_complex_maps(po, 2)
        brute = full_complex_counts_bruteforce(po, 2)
        for k in range(3):
            assert len(maps[k]) == brute[k]
        assert len(maps[1]) == 5

    def test_pair_of_chains_sup_simplex(self):
        # pair of flags sharing the bottom, as in the oriflamme construction
        elements = [frozenset(s) for s in ({1}, {1, 2}, {1, 3}, {1, 2, 3})]
        pairs = [(a, b) for a in elements for b in elements if a <= b]
        po = cx.FinitePoset(elements, pairs)
        delta = cx.sup_simplex(po, [frozenset({1}), frozenset({1, 2}),
                                    frozenset({1, 3})])
        assert delta[frozenset({1, 2})] == frozenset({1, 2, 3})
        assert delta[frozenset({0})] == frozenset({1})

    def test_dimension_cap(self):
        po = cx.FinitePoset(["a"], [])
        with pytest.raises(cx.DimensionTooLarge):
            cx.full_complex_maps(po, 6)


class TestCoxeterComplexes:
    @pytest.mark.parametrize("family,n,order", [
        ("A", 2, 6), ("A", 3, 24), ("A", 4, 120),
        ("B", 2, 8), ("B", 3, 48), ("B", 4, 384),
        ("C", 2, 8), ("C", 3, 48),
        ("D", 3, 24), ("D", 4, 192)])
    def test_chamber_counts_and_thinness(self, family, n, order):
        c, action = cx.coxeter_complex(family, n)
        assert len(c.chambers()) == order
        assert c.is_thin()
        assert len(action.elements) == order

    def test_a5_facets(self):
        c, _ = cx.coxeter_complex("A", 5)
        assert len(c.chambers()) == 720

    def test_action_is_simplicial_and_transitive(self):
        c, action = cx.coxeter_complex("B", 2)
        chambers = set(c.chambers())
        facets = set(c.facets)
        for g in action.elements:
            for f in c.facets:
                assert action.act_on_simplex(g, f) in facets
        seed = c.chambers()[0]
        orbit = {action.act_on_simplex(g, seed) for g in action.elements}
        assert orbit == chambers

    def test_b2_equals_c2(self):
        b2, _ = cx.coxeter_complex("B", 2)
        c2, _ = cx.coxeter_complex("C", 2)
        assert cx.is_isomorphic_typed(b2, c2) is not None


class TestOrbitComplexes:
    @pytest.mark.parametrize("family,n", [("A", 2), ("A", 3), ("B", 2),
                                          ("B", 3), ("C", 2), ("C", 3),
                                          ("D", 3)])
    def test_orbit_isomorphic_to_abstract(self, family, n):
        oc, _ = cx.weyl_orbit_complex(family, n)
        ab, _ = cx.coxeter_complex(family, n)
        assert cx.is_isomorphic_typed(oc, ab) is not None

    def test_orbit_action_transitive_on_chambers(self):
        oc, action = cx.weyl_orbit_complex("B", 2)
        chambers = set(oc.chambers())
        seed = oc.chambers()[0]
        orbit = {frozenset(action.vertex_action(g, v) for v in seed)
                 for g in action.elements}
        assert orbit == chambers

    def test_non_oriflamme_d3_not_thin(self):
        plain = [frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
        oc, _ = cx.weyl_orbit_complex("D", 3, plain)
        counts = oc.panel_chamber_counts()
        assert min(counts.values()) == 1
        assert not oc.is_thin()
        assert len(oc.chambers()) == 24

    def test_oriflamme_d3_thin_and_correct(self):
        oc, _ = cx.weyl_orbit_complex("D", 3)
        assert oc.is_thin()
        ab, _ = cx.coxeter_complex("D", 3)
        assert cx.is_isomorphic_typed(oc, ab) is not None

    def test_bad_seed_rejected(self):
        with pytest.raises(cx.SeedNotSimplex):
            cx.weyl_orbit_complex("B", 2, [frozenset({1, 5})])  # not isotropic

    @pytest.mark.parametrize("family,n", [("A", 8), ("A", 9), ("B", 6),
                                          ("C", 6), ("D", 6)])
    def test_rank_above_guard_raises_at_once(self, family, n):
        start = time.monotonic()
        with pytest.raises(cx.RankTooLarge):
            cx.weyl_orbit_complex(family, n)
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_largest_rank_below_guard_builds(self, family):
        # m <= 11 coordinates: the concatenated vertex names stay distinct.
        oc, _ = cx.weyl_orbit_complex(family, 5)
        assert len(oc.chambers()) == {"B": 3840, "C": 3840, "D": 1920}[family]


class TestBuildings:
    @pytest.mark.parametrize("n,q,chambers", [(1, 2, 3), (1, 3, 4),
                                              (2, 2, 21), (2, 3, 52)])
    def test_chamber_counts(self, n, q, chambers):
        b = cx.building_type_a(n, q)
        assert len(b.chambers()) == chambers

    @pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_thickness(self, n, q):
        b = cx.building_type_a(n, q)
        counts = b.panel_chamber_counts()
        assert set(counts.values()) == {q + 1}

    @pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (2, 3)])
    def test_coordinate_apartment(self, n, q):
        b = cx.building_type_a(n, q)
        ap = cx.coordinate_apartment(b, n, q)
        an, _ = cx.coxeter_complex("A", n)
        assert cx.is_isomorphic_typed(ap, an) is not None

    @pytest.mark.parametrize("n", [0, -1])
    def test_rank_below_one(self, n):
        # rank 0 used to give one empty facet and rank -1 a KeyError
        with pytest.raises(ValueError, match="the rank must be at least 1"):
            cx.building_type_a(n, 2)


class TestIsomorphismTesting:
    def test_hexagon_vs_square(self):
        hexagon = cx.TypedComplex(
            range(6), {i: i % 2 for i in range(6)},
            [frozenset({i, (i + 1) % 6}) for i in range(6)])
        square = cx.TypedComplex(
            range(4), {i: i % 2 for i in range(4)},
            [frozenset({i, (i + 1) % 4}) for i in range(4)])
        assert cx.is_isomorphic_typed(hexagon, square) is None

    def test_type_mismatch_refuted(self):
        c1 = cx.TypedComplex(["a", "b"], {"a": 0, "b": 0},
                             [frozenset({"a"}), frozenset({"b"})])
        c2 = cx.TypedComplex(["x", "y"], {"x": 0, "y": 1},
                             [frozenset({"x"}), frozenset({"y"})])
        assert cx.is_isomorphic_typed(c1, c2) is None

    def test_facet_lines_format(self):
        c = cx.TypedComplex(["p", "q"], {"p": 0, "q": 1},
                            [frozenset({"p", "q"})])
        assert c.facet_lines() == ["0:p 1:q"]


# ---------------------------------------------------------------------------
# Differential tests against the matrix-based poset and row space test


class ReferencePoset:
    """The n x n boolean matrix poset with an O(n^3) closure, kept as an
    oracle for `FinitePoset`."""

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        self._leq = [[False] * n for _ in range(n)]
        for i in range(n):
            self._leq[i][i] = True
        for a, b in leq_pairs:
            self._leq[self.index[a]][self.index[b]] = True
        for k in range(n):
            for i in range(n):
                if self._leq[i][k]:
                    row_k = self._leq[k]
                    row_i = self._leq[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            for j in range(n):
                if i != j and self._leq[i][j] and self._leq[j][i]:
                    raise ValueError("not antisymmetric")

    def leq(self, a, b):
        return self._leq[self.index[a]][self.index[b]]

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def chains(self):
        order = sorted(self.elements,
                       key=lambda x: sum(self._leq[self.index[y]][self.index[x]]
                                         for y in self.elements))
        out = []

        def extend(chain):
            out.append(tuple(chain))
            last = chain[-1]
            for x in order:
                if self.lt(last, x):
                    chain.append(x)
                    extend(chain)
                    chain.pop()

        for x in order:
            extend([x])
        return out

    def height(self, x):
        return max(len(c) for c in self.chains() if c[-1] == x) - 1

    def sup(self, xs):
        ubs = [u for u in self.elements if all(self.leq(x, u) for x in xs)]
        mins = [u for u in ubs if not any(self.lt(v, u) for v in ubs)]
        return mins[0] if len(mins) == 1 else None

    def restricted(self, keep):
        keep = set(keep)
        pairs = [(a, b) for a in keep for b in keep if self.leq(a, b)]
        return ReferencePoset([x for x in self.elements if x in keep], pairs)

    def maximal(self):
        return [x for x in self.elements
                if not any(self.lt(x, y) for y in self.elements)]

    def minimal(self):
        return [x for x in self.elements
                if not any(self.lt(y, x) for y in self.elements)]


def reference_tilde(ref):
    """The chains of `ref` as facets, typed by `ReferencePoset.height`, read
    off one chain list instead of one per element."""
    chains = ref.chains()
    heights = {}
    for c in chains:
        heights[c[-1]] = max(heights.get(c[-1], 0), len(c) - 1)
    return cx.TypedComplex(ref.elements, heights,
                           [frozenset(c) for c in chains])


def assert_same_poset(po, ref):
    assert po.elements == ref.elements
    for a in ref.elements:
        for b in ref.elements:
            assert po.leq(a, b) == ref.leq(a, b)
            assert po.lt(a, b) == ref.lt(a, b)
    assert po.chains() == ref.chains()
    assert [po.height(x) for x in po.elements] == \
        [ref.height(x) for x in ref.elements]
    assert po.maximal() == ref.maximal()
    assert po.minimal() == ref.minimal()


@st.composite
def label_pairs(draw):
    """Up to 8 labels in a random order and a random pair list, not closed
    under transitivity. Half the lists only point forwards along a hidden
    order, so they are acyclic; the others may close cycles."""
    n = draw(st.integers(1, 8))
    labels = draw(st.permutations("abcdefgh"[:n]))
    index_pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1)),
                                max_size=2 * n))
    if draw(st.booleans()):
        index_pairs = [(i, j) for i, j in index_pairs if i <= j]
    pairs = [(labels[i], labels[j]) for i, j in index_pairs]
    keep = draw(st.lists(st.sampled_from(labels), unique=True))
    return labels, pairs, keep


class TestFinitePosetAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(label_pairs())
    def test_random_pairs(self, case):
        labels, pairs, keep = case
        try:
            ref = ReferencePoset(labels, pairs)
        except ValueError:
            with pytest.raises(ValueError, match="not antisymmetric"):
                cx.FinitePoset(labels, pairs)
            return
        po = cx.FinitePoset(labels, pairs)
        assert_same_poset(po, ref)
        for r in range(4):
            for xs in itertools.combinations(labels, r):
                assert po.sup(xs) == ref.sup(xs)
        assert_same_poset(po.restricted(keep), ref.restricted(keep))

    def test_cycle_raises(self):
        with pytest.raises(ValueError, match="not antisymmetric"):
            cx.FinitePoset("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tilde_complex_of_pn(self, n):
        space = proj(catalog.proj_cone(n))
        got = cx.tilde_complex(cx.poset_of_space(space))
        labels = space.labels()
        ref = ReferencePoset(labels, [
            (labels[i], labels[j]) for i in range(len(labels))
            for j in range(len(labels)) if space.leq(i, j)])
        want = reference_tilde(ref)
        assert got.facets == want.facets
        assert got.types == want.types

    def test_tilde_complex_of_sl2(self, sl2_space):
        got = cx.tilde_complex(cx.specialization_poset(sl2_space))
        labels = sl2_space.labels()
        ref = ReferencePoset(labels, [
            (labels[j], labels[i]) for i in range(len(labels))
            for j in range(len(labels)) if sl2_space.leq(i, j)])
        want = reference_tilde(ref)
        assert got.facets == want.facets
        assert got.types == want.types


def reference_in_rowspace(field, rows, vec):
    """Row space membership by field operations, kept as an oracle for the
    table-based `_subspace_contains`."""
    vec = list(vec)
    for row in rows:
        p = next((i for i, x in enumerate(row) if x), None)
        if p is None:
            continue
        if vec[p]:
            c = field.mul(vec[p], field.inv(row[p]))
            vec = [field.sub(v, field.mul(c, r)) for v, r in zip(vec, row)]
    return not any(vec)


class TestSubspaceContainment:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    def test_against_reference(self, dim, q):
        field = gf(q)
        spaces = [s for r in range(dim + 1) for s in _rref_bases(dim, r, q)]
        for big in spaces:
            for small in spaces:
                assert cx._subspace_contains(field, big, small) == all(
                    reference_in_rowspace(field, big, v) for v in small)


# ---------------------------------------------------------------------------
# Differential tests against the parabolic-coset Coxeter complex


def reference_coxeter_complex(family, n):
    """The Coxeter complex built from one group closure per maximal parabolic
    subgroup W_{S-t} and one coset per chamber and type: kept as an oracle for
    the orbit construction in `coxeter_complex`."""
    elems, gens, comp = cx.coxeter_group(family, n)
    ident = tuple(range(n + 1)) if family == "A" else tuple(range(1, n + 1))
    cosets_by_type = []
    for t in range(len(gens)):
        sub = cx._group_closure([g for i, g in enumerate(gens) if i != t],
                                comp, ident)
        seen = {}
        for w in elems:
            coset = frozenset(comp(w, h) for h in sub)
            seen.setdefault(coset, min(coset))
        cosets_by_type.append(seen)
    vertices = []
    types = {}
    coset_of = []
    for t, seen in enumerate(cosets_by_type):
        lookup = {}
        for coset, first in seen.items():
            vertices.append((t, first))
            types[(t, first)] = t
            for w in coset:
                lookup[w] = (t, first)
        coset_of.append(lookup)
    facets = [frozenset(coset_of[t][w] for t in range(len(gens)))
              for w in elems]
    complex_ = cx.TypedComplex(sorted(vertices), types, facets)

    def vact(g, v):
        t, w = v
        return coset_of[t][comp(g, w)]

    return complex_, vact


FAMILY_RANKS = [(f, n) for f in "ABCD" for n in range(1, 6)
                if not (f == "D" and n < 2)]


def parabolic_indices(family, n):
    """|W| / |W_{S-t}| for each type t, from the group orders alone."""
    if family == "A":
        return {t: math.comb(n + 1, t + 1) for t in range(n)}
    out = {t: 2 ** (t + 1) * math.comb(n, t + 1) for t in range(n)}
    if family == "D":
        out[n - 2] = out[n - 1] = 2 ** (n - 1)
    return out


class TestCoxeterComplexAgainstReference:
    @pytest.mark.parametrize("family,n",
                             [fn for fn in FAMILY_RANKS if fn[1] <= 4]
                             + [("D", 5)])
    def test_same_complex_and_action(self, family, n):
        c, action = cx.coxeter_complex(family, n)
        ref, ref_vact = reference_coxeter_complex(family, n)
        assert c.vertices == ref.vertices
        assert c.types == ref.types
        assert c.facets == ref.facets
        for g in action.elements:
            for v in c.vertices:
                assert action.vertex_action(g, v) == ref_vact(g, v)

    @pytest.mark.parametrize("family,n", FAMILY_RANKS)
    def test_type_histogram_is_the_parabolic_indices(self, family, n):
        c, _ = cx.coxeter_complex(family, n)
        assert c.type_histogram() == parabolic_indices(family, n)

    @pytest.mark.parametrize("family,n", FAMILY_RANKS)
    def test_seed_entry_t_is_fixed_by_w_s_minus_t(self, family, n):
        _, gens, _ = cx.coxeter_group(family, n)
        m = cx._ambient_size(family, n)
        act = cx._coordinate_action(family, n, m)
        for t, point in enumerate(cx.standard_orbit_seed(family, n)):
            for i, g in enumerate(gens):
                fixed = frozenset(act(g, x) for x in point) == point
                assert fixed == (i != t)

    def test_generators(self):
        _, gens, _ = cx.coxeter_group("A", 2)
        assert gens == [(1, 0, 2), (0, 2, 1)]
        _, gens, _ = cx.coxeter_group("B", 2)
        assert gens == [(2, 1), (1, -2)]
        _, gens, _ = cx.coxeter_group("D", 3)
        assert gens == [(2, 1, 3), (1, 3, 2), (1, -3, -2)]

    @pytest.mark.parametrize("family,n", [("A", 0), ("A", -1), ("B", 0),
                                          ("C", 0), ("D", 1), ("D", 0)])
    def test_ranks_naming_no_group_are_rejected(self, family, n):
        with pytest.raises(ValueError):
            cx.coxeter_group(family, n)
        with pytest.raises(ValueError):
            cx.coxeter_complex(family, n)
        with pytest.raises(ValueError):
            cx.weyl_orbit_complex(family, n)


def reference_panel_chamber_counts(complex_):
    """The quadratic loop that tests every panel against every chamber, kept
    as the oracle for the count by vertex removal."""
    chambers = complex_.chambers()
    panels = {}
    for ch in chambers:
        for v in ch:
            panels.setdefault(ch - {v}, 0)
    for panel in panels:
        panels[panel] = sum(1 for ch in chambers if panel <= ch)
    return panels


def non_pure_complex():
    types = {"a": 0, "b": 1, "c": 2, "d": 0, "e": 1, "f": 2}
    return cx.TypedComplex(types, types, [
        frozenset("abc"), frozenset("abf"), frozenset("cd"), frozenset("e")])


class TestPanelChamberCountsAgainstReference:
    @pytest.mark.parametrize("family,n", [
        ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
        ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)])
    def test_coxeter_complexes(self, family, n):
        c, _ = cx.coxeter_complex(family, n)
        got = c.panel_chamber_counts()
        want = reference_panel_chamber_counts(c)
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_buildings(self, n, q):
        b = cx.building_type_a(n, q)
        got = b.panel_chamber_counts()
        assert list(got.items()) == \
            list(reference_panel_chamber_counts(b).items())

    def test_non_thin_orbit_complex(self):
        plain = [frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
        bad, _ = cx.weyl_orbit_complex("D", 3, plain)
        got = bad.panel_chamber_counts()
        assert list(got.items()) == \
            list(reference_panel_chamber_counts(bad).items())
        assert min(got.values()) == 1

    def test_non_pure_complex(self):
        c = non_pure_complex()
        assert not c.is_pure()
        got = c.panel_chamber_counts()
        assert list(got.items()) == \
            list(reference_panel_chamber_counts(c).items())
        assert got[frozenset("ab")] == 2 and len(got) == 5


@pytest.mark.parametrize("space", [
    *(spec(catalog.affine_space(n)) for n in range(6)),
    *(proj(catalog.proj_cone(n)) for n in range(1, 5)),
    spec(catalog.sl2_f1()), spec(catalog.two_fields(2, 3))],
    ids=lambda space: space.blueprint.name)
def test_space_posets_match_leq_pairs(space):
    labels = space.labels()
    leq = [(i, j) for i in range(len(labels))
           for j in range(len(labels)) if space.leq(i, j)]
    for po, pairs in (
            (cx.poset_of_space(space), [(labels[i], labels[j])
                                        for i, j in leq]),
            (cx.specialization_poset(space), [(labels[j], labels[i])
                                              for i, j in leq])):
        ref = cx.FinitePoset(labels, pairs)
        assert po.elements == ref.elements
        assert po._up == ref._up
