"""Congruences, prime congruences, congruence spectra, absorbing ideals."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog, congruence as cg
from blueforge.budget import Budget
from blueforge.core import (PROVED, REFUTED, UNKNOWN, ZERO, Blueprint,
                            BlueprintMorphism, boolean_semiring_blueprint,
                            field_blueprint, enumerate_morphisms,
                            is_blue_field, is_prime_ideal, derive, _collapse,
                            _idempotent_power, _improper_pair,
                            _improper_search, _scale, _scaled_pairs,
                            _symbol_key)
from blueforge.spectra import spec
from test_completion import sympy_basis, sympy_improper_pair


def _set_partitions(items):
    """Every partition of `items`, as lists of blocks: the reference that
    `cspec`'s candidates are checked against."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


class TestIsCongruence:
    def test_identity_on_f1(self, f1):
        assert cg.is_congruence(f1, [["0"], ["1"]]) == PROVED

    def test_total_on_b1(self, b1):
        assert cg.is_congruence(b1, [["0", "1"]]) == PROVED

    def test_sign_collapse_on_f1_squared(self, f12):
        assert cg.is_congruence(f12, [["0"], ["1", "-1"]]) == PROVED

    def test_zero_one_merge_refuted_on_f1_squared(self, f12):
        assert cg.is_congruence(f12, [["0", "1"], ["-1"]]) == REFUTED

    def test_chain_axiom_refutes(self, f12):
        # merging 1 with 0 propagates to -1 through multiplicativity
        assert cg.is_congruence(f12, [["0", "1", "-1"]]) == PROVED
        # but a partition violating closure under the pre-addition fails:
        # identify nothing on F2-as-blueprint except 1~0 and closure forces all
        r = catalog.product_ring(2, 3)
        # 1 = (1,0) + (0,1) ~ 0 + 0 = 0, yet 1 and 0 lie in different blocks
        assert cg.is_congruence(
            r, [["0", "(0,1)", "(0,2)", "(1,0)"], ["(1,2)"], ["1"]]) == REFUTED

    @pytest.mark.parametrize("partition", [
        [["0", "1"], ["1"]], [["0"], ["1"], ["1"]], [["0", "1"], []],
        [["0"]], [["0"], ["1", "x"]]], ids=str)
    def test_not_a_partition(self, f1, partition):
        # a repeated symbol used to be overwritten in the block index, and
        # an empty block ignored, so these read as Proved
        with pytest.raises(cg.NotACongruence):
            cg.is_congruence(f1, partition)


class TestPrimeCongruence:
    def test_b1_identity_prime(self, b1):
        c = cg.Congruence(b1, [["0"], ["1"]])
        assert cg.is_prime_congruence(b1, c)

    def test_f1_squared_identity_prime(self, f12):
        c = cg.Congruence(f12, [["0"], ["1"], ["-1"]])
        assert cg.is_prime_congruence(f12, c)

    def test_total_not_proper(self, f1):
        c = cg.Congruence(f1, [["0", "1"]])
        assert not cg.is_prime_congruence(f1, c)

    def test_idempotent_identity_not_prime(self, idem):
        c = cg.Congruence(idem, [["0"], ["1"], ["e"]])
        assert not cg.is_prime_congruence(idem, c)


class TestCSpec:
    def test_f1_single_point(self, f1):
        assert len(cg.cspec(f1)) == 1

    def test_f1_squared_two_points(self, f12):
        C = cg.cspec(f12)
        parts = {c.partition for c in C.points}
        assert cg.canonical_partition([["0"], ["1", "-1"]]) in parts
        assert cg.canonical_partition([["0"], ["1"], ["-1"]]) in parts
        assert len(C) == 2

    def test_idempotent_exhaustive(self, idem):
        C = cg.cspec(idem)
        assert len(C) == 2
        _, X, mapping = cg.cspec_to_spec(idem)
        assert set(mapping.values()) == set(range(len(X)))

    def test_basis_properties(self, f12):
        C = cg.cspec(f12)
        syms = f12.backend.symbols
        for f in syms:
            assert C.basis_open(f, f) == frozenset()
            for g in syms:
                assert C.basis_open(f, g) == C.basis_open(g, f)


class TestProductRing:
    """F2 x F3 as a semiring table: its prime congruences are the kernels of
    the two projections, onto F2 and onto F3."""

    def test_two_points_are_the_projection_kernels(self):
        C = cg.cspec(catalog.product_ring(2, 3))
        assert C.complete
        onto_f2 = [["0", "(0,1)", "(0,2)"], ["1", "(1,0)", "(1,2)"]]
        onto_f3 = [["0", "(1,0)"], ["1", "(0,1)"], ["(0,2)", "(1,2)"]]
        assert [c.partition for c in C.points] == sorted(
            cg.canonical_partition(k) for k in (onto_f2, onto_f3))

    def test_cspec_to_spec_hits_both_primes(self):
        C, X, mapping = cg.cspec_to_spec(catalog.product_ring(2, 3))
        assert len(C) == len(X) == 2
        assert set(mapping.values()) == {0, 1}

    def test_complete_at_any_budget(self):
        r = catalog.product_ring(2, 3)
        narrow = cg.cspec(r, Budget(6, 3, 5))
        assert narrow.complete
        assert [c.partition for c in narrow.points] == \
            [c.partition for c in cg.cspec(r).points]

    def test_quotients_are_the_two_fields(self):
        # the quotients used to lose the addition, so that 1 + 1 = 0 was
        # Unknown in F2
        r = catalog.product_ring(2, 3)
        onto_f2, onto_f3 = cg.cspec(r).points
        q2 = cg.quotient_by_congruence(r, onto_f2)
        q3 = cg.quotient_by_congruence(r, onto_f3)
        assert q2.is_semiring and q3.is_semiring
        assert len(q2.backend.symbols) == 2 and len(q3.backend.symbols) == 3
        assert derive(q2, ["1", "1"], []) == PROVED
        assert derive(q3, ["1", "1", "1"], []) == PROVED
        for c in (onto_f2, onto_f3):
            assert cg.residue_field_of_congruence(r, c).is_semiring

    def test_quotient_by_a_non_congruence_refuses(self):
        # the sign collapse on the F3 factor is multiplicative, but
        # 1 ~ (1,2) while 1 + (0,1) = (1,2) and (1,2) + (0,1) = (1,0)
        r = catalog.product_ring(2, 3)
        c = cg.Congruence(r, [["0"], ["1", "(1,2)"], ["(1,0)"],
                              ["(0,1)", "(0,2)"]])
        assert cg.is_congruence(r, c.partition) == REFUTED
        with pytest.raises(cg.BlueprintError, match="pushed addition"):
            cg.quotient_by_congruence(r, c)


def sums_as_relations(bp):
    """A semiring table with its sums a + b = c of nonzero a, b as
    relations, which the rewrite kernel reads; other blueprints as they
    are."""
    backend = bp.backend
    if backend.add_table is None:
        return bp
    nonzero = [s for s in backend.symbols if s != ZERO]
    sums = [([a, b], [backend.add_table[(a, b)]])
            for i, a in enumerate(nonzero) for b in nonzero[i:]]
    return Blueprint(backend, [*bp.relations, *sums], budget=bp.budget,
                     check_proper=False)


def reference_semiring_verdict(bp, partition, budget):
    """The chain axiom with the sums as relations: the quotient of
    `sums_as_relations(bp)` by a multiplicative partition, as a bare monoid
    table, and the properness search on it."""
    cong = cg.Congruence(bp, partition)
    carrier = bp.backend.symbols
    mul = bp.backend.mul
    for a in carrier:
        for b in carrier:
            if cong.related(a, b) and any(
                    not cong.related(mul(a, c), mul(b, c)) for c in carrier):
                return REFUTED
    rep = {x: min(block, key=_symbol_key)
           for block in cong.partition for x in block}
    quotient = _collapse(sums_as_relations(bp), rep, "B/~", budget)
    nonzero = [s for s in quotient.backend.symbols if s != ZERO]
    pair, cut = _improper_search(quotient, nonzero, budget)
    if pair is not None:
        return REFUTED
    return UNKNOWN if cut else PROVED


SEMIRING_TABLES = [catalog.product_ring(2, 2), catalog.product_ring(2, 3),
                   field_blueprint(4), field_blueprint(5),
                   boolean_semiring_blueprint()]


class TestSemiringAgainstSumsAsRelations:
    """On a semiring table the pushed addition decides the chain axiom;
    the verdicts equal those of the search with the sums as relations."""

    @pytest.mark.parametrize("bp", SEMIRING_TABLES,
                             ids=lambda bp: bp.name or "B")
    def test_every_partition(self, bp):
        budget = Budget(6, 3, 100000)
        for blocks in _set_partitions(sorted(bp.backend.symbols)):
            want = reference_semiring_verdict(bp, blocks, budget)
            assert want != UNKNOWN
            assert cg.is_congruence(bp, blocks, budget) == want, blocks
        assert_cspec_matches_partitions(bp, budget)


def reference_sums(carrier, max_terms, cap=6):
    """All formal sums (sorted tuples) of at most `max_terms` terms over
    `carrier`, each term at most `cap` times."""
    out = [()]
    frontier = [()]
    for _ in range(max_terms):
        new = []
        for u in frontier:
            for s in carrier:
                if u and s < u[-1] or u.count(s) >= cap:
                    continue
                new.append(u + (s,))
        out.extend(new)
        frontier = new
    return out


def reference_is_congruence(blueprint, partition, budget=None):
    """The per-partition chain-axiom saturation over bounded formal sums,
    kept as a differential oracle. It never reads a semiring addition table,
    so product_ring is left out of the comparisons."""
    carrier = blueprint.backend.symbols
    budget = budget or blueprint.budget
    cong = cg.Congruence(blueprint, partition)
    backend = blueprint.backend
    for a in carrier:
        for b in carrier:
            if not cong.related(a, b):
                continue
            for c in carrier:
                for d in carrier:
                    if cong.related(c, d) and not cong.related(
                            backend.mul(a, c), backend.mul(b, d)):
                        return REFUTED
    max_terms = min(budget.max_terms, 8)
    sums = reference_sums([s for s in carrier if s != ZERO], max_terms)
    index = {u: i for i, u in enumerate(sums)}
    parent = list(range(len(sums)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    def norm(terms):
        return tuple(sorted(t for t in terms if t != ZERO))

    truncated = False
    steps = 0
    for u in sums:
        cu = Counter(u)
        for k, t in enumerate(u):
            for t2 in cong.block(t):
                if t2 == t:
                    continue
                v = norm(u[:k] + (t2,) + u[k + 1:])
                if v in index:
                    union(index[u], index[v])
        for L, R in blueprint.oriented_relations():
            for m in backend.multipliers(0):
                steps += 1
                if steps > budget.max_steps:
                    truncated = True
                    break
                mL = Counter(x for x in _scale(blueprint, m, L) if x != ZERO)
                if not all(cu[t] >= k for t, k in mL.items()):
                    continue
                rest = cu - mL
                for x in _scale(blueprint, m, R):
                    if x != ZERO:
                        rest[x] += 1
                v = norm(tuple(rest.elements()))
                if v in index:
                    union(index[u], index[v])
            if truncated:
                break
        if truncated:
            break
    for a in carrier:
        for b in carrier:
            if a < b and not cong.related(a, b):
                ia = index.get(norm((a,)) if a != ZERO else ())
                ib = index.get(norm((b,)) if b != ZERO else ())
                if ia is not None and ib is not None and find(ia) == find(ib):
                    return REFUTED
    return UNKNOWN if truncated else PROVED


def assert_cspec_matches_partitions(bp, budget):
    """cspec's points follow the verdicts of `is_congruence` on every
    partition of the carrier: the points are the Proved prime ones. Every
    verdict is Proved or Refuted, and cspec is complete. Returns the
    partitions and their verdicts."""
    partitions = list(_set_partitions(sorted(bp.backend.symbols)))
    congs = [cg.Congruence(bp, blocks) for blocks in partitions]
    got = [cg.is_congruence(bp, blocks, budget) for blocks in partitions]
    C = cg.cspec(bp, budget)
    assert [c.partition for c in C.points] == sorted(
        c.partition for c, verdict in zip(congs, got)
        if verdict == PROVED and cg.is_prime_congruence(bp, c))
    assert set(got) <= {PROVED, REFUTED} and C.complete
    return partitions, got


def sympy_verdict(bp, partition):
    """Proved / Refuted by an oracle apart from the library, for a table
    without addition: multiplicativity by brute force, and the chain axiom
    by sympy's membership test on the binomial ideal of B/~. Its variables
    are the classes other than that of 0, and each relation L = R scaled by
    each nonzero symbol m gives x^[mL] - x^[mR], the class of 0 dropped; B/~
    is proper iff no x_a - 1 and no x_a - x_b, a ≠ b, lies in the ideal."""
    assert bp.backend.add_table is None
    cong = cg.Congruence(bp, partition)
    carrier = bp.backend.symbols
    mul = bp.backend.mul
    if any(cong.related(a, b) and not cong.related(mul(a, c), mul(b, c))
           for a in carrier for b in carrier for c in carrier):
        return REFUTED
    zero = cong.block(ZERO)
    classes = [block for block in cong.partition if block != zero]
    if not classes:
        return PROVED

    def side(m, terms):
        return [cong.block(x) for x in (mul(m, t) for t in terms)
                if not cong.related(x, ZERO)]

    G, mono = sympy_basis(classes, [(side(m, L), side(m, R))
                                    for L, R in bp.relations
                                    for m in carrier if m != ZERO])
    return PROVED if sympy_improper_pair(G, mono, classes, ZERO) is None \
        else REFUTED


def assert_matches_reference(bp, budget):
    """cspec against the partition loop (`assert_cspec_matches_partitions`).
    Each verdict is the sympy oracle's (`sympy_verdict`). The bounded
    reference is sound one way only: a sum past its term bound can hide a
    derivation, so it may say Proved where the verdict is Refuted, but each
    partition it refutes is refuted."""
    partitions, got = assert_cspec_matches_partitions(bp, budget)
    for blocks, verdict in zip(partitions, got):
        assert verdict == sympy_verdict(bp, blocks), blocks
        if reference_is_congruence(bp, blocks, budget) == REFUTED:
            assert verdict == REFUTED, blocks


DIFFERENTIAL_BLUEPRINTS = (
    [catalog.f1()] + [catalog.f1n(k) for k in range(2, 7)]
    + [catalog.b1(), catalog.idempotent_example(),
       catalog.roots_of_unity_sums(4), catalog.roots_of_unity_sums(6),
       catalog.two_fields(2, 3)])


BUDGETS = [Budget(6, 3, 100000), Budget(6, 4, 100000), Budget(6, 3, 300),
           Budget(6, 8, 2000)]


class TestChainClosureDifferential:
    """The chain-axiom closure of each partition against the reference."""

    # the 8-term budget only on carriers of at most 5 symbols: the reference
    # takes seconds per partition set beyond that
    @pytest.mark.parametrize("bp,budget", [
        (bp, budget) for bp in DIFFERENTIAL_BLUEPRINTS for budget in BUDGETS
        if budget.max_terms < 8 or len(bp.backend.symbols) <= 5],
        ids=lambda x: x.name if isinstance(x, Blueprint) else str(x))
    def test_catalog(self, bp, budget):
        assert_matches_reference(bp, budget)

    @given(k=st.integers(1, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_relations(self, k, data):
        table = catalog.f1n(k).backend
        side = st.lists(st.sampled_from(table.symbols), max_size=3)
        relations = data.draw(st.lists(st.tuples(side, side),
                                       min_size=1, max_size=3))
        bp = Blueprint(table, relations, check_proper=False)
        for budget in (Budget(6, 3, 100000), Budget(6, 3, 40)):
            assert_matches_reference(bp, budget)

    def test_three_terms_miss_a_refutation(self):
        # 0 = 1 + 1 + (-1) and, scaled by -1, 0 = (-1) + (-1) + 1, so
        # 1 = 1 + ((-1) + (-1) + 1) = (1 + 1 + (-1)) + (-1) = -1 through a
        # four-term sum: the reference at three terms does not see it
        bp = Blueprint(catalog.f1n(2).backend, [([], ["1", "1", "-1"])],
                       check_proper=False)
        identity = [["0"], ["1"], ["-1"]]
        assert reference_is_congruence(bp, identity,
                                       Budget(6, 3, 100000)) == PROVED
        assert reference_is_congruence(bp, identity,
                                       Budget(6, 8, 100000)) == REFUTED
        assert cg.is_congruence(bp, identity) == REFUTED
        assert sympy_verdict(bp, identity) == REFUTED


def reference_saturate(blueprint, budget):
    """The bounded-sum closure of `blueprint`: its relations and, on a
    semiring table, its sums a + b = c, each scaled by every multiplier and
    tested against every sum by a `Counter` containment test. Returns the
    class of each nonzero singleton and of the empty sum (key ZERO), and
    whether the step bound cut the closure."""
    backend = blueprint.backend
    carrier = backend.symbols
    nonzero = [s for s in carrier if s != ZERO]
    sums = reference_sums(nonzero, min(budget.max_terms, 8))
    index = {u: i for i, u in enumerate(sums)}
    mults = backend.multipliers(0)

    def scaled(m, terms):
        return tuple(sorted(_scale(blueprint, m, terms)))

    pairs = [(scaled(m, L), scaled(m, R))
             for L, R in blueprint.oriented_relations() for m in mults]
    if backend.add_table is not None:
        seen = set()
        for i, a in enumerate(nonzero):
            for b in nonzero[i:]:
                right = [backend.add_table[(a, b)]]
                for L, R in (([a, b], right), (right, [a, b])):
                    for m in mults:
                        pair = (scaled(m, L), scaled(m, R))
                        if pair[0] != pair[1] and pair not in seen:
                            seen.add(pair)
                            pairs.append(pair)
    pairs = [(Counter(mL), mR) for mL, mR in pairs]
    reached, last = len(sums), len(pairs)
    if pairs and len(sums) * len(pairs) > budget.max_steps:
        cut, last = divmod(budget.max_steps, len(pairs))
        reached = cut + 1
    truncated = reached < len(sums) or last < len(pairs)
    parent = list(range(len(sums)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(reached):
        cu = Counter(sums[i])
        for mL, mR in pairs[:last] if i == reached - 1 else pairs:
            if any(cu[t] < k for t, k in mL.items()):
                continue
            rest = cu - mL
            rest.update(mR)
            j = index.get(tuple(sorted(rest.elements())))
            if j is not None:
                parent[find(i)] = find(j)
    singleton = {a: find(index[(a,)]) for a in nonzero}
    singleton[ZERO] = find(index[()])
    return singleton, truncated


def assert_search_matches_saturation(bp, budget):
    """The properness search on B itself (with the sums of a semiring table
    as relations), against the bounded-sum closure. A pair the search
    reports is identified by the closure at the same degree and term bounds
    with 10**6 steps; where neither is cut, the search finds a pair exactly
    when the closure identifies two singletons or a singleton with the
    empty sum."""
    chain = sums_as_relations(bp)
    nonzero = [s for s in bp.backend.symbols if s != ZERO]
    pair, cut = _improper_search(chain, nonzero, budget)
    if pair is not None:
        wide = Budget(budget.max_degree, budget.max_terms, 10 ** 6)
        singleton, _ = reference_saturate(bp, wide)
        assert singleton[pair[0]] == singleton[pair[1]], pair
    singleton, truncated = reference_saturate(bp, budget)
    if not (cut or truncated):
        improper = len(set(singleton.values())) < len(singleton)
        assert (pair is not None) == improper, pair


SATURATE_BLUEPRINTS = (
    [catalog.f1()] + [catalog.f1n(k) for k in range(2, 7)]
    + [catalog.b1(), catalog.idempotent_example(),
       catalog.roots_of_unity_sums(4), catalog.roots_of_unity_sums(6),
       catalog.two_fields(2, 3), catalog.product_ring(2, 3)])


class TestSaturateAgainstReference:
    """The properness search against the bounded-sum closure; the last two
    budgets run out."""

    @pytest.mark.parametrize("budget", [
        Budget(6, 3, 100000), Budget(6, 8, 100000), Budget(6, 3, 500),
        Budget(6, 2, 37)], ids=str)
    @pytest.mark.parametrize("bp", SATURATE_BLUEPRINTS,
                             ids=lambda bp: bp.name)
    def test_catalog(self, bp, budget):
        assert_search_matches_saturation(bp, budget)

    @pytest.mark.parametrize("budget", [Budget(6, 3, 500), Budget(6, 2, 37)],
                             ids=str)
    def test_cut_sum_is_reached(self, budget):
        # the budget runs out inside the sums of the closure; the verdicts
        # still contradict the reference nowhere
        bp = catalog.two_fields(2, 3)
        assert reference_saturate(bp, budget)[1]
        assert_search_matches_saturation(bp, budget)
        assert_matches_reference(bp, budget)

    @given(k=st.integers(1, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_relations(self, k, data):
        table = catalog.f1n(k).backend
        side = st.lists(st.sampled_from(table.symbols), max_size=3)
        relations = data.draw(st.lists(st.tuples(side, side),
                                       min_size=1, max_size=3))
        bp = Blueprint(table, relations, check_proper=False)
        for budget in (Budget(6, 3, 100000), Budget(6, 4, 100000),
                       Budget(6, 3, 40)):
            assert_search_matches_saturation(bp, budget)


class TestCandidates:
    """`cspec` checks one candidate per prime p of `spec(B)` and subgroup H
    of the group completion M·e of M = B∖p."""

    @pytest.mark.parametrize("bp", SATURATE_BLUEPRINTS,
                             ids=lambda bp: bp.name)
    def test_group_completion(self, bp):
        # a·c = b·c for some c in M iff a·e = b·e, and M·e is a group with
        # identity e, checked by brute force
        mul = bp.backend.mul
        for point in spec(bp).points:
            rest = [a for a in bp.backend.symbols
                    if a not in point.ideal.minimal]
            e = _idempotent_power(bp.backend, rest)
            group = {mul(a, e) for a in rest}
            assert e in group
            for x in group:
                assert mul(e, x) == x
                assert {mul(x, y) for y in group} == group
            for a in rest:
                for b in rest:
                    cancels = any(mul(a, c) == mul(b, c) for c in rest)
                    assert cancels == (mul(a, e) == mul(b, e)), (a, b)

    @pytest.mark.parametrize("bp", SATURATE_BLUEPRINTS,
                             ids=lambda bp: bp.name)
    def test_candidates_are_multiplicative(self, bp):
        # `_cspec` skips the multiplicativity check on every candidate:
        # checked here by brute force, and the verdict that skips it against
        # the full one
        syms, mul = bp.backend.symbols, bp.backend.mul
        candidates = list(cg._candidates(bp, spec(bp)))
        assert candidates
        for cong in candidates:
            for block in cong.partition:
                for a in block:
                    for b in block:
                        assert all(cong.related(mul(a, c), mul(b, c))
                                   for c in syms), (cong, a, b)
            assert cg._verdict(bp, cong, multiplicative=True) == \
                cg._verdict(bp, cong)

    @pytest.mark.parametrize("bp", SATURATE_BLUEPRINTS,
                             ids=lambda bp: bp.name)
    def test_points_are_prime(self, bp):
        for budget in (None, Budget(6, 3, 100000), Budget(6, 3, 5)):
            for c in cg.cspec(bp, budget).points:
                fresh = cg.Congruence(bp, c.partition)
                assert cg.is_prime_congruence(bp, fresh), c

    @staticmethod
    def checked(monkeypatch, bp, budget=None):
        """The partitions whose verdict `cspec(bp, budget)` asks for."""
        calls = []
        verdict = cg._verdict

        def counted(blueprint, cong, **kwargs):
            calls.append(cong.partition)
            return verdict(blueprint, cong, **kwargs)

        monkeypatch.setattr(cg, "_verdict", counted)
        return cg.cspec(bp, budget), calls

    def test_two_fields_checks_five_candidates(self, monkeypatch):
        # of the Bell(6) = 203 partitions of the carrier, 14 are
        # multiplicative
        C, calls = self.checked(monkeypatch, catalog.two_fields(2, 3),
                                Budget(6, 3, 100000))
        assert C.complete and len(calls) == 5 == len(set(calls))
        assert len(C) == 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_f1n_checks_one_candidate_per_divisor(self, monkeypatch, n):
        # spec(f1n(n)) is the zero ideal, and mu_n has one subgroup per
        # divisor of n
        _, calls = self.checked(monkeypatch, catalog.f1n(n))
        assert len(calls) == sum(n % d == 0 for d in range(1, n + 1))


class TestLiftedCarrierCap:
    """The chain axiom is decided by the completion of B/~, so cspec reads
    no budget and runs on carriers of more than seven symbols."""

    def test_term_bound_is_not_exhaustion(self):
        # collapsing all units of f1n(6) gives 1 + 1 = 0 and 1 + 1 + 1 = 0,
        # so 1 = 1 + 1 + 1 = 0 with a three-term sum; a search bounded to
        # two terms did not see it, yet read as exhausted
        bp = catalog.f1n(6)
        C = cg.cspec(bp, Budget(6, 2, 100000))
        assert C.complete
        assert "0/1z1z2z3z4z5" not in [repr(c) for c in C.points]
        assert [c.partition for c in C.points] == \
            [c.partition for c in cg.cspec(bp).points]

    @pytest.mark.parametrize("bp,count", [
        (catalog.f1n(6), 3), (catalog.roots_of_unity_sums(6), 4),
        (catalog.f1n(8), 4), (catalog.f1n(10), 3), (catalog.f1n(12), 4),
        (catalog.roots_of_unity_sums(8), 4),
        (catalog.roots_of_unity_sums(10), 4),
        (catalog.roots_of_unity_sums(12), 6),
        (catalog.two_fields(3, 5), 10)],
        ids=lambda x: x.name if isinstance(x, Blueprint) else str(x))
    def test_points_at_every_budget(self, bp, count):
        C = cg.cspec(bp)
        assert C.complete and len(C) == count
        for budget in (Budget(6, 3, 100000), Budget(6, 2, 100000)):
            other = cg.cspec(bp, budget)
            assert other.complete
            assert [c.partition for c in other.points] == \
                [c.partition for c in C.points]
        for cong in cg._candidates(bp, spec(bp)):
            assert cg._verdict(bp, cong) == \
                sympy_verdict(bp, cong.partition), cong


class TestAbsorbingIdeals:
    def test_identity_gives_zero_ideal(self, f12):
        c = cg.Congruence(f12, [["0"], ["1"], ["-1"]])
        assert cg.absorbing_ideal(c).minimal == ("0",)

    def test_sign_collapse_gives_zero_ideal(self, f12):
        c = cg.Congruence(f12, [["0"], ["1", "-1"]])
        assert cg.absorbing_ideal(c).minimal == ("0",)

    def test_idempotent_collapse(self, idem):
        c = cg.Congruence(idem, [["0", "e"], ["1"]])
        assert set(cg.absorbing_ideal(c).minimal) == {"0", "e"}

    def test_prime_congruence_absorbing_ideals_are_prime(self):
        for bp in (catalog.f1(), catalog.f1_squared(), catalog.b1(),
                   catalog.idempotent_example(), catalog.f1n(3)):
            for c in cg.cspec(bp).points:
                ideal = cg.absorbing_ideal(c)
                if ideal.is_proper():
                    assert is_prime_ideal(bp, ideal) is True

    def test_surjectivity_on_catalog(self):
        for bp in (catalog.f1(), catalog.f1_squared(), catalog.b1(),
                   catalog.idempotent_example(), catalog.f1n(3),
                   catalog.two_fields(2, 3)):
            _, X, mapping = cg.cspec_to_spec(bp)
            assert set(mapping.values()) == set(range(len(X))), bp.name


class TestKernels:
    def test_kernel_is_congruence(self, idem):
        for q in (2, 3):
            for f in enumerate_morphisms(idem, field_blueprint(q)):
                c = cg.kernel_congruence(f)
                assert cg.is_congruence(idem, c.partition) == PROVED

    def test_quotient_realizes_kernel(self, f12):
        c = cg.Congruence(f12, [["0"], ["1", "-1"]])
        q = cg.quotient_by_congruence(f12, c)
        proj = BlueprintMorphism(f12, q, {s: q.projection[s]
                                          for s in f12.backend.symbols})
        back = cg.kernel_congruence(proj)
        assert back.partition == c.partition


class TestResidueFields:
    def test_f1_identity(self, f1):
        c = cg.Congruence(f1, [["0"], ["1"]])
        rf = cg.residue_field_of_congruence(f1, c)
        assert is_blue_field(rf)
        assert len(rf.carrier()) == 2

    def test_f1_squared_sign_collapse(self, f12):
        c = cg.Congruence(f12, [["0"], ["1", "-1"]])
        rf = cg.residue_field_of_congruence(f12, c)
        assert len(rf.carrier()) == 2
        assert derive(rf, ["1", "1"], []) == PROVED

    def test_idempotent_collapse_gives_f1(self, idem):
        c = cg.Congruence(idem, [["0", "e"], ["1"]])
        rf = cg.residue_field_of_congruence(idem, c)
        assert is_blue_field(rf)
        assert len(rf.carrier()) == 2
        assert rf.relations == ()


# ---------------------------------------------------------------------------
# The verdict on the pushed pairs against the verdict that built B/~


def reference_verdict(blueprint, cong, multiplicative=False):
    """`cg._verdict` as it was: the same multiplicativity and additivity
    checks, whatever `multiplicative` says, then B/~ built as a `Blueprint`
    on a checked `FiniteTable` (`quotient_by_congruence`), and the chain
    axiom read off its relations scaled by its nonzero symbols."""
    backend = blueprint.backend
    carrier = backend.symbols
    block_id = {x: i for i, block in enumerate(cong.partition)
                for x in block}
    tables = [t for t in (backend.mul_table, backend.add_table)
              if t is not None]
    for a in carrier:
        for b in carrier:
            if a < b and block_id[a] == block_id[b]:
                for c in carrier:
                    for t in tables:
                        if block_id[t[(a, c)]] != block_id[t[(b, c)]]:
                            return REFUTED
    quotient = cg.quotient_by_congruence(blueprint, cong)
    nonzero = [s for s in quotient.backend.symbols if s != ZERO]
    pairs = _scaled_pairs(quotient.relations, nonzero, quotient.backend.mul,
                          ZERO)
    return PROVED if _improper_pair(nonzero, pairs, ZERO) is None \
        else REFUTED


# (blueprint, the number of its partitions that respect the operations and
# that the chain axiom refutes); the last two give the chain axiom work
VERDICT_BLUEPRINTS = [
    (catalog.f1n(2), 0), (catalog.f1n(3), 0), (catalog.f1n(4), 0),
    (catalog.b1(), 0), (catalog.idempotent_example(), 0),
    (catalog.roots_of_unity_sums(4), 0), (catalog.product_ring(2, 3), 0),
    (catalog.two_fields(2, 3), 5), (catalog.f1n(6), 1)]


FINITE_CATALOG = {
    "f1": catalog.f1, "b1": catalog.b1, "f1_squared": catalog.f1_squared,
    "idempotent": catalog.idempotent_example,
    **{f"f1n{n}": (lambda n=n: catalog.f1n(n)) for n in range(1, 9)},
    **{f"roots_sums{n}": (lambda n=n: catalog.roots_of_unity_sums(n))
       for n in range(1, 9)},
    **{f"two_fields{a}{b}": (lambda a=a, b=b: catalog.two_fields(a, b))
       for a, b in ((2, 2), (2, 3), (3, 5))},
    **{f"product_ring{a}{b}": (lambda a=a, b=b: catalog.product_ring(a, b))
       for a, b in ((2, 2), (2, 3), (3, 3))},
}


class TestVerdictAgainstQuotient:
    @pytest.mark.parametrize("bp, chain_refuted", VERDICT_BLUEPRINTS,
                             ids=[bp.name for bp, _ in VERDICT_BLUEPRINTS])
    def test_every_partition(self, bp, chain_refuted):
        backend = bp.backend
        tables = [t for t in (backend.mul_table, backend.add_table)
                  if t is not None]
        verdicts = Counter()
        for blocks in _set_partitions(sorted(backend.symbols)):
            cong = cg.Congruence(bp, blocks)
            verdict = cg._verdict(bp, cong)
            assert verdict == reference_verdict(bp, cong), blocks
            respects = all(cong.related(t[(a, c)], t[(b, c)])
                           for t in tables for block in cong.partition
                           for a in block for b in block
                           for c in backend.symbols)
            verdicts[verdict, respects] += 1
        assert verdicts[REFUTED, True] == chain_refuted
        assert verdicts[PROVED, True] and not verdicts[PROVED, False]

    @pytest.mark.parametrize("name", sorted(FINITE_CATALOG))
    def test_cspec(self, name, monkeypatch):
        bp = FINITE_CATALOG[name]()
        got = cg.cspec(bp)
        got_c, got_x, got_map = cg.cspec_to_spec(bp)
        monkeypatch.setattr(cg, "_verdict", reference_verdict)
        want = cg.cspec(bp)
        want_c, want_x, want_map = cg.cspec_to_spec(bp)
        assert [c.partition for c in got.points] == \
            [c.partition for c in want.points]
        assert got.complete and want.complete
        assert [c.partition for c in got_c.points] == \
            [c.partition for c in want_c.points]
        assert [p.ideal.minimal for p in got_x.points] == \
            [p.ideal.minimal for p in want_x.points]
        assert got_map == want_map
