"""Blue modules, normal morphisms, projectivity, and K0."""

import functools
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from blueforge import catalog, core, derivation
from blueforge import congruence as cg
from blueforge import kzero as kz
from blueforge.budget import Budget
from blueforge.cli import main
from blueforge.core import ONE, ZERO, Blueprint, FiniteTable, TooLarge
from blueforge.kzero import BASE
from blueforge.snf import smith_normal_form
from test_completion import (assert_rules_as_sympy, sympy_basis,
                             sympy_improper_pair)


@pytest.fixture(scope="module")
def f13():
    return catalog.f1n(3)


def enumerate_morphisms(src, tgt):
    """All module morphisms src -> tgt by backtracking on the carrier."""
    order = list(src.nonbase())
    syms = src.blueprint.backend.symbols
    out = []

    def consistent(mapping):
        for b in syms:
            for prev, pv in mapping.items():
                img = src.act(b, prev)
                if img in mapping and mapping[img] != tgt.act(b, pv):
                    return False
        return True

    def backtrack(i, mapping):
        if i == len(order):
            f = kz.ModuleMorphism(src, tgt, dict(mapping))
            if all(kz.module_derive(tgt, f.apply_sum(l), f.apply_sum(r))
                   for l, r in src.relations):
                out.append(f)
            return
        m = order[i]
        for v in tgt.carrier:
            mapping[m] = v
            if consistent(mapping):
                backtrack(i + 1, mapping)
            del mapping[m]

    backtrack(0, {BASE: BASE})
    return out


def lifts_along_normal_epis(p, universe_pairs):
    """Relative lifting condition: for each normal epi g: M -> N and each
    morphism h: P -> N there is a lift P -> M. A sound necessary condition
    for projectivity (strictly weaker than being a wedge of B·e: no normal
    epi can witness against a fixed-point module over a blue field)."""
    for g in universe_pairs:
        for h in enumerate_morphisms(p, g.target):
            lifted = False
            for cand in enumerate_morphisms(p, g.source):
                if all(g.apply(cand.apply(m)) == h.apply(m)
                       for m in p.carrier):
                    lifted = True
                    break
            if not lifted:
                return False
    return True


def be_module(idem):
    return kz.BlueModule(idem, ("x",), {("e", "x"): "x"}, name="Be")


def b_over_be(idem):
    return kz.BlueModule(idem, ("y",), {("e", "y"): BASE}, name="B/Be")


class TestFreeModules:
    def test_zero_module(self, f1):
        z = kz.zero_module(f1)
        assert z.carrier == (BASE,)

    def test_rank_one_over_f1(self, f1):
        m = kz.free_module(f1, 1)
        assert len(m) == 2

    def test_rank_two_over_f1_squared(self, f12):
        m = kz.free_module(f12, 2)
        assert len(m) == 5

    def test_induced_relations_present(self, f13):
        m = kz.free_module(f13, 1)
        assert any(len(l) + len(r) == 3 for l, r in m.relations)


class TestWedge:
    def test_wedge_sizes(self, f1):
        a = kz.free_module(f1, 2)
        b = kz.free_module(f1, 3)
        w, i1, i2 = kz.wedge(a, b)
        assert len(w) == 6
        assert kz.is_module_morphism(i1) and kz.is_module_morphism(i2)

    def test_coproduct_universal_property(self, idem):
        a = be_module(idem)
        b = kz.free_module(idem, 1)
        w, i1, i2 = kz.wedge(a, b)
        targets = [kz.free_module(idem, 1), be_module(idem), b_over_be(idem)]
        for t in targets:
            for fa in enumerate_morphisms(a, t):
                for fb in enumerate_morphisms(b, t):
                    matches = []
                    for h in enumerate_morphisms(w, t):
                        if all(h.apply(i1.apply(m)) == fa.apply(m)
                               for m in a.carrier) and \
                           all(h.apply(i2.apply(m)) == fb.apply(m)
                               for m in b.carrier):
                            matches.append(h)
                    assert len(matches) == 1

    def test_zero_module_initial_terminal(self, f1):
        z = kz.zero_module(f1)
        m = kz.free_module(f1, 2)
        assert len(enumerate_morphisms(z, m)) == 1
        to_zero = enumerate_morphisms(m, z)
        assert len(to_zero) == 1


class TestKernelsCokernels:
    def test_kernel_of_identity(self, f1):
        m = kz.free_module(f1, 2)
        ident = kz.ModuleMorphism(m, m, {x: x for x in m.nonbase()})
        k, _ = kz.kernel(ident)
        assert len(k) == 1

    def test_cokernel_of_zero_morphism(self, f1):
        m = kz.free_module(f1, 2)
        z = kz.zero_module(f1)
        zero = kz.ModuleMorphism(z, m, {})
        q, proj = kz.cokernel(zero)
        assert len(q) == len(m)

    def test_collapse_kernel_over_idem(self, idem):
        b = kz.free_module(idem, 1)    # {*, 1@0, e@0}
        target = b_over_be(idem)
        collapse = kz.ModuleMorphism(b, target, {"1@0": "y", "e@0": BASE})
        assert kz.is_module_morphism(collapse)
        k, _ = kz.kernel(collapse)
        assert set(k.carrier) == {BASE, "e@0"}

    def test_kernel_of_cokernel_idempotent(self, idem):
        b = kz.free_module(idem, 1)
        sub, inc = kz._submodule(b, ("e@0",))
        q1, proj1 = kz.cokernel(inc)
        k1, inc1 = kz.kernel(proj1)
        q2, proj2 = kz.cokernel(inc1)
        k2, _ = kz.kernel(proj2)
        assert set(k1.carrier) == set(k2.carrier)


class TestNormality:
    def test_identity_normal_both_ways(self, f1):
        m = kz.free_module(f1, 1)
        ident = kz.ModuleMorphism(m, m, {x: x for x in m.nonbase()})
        assert kz.is_normal_mono(ident)
        assert kz.is_normal_epi(ident)

    def test_be_inclusion_normal(self, idem):
        b = kz.free_module(idem, 1)
        sub, inc = kz._submodule(b, ("e@0",))
        assert kz.is_normal_mono(inc)

    def test_non_mono_rejected(self, f1):
        m = kz.free_module(f1, 2)
        collapse = kz.ModuleMorphism(m, kz.free_module(f1, 1),
                                     {"1@0": "1@0", "1@1": "1@0"})
        with pytest.raises(kz.NotMono):
            kz.is_normal_mono(collapse)

    def test_non_epi_rejected(self, f1):
        small = kz.free_module(f1, 1)
        big = kz.free_module(f1, 2)
        inc = kz.ModuleMorphism(small, big, {"1@0": "1@0"})
        with pytest.raises(kz.NotEpi):
            kz.is_normal_epi(inc)


class TestProjectivity:
    def test_free_modules_projective(self, f1, f12, f13, idem):
        for bp in (f1, f12, f13, idem):
            for k in (0, 1, 2):
                assert kz.is_projective(kz.free_module(bp, k))

    def test_be_projective_not_free(self, idem):
        be = be_module(idem)
        assert kz.is_projective(be)
        assert not kz.is_free(be)

    def test_b_over_be_not_projective(self, idem):
        assert not kz.is_projective(b_over_be(idem))

    def test_fixed_point_module_not_projective(self, f13):
        t = kz.BlueModule(f13, ("t",), {("z1", "t"): "t", ("z2", "t"): "t"})
        assert not kz.is_projective(t)

    def test_blue_field_projectives_are_free(self, f13):
        for m in kz.enumerate_modules(f13, 5):
            if kz.is_projective(m):
                assert kz.is_free(m)

    def test_normal_epi_lifting_is_necessary(self, idem):
        # retracts of frees satisfy the relative lifting condition
        b = kz.free_module(idem, 1)
        sub, inc = kz._submodule(b, ("e@0",))
        q, proj = kz.cokernel(inc)
        universe = [proj]
        assert lifts_along_normal_epis(be_module(idem), universe)
        assert lifts_along_normal_epis(kz.free_module(idem, 1), universe)


class TestK0:
    def test_f1_infinite_cyclic(self, f1):
        result = kz.k0(f1, 6)
        assert result.is_infinite_cyclic()

    def test_f1n3_infinite_cyclic(self, f13):
        result = kz.k0(f13, 7)
        assert result.is_infinite_cyclic()

    def test_blue_fields_rank_one_torsion_free(self, f12):
        for bp, bound in ((f12, 5), (catalog.f1n(4), 5)):
            result = kz.k0(bp, bound)
            assert result.rank == 1 and not result.torsion

    def test_idempotent_regression(self, idem):
        result = kz.k0(idem, 6)
        assert result.rank == 2
        assert not result.torsion

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_is_rejected(self, f1, capsys, bound):
        # Every module holds the base point, so such a bound names no
        # module; K0 used to come out as Z^0.
        with pytest.raises(ValueError, match="size bound below 1"):
            kz.enumerate_modules(f1, bound)
        with pytest.raises(ValueError, match="size bound below 1"):
            kz.k0(f1, bound)
        assert main(["k0", "f1", "--bound", str(bound)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: size bound below 1")

    @pytest.mark.parametrize("ref", ["A2", "gm1", "P1", "gr:2,4"])
    def test_non_finite_blueprint_is_rejected(self, capsys, ref):
        # `catalog:A2` used to end in an AttributeError traceback.
        with pytest.raises(core.BlueprintError,
                           match="k0 expects a finite-table blueprint"):
            kz.k0(catalog.build(ref))
        assert main(["k0", f"catalog:{ref}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k0 expects a finite-table blueprint\n"


class TestCompletionCap:
    """Module derivations and the properness of cokernels are decided by
    completions; no search budget is read, and past
    `derivation._COMPLETION_CAP` rules they raise TooLarge."""

    def test_module_derive_and_k0_read_no_budget(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a budgeted search ran")

        assert not hasattr(kz, "MODULE_BUDGET")
        f12 = catalog.f1n(2)
        sl2 = catalog.sl2_f1()
        # both patched where the derivation engine looks them up
        monkeypatch.setattr(derivation, "_explore", forbidden)
        monkeypatch.setattr(derivation, "_improper_search", forbidden)
        free = kz.free_module(f12, 1)
        assert not kz.module_derive(free, ["1@0"], ["-1@0"])
        assert kz.module_derive(free, ["1@0", "-1@0"], [])
        # equal sums need no completion
        assert kz.module_derive(free, ["1@0"], ["1@0", kz.BASE])
        killed = kz.BlueModule(free.blueprint, free.carrier, free.action,
                               [(["1@0"], [])])
        assert kz._improper_module_pair(killed) == (BASE, "-1@0")
        assert kz._improper_module_pair(free) is None
        assert kz.k0(f12, 3).is_infinite_cyclic()
        # positive controls: a monomial blueprint's derivation and its
        # properness guard do search, and reach the patched names
        with pytest.raises(AssertionError, match="a budgeted search ran"):
            core.derive(sl2, [sl2.one()], [sl2.backend.zero()])
        with pytest.raises(AssertionError, match="a budgeted search ran"):
            Blueprint(sl2.backend, sl2.relations)

    def test_finite_guards_and_quotients_run_no_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a budgeted search ran")

        k23 = catalog.two_fields(2, 3)
        # (0,2) = (1,0) + (1,2) reads (0,2) = (1,2) once (1,0) is 0, so the
        # quotient below merges classes before it is proper
        bp = Blueprint(k23.backend,
                       [*k23.relations, (["(0,2)"], ["(1,0)", "(1,2)"])])
        ideal = core.additive_closure(bp, ["(1,0)"])
        monkeypatch.setattr(derivation, "_explore", forbidden)
        monkeypatch.setattr(derivation, "_improper_search", forbidden)
        # fresh copies, as the catalog keeps the tables it has built
        for build, args in ((catalog.f1n, (2,)), (catalog.two_fields, (2, 3)),
                            (catalog.roots_of_unity_sums, (4,))):
            assert build.__wrapped__(*args).relations
        assert core.quotient_by_ideal(bp, ideal).backend.symbols == \
            ("0", "1", "(0,2)")

    def test_past_the_cap_the_guard_searches(self, monkeypatch):
        # f1n(30) is the catalog table whose completion outgrows the cap,
        # so its guard falls back to the search at the guard budget
        searched = []
        original = derivation._improper_search

        def spy(bp, elements, budget):
            searched.append(budget)
            return original(bp, elements, budget)

        monkeypatch.setattr(derivation, "_improper_search", spy)
        bp = catalog.f1n.__wrapped__(30)
        assert searched == [core._guard_budget(bp.budget)]
        assert derivation._completion(bp) is None

    def test_cspec_and_k0_raise_past_the_cap(self, monkeypatch, capsys):
        # a fresh blueprint keeps no completion built under the patched cap
        f12 = catalog.f1n(2)
        f12 = Blueprint(f12.backend, f12.relations)
        # patched where `_Completion` reads it; the messages below show
        # that the patched cap is the one read
        monkeypatch.setattr(derivation, "_COMPLETION_CAP", 0)
        with pytest.raises(TooLarge, match="completion past 0 rules"):
            cg.cspec(f12)
        with pytest.raises(TooLarge, match="completion past 0 rules"):
            kz.k0(f12, 3)
        with pytest.raises(TooLarge, match="completion past 0 rules"):
            kz.module_derive(kz.free_module(f12, 1), ["1@0"], ["-1@0"])
        assert main(["k0", "catalog:f1n:2", "--bound", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: completion past 0 rules\n"

    def test_relations_of_two_terms_or_more_need_no_completion(self):
        # the completion of roots_sums(7) outgrows the cap, but its one
        # relation has seven terms a side, so B·1 and the quotients of B
        # are proper without it
        bp = catalog.roots_of_unity_sums(7)
        assert core._completion(bp) is None
        got = kz.k0(bp, 8)
        assert got.generators == ("P0(size 1)", "P1(size 8)")
        assert got.is_infinite_cyclic()
        assert [repr(c) for c in cg.cspec(bp).points] == \
            ["0/1/z1/z2/z3/z4/z5/z6", "0/1z1z2z3z4z5z6"]


# ---------------------------------------------------------------------------
# Differential tests: the product loop over every generator image, the
# carrier scan per preimage count, the three-cokernel subset loop, the
# jointly coloured isomorphism search, freeness by isomorphism to a free
# module and projectivity as a retract of a free module, kept as references
# for the pruned search, the one-pass colors, the single cokernel per
# subset, the propagating search on kept colours, the orbit-cover freeness
# test and the lookup among the principal modules B·e.


def reference_enumerate_modules(blueprint, size_bound):
    gens = kz._monoid_generators(blueprint)
    classifier = kz.ModuleClassifier()
    out = []
    for size in range(1, size_bound + 1):
        carrier = [BASE] + [f"m{i}" for i in range(size - 1)]
        candidates = itertools.product(
            *[list(carrier) for _ in range(len(gens) * (size - 1))])
        for flat in candidates:
            gen_maps = {}
            idx = 0
            for g in gens:
                gen_maps[g] = {BASE: BASE}
                for m in carrier[1:]:
                    gen_maps[g][m] = flat[idx]
                    idx += 1
            action = kz._complete_action(blueprint, gens, gen_maps, carrier)
            if action is None:
                continue
            try:
                module = kz.BlueModule(blueprint, tuple(carrier),
                                       action, (), name=f"M{len(out)}")
            except kz.BlueprintError:
                continue
            if classifier.find(module) is None:
                classifier.classify(module)
                out.append(module)
    return out


def reference_joint_colors(modules):
    syms = modules[0].blueprint.backend.symbols
    colors = [{m: (-1 if m == BASE else 0) for m in mod.carrier}
              for mod in modules]
    rounds = max(len(mod.carrier) for mod in modules) + 1
    for _ in range(rounds):
        sigs = []
        for mod, col in zip(modules, colors):
            sigs.append({m: (col[m],
                             tuple(col[mod.act(b, m)] for b in syms),
                             tuple(tuple(sorted(Counter(
                                 col[x] for x in mod.carrier
                                 if mod.act(b, x) == m).items()))
                                 for b in syms))
                         for m in mod.carrier})
        palette = {sig: i for i, sig in enumerate(
            sorted({s for d in sigs for s in d.values()}, key=repr))}
        nxt = [{m: palette[d[m]] for m in d} for d in sigs]
        if all(len(set(n.values())) == len(set(c.values()))
               for n, c in zip(nxt, colors)):
            colors = nxt
            break
        colors = nxt
    return colors


def partition(colors):
    """The classes of a colouring, as a set of frozensets."""
    classes = {}
    for x, c in colors.items():
        classes.setdefault(c, set()).add(x)
    return {frozenset(v) for v in classes.values()}


def reference_modules_isomorphic(m1, m2):
    """The search over jointly refined colours, re-checking the whole
    mapping after each choice; m1's elements in carrier order."""
    if len(m1) != len(m2) or reference_invariant(m1) != reference_invariant(m2):
        return None
    colors1, colors2 = reference_joint_colors([m1, m2])
    if sorted(colors1.values()) != sorted(colors2.values()):
        return None
    syms = m1.blueprint.backend.symbols
    order = list(m1.nonbase())
    rels2 = set(m2.relations)
    mapping = {BASE: BASE}
    used = set()

    def consistent():
        for b in syms:
            for prev, py in mapping.items():
                img = m1.act(b, prev)
                if img in mapping and mapping[img] != m2.act(b, py):
                    return False
        return True

    def backtrack(i):
        if i == len(order):
            rels1_img = {m1._norm_rel([mapping[t] for t in l],
                                      [mapping[t] for t in r])
                         for l, r in m1.relations}
            rels1_img.discard(None)
            return rels1_img == rels2
        x = order[i]
        for y in m2.nonbase():
            if y in used or colors1[x] != colors2[y]:
                continue
            mapping[x] = y
            used.add(y)
            if consistent() and backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return dict(mapping) if backtrack(0) else None


def reference_invariant(module):
    """`BlueModule.invariant` on reference colours. Each relation's colour
    profile has its sides in sorted order: relations are oriented by element
    names, so a profile oriented like the relation told isomorphic modules
    apart (see `TestIsomorphismAgainstReference.test_named_orientation`)."""
    color = reference_joint_colors([module])[0]
    rel_profile = Counter()
    for l, r in module.relations:
        rel_profile[tuple(sorted((tuple(sorted(color[t] for t in l)),
                                  tuple(sorted(color[t] for t in r)))))] += 1
    return (len(module.carrier),
            tuple(sorted(Counter(color.values()).items())),
            tuple(sorted(rel_profile.items())))


def reference_is_free(module):
    """Isomorphism to the free module of the matching rank."""
    nb = len(module.nonbase())
    unit = len(module.blueprint.backend.symbols) - 1
    if nb == 0:
        return True
    if unit == 0 or nb % unit:
        return False
    free = kz.free_module(module.blueprint, nb // unit)
    return reference_modules_isomorphic(module, free) is not None


def reference_minimal_generators(module):
    """A greedy generating set under the action."""
    reachable = {BASE}
    gens = []
    for m in module.nonbase():
        if m not in reachable:
            gens.append(m)
            for b in module.blueprint.backend.symbols:
                reachable.add(module.act(b, m))
    return gens


def reference_retract_of_free(module):
    """Search an injective section into the free module on the minimal
    generators; a compatible retraction is then built directly on the copy
    units."""
    gens = reference_minimal_generators(module)
    if not gens:
        return True
    k = len(gens)
    free = kz.free_module(module.blueprint, k)
    syms = [a for a in module.blueprint.backend.symbols if a != ZERO]
    for s in enumerate_morphisms(module, free):
        if not s.is_injective():
            continue
        r0 = {s.apply(m): m for m in module.carrier}
        if all(any(all(module.act(a, p) == r0[f"{a}@{i}"]
                       for a in syms if f"{a}@{i}" in r0)
                   for p in module.carrier)
               for i in range(k)):
            return True
    return False


def reference_is_projective(module):
    """Retract of a free module; a wedge is projective iff every component
    is (collapsing the other components retracts onto each one)."""
    if kz.is_free(module):
        return True
    comps = kz.wedge_components(module)
    if comps is not None and len(comps) > 1:
        return all(reference_is_projective(c) for c in comps)
    return reference_retract_of_free(module)


def reference_projectives(blueprint, size_bound,
                          enumerate_modules=reference_enumerate_modules):
    return [m for m in enumerate_modules(blueprint, size_bound)
            if reference_is_projective(m)]


def reference_k0(blueprint, size_bound, projectives=None):
    """K0 by enumerating every module, keeping the projective ones and
    taking each action-closed subset of each through `is_normal_mono`."""
    if projectives is None:
        projectives = reference_projectives(blueprint, size_bound)
    classifier = kz.ModuleClassifier()
    for p in projectives:
        classifier.classify(p)
    rows = []
    for m in projectives:
        im = classifier.find(m)
        for sub_elems in kz._action_closed_subsets(m):
            sub, inc = kz._submodule(m, sub_elems)
            ksub = classifier.find(sub)
            if ksub is None or not kz.is_normal_mono(inc):
                continue
            q, proj = kz.cokernel(inc)
            # `kz.k0` leaves this check out: it cannot fail once the kernel
            # check passed.
            epi = kz.is_normal_epi(proj)
            assert epi
            kq = classifier.find(q)
            if kq is None or not epi:
                continue
            row = [0] * len(projectives)
            row[im] += 1
            row[ksub] -= 1
            row[kq] -= 1
            if any(row):
                rows.append(row)
    rows = [list(r) for r in {tuple(r) for r in rows}]
    factors = smith_normal_form(rows) if rows else []
    rank = len(projectives) - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    names = tuple(f"P{i}(size {len(p)})" for i, p in enumerate(projectives))
    return kz.K0Result(names, tuple(tuple(r) for r in rows), rank, torsion)


def projective_wedges(blueprint, size_bound):
    """`_principal_modules` and the wedges of their multisets with carrier
    <= size_bound, sorted by size: pairs (shape, wedge), the shape counting
    the copies of each principal module. A wedge's components are its
    action-connected parts, so distinct shapes give distinct classes."""
    principal = kz._principal_modules(blueprint)
    sizes = [len(be) - 1 for _, be in principal]

    def carrier_size(shape):
        return 1 + sum(c * n for c, n in zip(shape, sizes))

    shapes = [()]
    for _ in sizes:
        shapes = [sh + (c,) for sh in shapes for c in range(size_bound)
                  if carrier_size(sh + (c,)) <= size_bound]
    shapes.sort(key=carrier_size)
    wedges = []
    for sh in shapes:
        comps = [e for (e, _), c in zip(principal, sh) for _ in range(c)]
        wedges.append((sh, kz._principal_wedge(blueprint, comps)))
    return principal, wedges


def reference_k0_by_wedges(blueprint, size_bound):
    """K0 as `kz.k0` took it before it added shapes: every wedge of B·e that
    fits is built and classified, and each multiset of component choices
    takes one `_submodule`, one `cokernel` and two `classifier.find`."""
    kz._check_size_bound(size_bound)
    if not isinstance(blueprint, Blueprint) or \
            blueprint.backend.kind != "finite":
        raise kz.BlueprintError("k0 expects a finite-table blueprint")
    principal, wedges = projective_wedges(blueprint, size_bound)
    projectives = [m for _, m in wedges]
    classifier = kz.ModuleClassifier()
    for m in projectives:
        classifier.classify(m)
    # the action-closed subsets of each B·e, as sets of b·e
    closed = [[{x.rpartition("@")[0] for x in sub}
               for sub in kz._action_closed_subsets(be)]
              for _, be in principal]
    rows = set()
    for im, (sh, m) in enumerate(wedges):
        # one choice per copy, nondecreasing over the copies of each B·e
        for picks in itertools.product(*(
                itertools.combinations_with_replacement(subsets, c)
                for subsets, c in zip(closed, sh))):
            sub_elems = {f"{x}@{i}" for i, part in
                         enumerate(itertools.chain.from_iterable(picks))
                         for x in part}
            sub, inc = kz._submodule(m, sub_elems)
            ksub = classifier.find(sub)
            if ksub is None:
                continue
            q, proj = kz.cokernel(inc)
            if {x for x in m.carrier if proj.apply(x) == BASE} \
                    != set(sub.carrier):
                continue
            kq = classifier.find(q)
            if kq is None:
                continue
            row = [0] * len(projectives)
            row[im] += 1
            row[ksub] -= 1
            row[kq] -= 1
            if any(row):
                rows.add(tuple(row))
    rows = sorted(rows)
    factors = smith_normal_form([list(r) for r in rows]) if rows else []
    rank = len(projectives) - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    names = tuple(f"P{i}(size {len(p)})" for i, p in enumerate(projectives))
    return kz.K0Result(names, tuple(rows), rank, torsion)


# A bounded module derivation search that shares no code with the
# completion: its own BFS over every relation rescaled by every nonzero
# symbol, and the improper-pair loop with one search per element and one
# per pair.


def reference_scaled_relations(module):
    """The rewrites b·L -> b·R as pairs of Counters, for L = R a relation
    read both ways round and b a nonzero symbol, the base point dropped. A
    b·L that is all base point is the empty sum, so b·R is inserted, as
    `derivation._scaled_pairs` reads the relation."""
    def scaled(b, side):
        return Counter(x for x in (module.act(b, t) for t in side)
                       if x != BASE)

    rules = []
    for l, r in module.relations:
        for L, R in ((l, r), (r, l)):
            for b in module.blueprint.backend.symbols:
                if b != ZERO and scaled(b, L) != scaled(b, R):
                    rules.append((scaled(b, L), scaled(b, R)))
    return rules


def reference_module_rewrites(rules, u, budget):
    """The sums one step from u by `reference_scaled_relations`."""
    u_counter = Counter(u)
    for bL, bR in rules:
        if all(u_counter[t] >= k for t, k in bL.items()):
            flat = tuple(sorted((u_counter - bL + bR).elements()))
            if len(flat) <= budget.max_terms:
                yield flat


def reference_module_derive(module, lhs, rhs):
    """True when the breadth-first search from lhs reaches rhs, False when
    it runs out of sums first, None where it runs out of steps."""
    budget = Budget(2, 8, 4000)
    l = module._norm_sum(lhs)
    r = module._norm_sum(rhs)
    if l == r:
        return True
    rules = reference_scaled_relations(module)
    seen = {l}
    frontier = [l]
    steps = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in reference_module_rewrites(rules, u, budget):
                steps += 1
                if steps > budget.max_steps:
                    return None
                if v in seen:
                    continue
                if v == r:
                    return True
                seen.add(v)
                nxt.append(v)
        frontier = nxt
    return False


def reference_improper_module_pair(module):
    """The first element a identified with the base point, as (*, a), or
    with another element, the least such b, as (a, b)."""
    for a in module.nonbase():
        if reference_module_derive(module, (a,), ()):
            return (BASE, a)
        for b in module.nonbase():
            if b != a and reference_module_derive(module, (a,), (b,)):
                return (a, b)
    return None


def assert_searches_as_reference(module, exhaustive=True):
    """Every element against the empty sum, every pair of elements and the
    improper pair, decided by the module's completion, against the old
    search. Where the old search runs out of steps it reads as None and
    there is nothing to compare; with `exhaustive` it may not run out."""
    singles = [(m,) for m in module.nonbase()]
    cut = False
    for lhs, rhs in [(s, ()) for s in singles] + \
            list(itertools.combinations(singles, 2)):
        expected = reference_module_derive(module, lhs, rhs)
        got = kz.module_derive(module, lhs, rhs)
        if expected is None:
            assert not exhaustive, (module, lhs, rhs)
            cut = True
        else:
            assert got == expected, (module, lhs, rhs)
    if not cut:
        # the old pair loop read a search that ran out as "no"
        assert kz._improper_module_pair(module) == \
            reference_improper_module_pair(module)


def assert_completion_as_sympy(module):
    """The completion kept on the module against sympy: its rules are the
    reduced grevlex basis of the binomials of the relations scaled by every
    nonzero symbol, `module_derive` of an element against the base point
    and against another element is sympy's membership test of x_a - 1 and
    x_a - x_b, and `_improper_module_pair` is the pair read off those."""
    elements = module.nonbase()
    if not elements:
        return
    nonzero = [b for b in module.blueprint.backend.symbols if b != ZERO]

    def scaled(b, side):
        return [x for x in (module.act(b, t) for t in side) if x != BASE]

    G, mono = sympy_basis(elements, [(scaled(b, l), scaled(b, r))
                                     for l, r in module.relations
                                     for b in nonzero])
    assert_rules_as_sympy(kz._module_completion(module), G, mono)
    for i, a in enumerate(elements):
        assert kz.module_derive(module, [a], []) == \
            G.contains(mono([a]) - 1), (module, a)
        for b in elements[i + 1:]:
            assert kz.module_derive(module, [a], [b]) == \
                G.contains(mono([a]) - mono([b])), (module, a, b)
    assert kz._improper_module_pair(module) == \
        sympy_improper_pair(G, mono, elements, BASE)


def module_key(module):
    return (module.name, module.carrier, sorted(module.action.items()),
            module.relations)


def split_idempotents():
    """{0, 1, e, f} with orthogonal idempotents e, f and 1 = e + f. The
    action-closed subset {e@0, f@0} of the free module is not normal: its
    cokernel also kills 1@0, since 1@0 = e@0 + f@0."""
    syms = (ZERO, ONE, "e", "f")
    mul = {(a, b): (b if a == ONE else a if b == ONE or a == b else ZERO)
           for a in syms for b in syms}
    for a in syms:
        mul[(ZERO, a)] = mul[(a, ZERO)] = ZERO
    return Blueprint(FiniteTable(syms, mul), [([ONE], ["e", "f"])],
                     name="F1xF1")


def assert_k0_as_reference(bp, bound,
                           enumerate_modules=reference_enumerate_modules):
    """The projective classes of `kz.k0` map one to one onto the
    enumerated ones by `modules_isomorphic`, keeping sizes; under that map
    the rows are the same set, and generators, rank and torsion are equal.
    The order of two classes of equal size is not part of the contract."""
    reference = reference_projectives(bp, bound, enumerate_modules)
    _, wedges = projective_wedges(bp, bound)
    to_reference = []
    for _, m in wedges:
        matches = [j for j, r in enumerate(reference)
                   if kz.modules_isomorphic(m, r) is not None]
        assert len(matches) == 1, (m, matches)
        to_reference += matches
    assert sorted(to_reference) == list(range(len(reference)))
    got, ref = kz.k0(bp, bound), reference_k0(bp, bound, reference)
    assert (got.generators, got.rank, got.torsion) == \
        (ref.generators, ref.rank, ref.torsion)
    mapped = set()
    for row in got.relations:
        out = [0] * len(reference)
        for i, v in zip(to_reference, row):
            out[i] = v
        mapped.add(tuple(out))
    assert mapped == set(ref.relations)


# (blueprint, size bound); the bounds keep the product loop small.
DIFFERENTIAL_CASES = [
    (catalog.f1, 6), (lambda: catalog.f1n(2), 6), (lambda: catalog.f1n(3), 5),
    (lambda: catalog.f1n(4), 5), (lambda: catalog.f1n(5), 5),
    (catalog.b1, 5), (catalog.idempotent_example, 5),
    (lambda: catalog.roots_of_unity_sums(4), 4),
    (lambda: catalog.two_fields(2, 3), 3), (split_idempotents, 4),
]


@pytest.fixture(scope="module", params=DIFFERENTIAL_CASES,
                ids=["f1", "f1n2", "f1n3", "f1n4", "f1n5", "b1", "idempotent",
                     "roots_sums4", "two_fields23", "split_idempotents"])
def case(request):
    build, bound = request.param
    bp = build()
    return bp, bound, reference_enumerate_modules(bp, bound)


class TestAgainstReference:
    def test_universe(self, case):
        bp, bound, reference = case
        got = kz.enumerate_modules(bp, bound)
        assert [module_key(m) for m in got] == \
            [module_key(m) for m in reference]

    def test_k0(self, case):
        bp, bound, _ = case
        assert_k0_as_reference(bp, bound)

    def test_colors(self, case):
        # the structure's stable colours split the carrier as the reference
        # refinement does (images and preimage counts under each symbol)
        _, _, universe = case
        for m in universe:
            s = m.structure()
            assert partition(dict(zip(s.elements, s.colours))) == \
                partition(reference_joint_colors([m])[0])
            assert m.structure() is m.structure()

    def test_zero_table(self):
        # 1 = 0 must act as the identity and send every element to the base
        # point, so the zero module is the only one; enumerating used to
        # raise KeyError, multiplying by a 1 that the table lacks
        zero = core.localize(catalog.f1(), ["0"])
        assert zero.backend.symbols == (ZERO,)
        got = kz.enumerate_modules(zero, 4)
        assert [m.carrier for m in got] == [(BASE,)]
        assert [module_key(m) for m in got] == \
            [module_key(m) for m in reference_enumerate_modules(zero, 4)]
        assert_k0_as_reference(zero, 4, kz.enumerate_modules)
        assert kz.k0(zero, 4).rank == 0

    def test_zero_table_has_only_the_zero_module(self):
        # 1 = 0 forces every element to the base point: a nonbase element
        # on which the unit does not act as the identity is refused
        zero = core.localize(catalog.f1(), ["0"])
        with pytest.raises(kz.BlueprintError, match="identity"):
            kz.BlueModule(zero, ("m0",), {(ZERO, "m0"): BASE})
        assert kz.BlueModule(zero, (), {}).carrier == (BASE,)
        assert repr(kz.k0(zero, 4)) == "K0(Z^0)"

    def test_every_leaf_is_an_action(self, case, monkeypatch):
        # The cuts test every g·a against g after a, the zero products
        # included, which already makes the choice an action: no complete
        # choice that reaches _complete_action is rejected there.
        bp, bound, _ = case
        original = kz._complete_action
        rejected = []

        def checked(*args):
            action = original(*args)
            if action is None:
                rejected.append({g: dict(mp) for g, mp in args[2].items()})
            return action

        monkeypatch.setattr(kz, "_complete_action", checked)
        kz.enumerate_modules(bp, bound)
        assert rejected == []

    def test_non_normal_mono_is_skipped(self):
        bp = split_idempotents()
        free = kz.free_module(bp, 1)
        sub, inc = kz._submodule(free, ("e@0", "f@0"))
        assert not kz.is_normal_mono(inc)

    def test_invariant_is_kept(self, case):
        _, _, universe = case
        for m in universe:
            assert m.invariant() is m.invariant()

    def test_search_reaches_only_valid_leaves(self, monkeypatch):
        # Over f1n(3) the one generator z1 must act with z1^3 = 1, that is by
        # a permutation of the nonbase elements of order dividing 3; the
        # cuts leave exactly those choices to _complete_action.
        bp = catalog.f1n(3)
        reference = [module_key(m) for m in reference_enumerate_modules(bp, 5)]
        calls = []
        original = kz._complete_action

        def counted(blueprint, gens, gen_maps, carrier):
            calls.append({g: dict(mp) for g, mp in gen_maps.items()})
            return original(blueprint, gens, gen_maps, carrier)

        monkeypatch.setattr(kz, "_complete_action", counted)
        assert [module_key(m) for m in kz.enumerate_modules(bp, 5)] == \
            reference
        order_3 = sum(
            1 for n in range(5) for p in itertools.permutations(range(n))
            if all(p[p[p[i]]] == i for i in range(n)))
        assert len(calls) == order_3 == 15
        for maps in calls:
            z1 = maps["z1"]
            assert all(z1[z1[z1[m]]] == m for m in z1)


def relabelled(module, rng):
    """A copy with the nonbase elements renamed by a seeded permutation."""
    names = list(module.nonbase())
    rng.shuffle(names)
    new = {BASE: BASE, **{x: f"r{i}" for i, x in enumerate(names)}}
    action = {(b, new[m]): new[v] for (b, m), v in module.action.items()}
    relations = [([new[t] for t in l], [new[t] for t in r])
                 for l, r in module.relations]
    return kz.BlueModule(module.blueprint, tuple(new.values()), action,
                         relations, name=f"{module.name}'")


def brute_force_isomorphism(m1, m2):
    """The first permutation of m2's nonbase elements, as a map from m1's
    nonbase elements in carrier order, that preserves action and
    relations, by trying every one; None when there is none."""
    if len(m1) != len(m2):
        return None
    syms = m1.blueprint.backend.symbols
    rels2 = set(m2.relations)
    for image in itertools.permutations(m2.nonbase()):
        f = {BASE: BASE, **dict(zip(m1.nonbase(), image))}
        if all(f[m1.act(b, x)] == m2.act(b, f[x])
               for b in syms for x in m1.nonbase()) and \
                {m1._norm_rel([f[t] for t in l], [f[t] for t in r])
                 for l, r in m1.relations} - {None} == rels2:
            return f
    return None


def assert_isomorphic_as_reference(m1, m2):
    got = kz.modules_isomorphic(m1, m2)
    expected = reference_modules_isomorphic(m1, m2)
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)


def assert_free_as_reference(module):
    assert kz.is_free(module) == reference_is_free(module)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kz, "is_free", reference_is_free)
        expected = kz.is_projective(module)
    assert kz.is_projective(module) == expected


class TestIsomorphismAgainstReference:
    """The structure search (`predicates._isomorphism`) on single-module
    colours and the orbit-cover freeness test, against the jointly coloured
    search, a brute-force search over permutations and the isomorphism to a
    free module."""

    def test_universe_pairs(self, case):
        _, _, universe = case
        for m1, m2 in itertools.product(universe, repeat=2):
            assert_isomorphic_as_reference(m1, m2)

    def test_universe_pairs_as_brute_force(self, case):
        # the least isomorphism in carrier order is the first permutation
        _, _, universe = case
        small = [m for m in universe if len(m.nonbase()) <= 6]
        for m1, m2 in itertools.product(small, repeat=2):
            got = kz.modules_isomorphic(m1, m2)
            assert got == brute_force_isomorphism(m1, m2), (m1, m2)
            if got is not None:
                assert list(got) == list(m1.carrier)

    def test_universe_has_one_module_per_class(self, case):
        _, _, universe = case
        for m1, m2 in itertools.combinations(universe, 2):
            assert brute_force_isomorphism(m1, m2) is None, (m1, m2)

    def test_relabelled_copies(self, case):
        _, _, universe = case
        rng = random.Random(15)
        for m in universe:
            copy = relabelled(m, rng)
            assert kz.modules_isomorphic(m, copy) is not None
            assert_isomorphic_as_reference(m, copy)
            assert_isomorphic_as_reference(copy, m)
            assert_free_as_reference(m)
            assert_free_as_reference(copy)

    def test_named_orientation(self):
        # M is the free module of rank one over F1 x F1 under other names:
        # its relation reads (m0 + m1, m2) where the free module's reads
        # (1@0, e@0 + f@0). An invariant that kept that orientation called
        # them non-isomorphic, so M was not free.
        bp = split_idempotents()
        m = kz.BlueModule(bp, ("m0", "m1", "m2"), {
            ("e", "m0"): BASE, ("e", "m1"): "m1", ("e", "m2"): "m1",
            ("f", "m0"): "m0", ("f", "m1"): BASE, ("f", "m2"): "m0"})
        free = kz.free_module(bp, 1)
        assert m.relations == ((("m0", "m1"), ("m2",)),)
        assert free.relations == ((("1@0",), ("e@0", "f@0")),)
        assert kz.modules_isomorphic(m, free) == \
            {BASE: BASE, "m0": "f@0", "m1": "e@0", "m2": "1@0"}
        assert kz.is_free(m) and reference_is_free(m)

    def test_free_modules(self, case):
        bp, _, universe = case
        rng = random.Random(16)
        for k in (1, 2, 3):
            free = kz.free_module(bp, k)
            copy = relabelled(free, rng)
            assert kz.is_free(free) and kz.is_free(copy)
            assert_free_as_reference(copy)
            assert_isomorphic_as_reference(free, copy)
            assert_isomorphic_as_reference(copy, free)
            for m in universe:
                assert_isomorphic_as_reference(m, copy)


HYPOTHESIS_BLUEPRINTS = {
    "f1": catalog.f1, "f1n2": lambda: catalog.f1n(2),
    "f1n3": lambda: catalog.f1n(3), "b1": catalog.b1,
    "idempotent": catalog.idempotent_example,
    "split_idempotents": split_idempotents,
}


def fixed_point_module(bp, k):
    """k points fixed by every nonzero symbol; an action only when the
    blueprint has no zero divisors."""
    nonzero = [a for a in bp.backend.symbols if a != ZERO]
    carrier = tuple(f"t{i}" for i in range(k))
    return kz.BlueModule(bp, carrier,
                         {(a, t): t for a in nonzero for t in carrier})


@st.composite
def wedges(draw):
    """A relabelled wedge of free modules of rank one, fixed-point modules
    and small enumerated modules, with up to two extra relations."""
    bp = HYPOTHESIS_BLUEPRINTS[draw(st.sampled_from(
        sorted(HYPOTHESIS_BLUEPRINTS)))]()
    universe = kz.enumerate_modules(bp, 3)
    parts = []
    for kind in draw(st.lists(st.sampled_from(["free", "fixed", "small"]),
                              min_size=1, max_size=3)):
        if kind == "free":
            parts.append(kz.free_module(bp, 1))
        elif kind == "fixed":
            try:
                parts.append(fixed_point_module(bp, draw(st.integers(1, 2))))
            except kz.BlueprintError:
                continue
        else:
            parts.append(draw(st.sampled_from(universe)))
    module = kz.zero_module(bp)
    for part in parts:
        module = kz.wedge(module, part)[0]
    nonbase = list(module.nonbase())
    side = st.lists(st.sampled_from(nonbase), max_size=2) if nonbase \
        else st.just([])
    extra = draw(st.lists(st.tuples(side, side), max_size=2))
    if extra:
        module = kz.BlueModule(bp, module.carrier, module.action,
                               list(module.relations) + extra)
    return relabelled(module, random.Random(draw(st.integers(0, 2**16))))


class TestProjectivityAgainstReference:
    """The lookup among the principal modules B·e against the retract
    search. The reference runs where at most four elements besides the
    base point keep its morphism search small."""

    def test_universe(self, case):
        _, _, universe = case
        for m in universe:
            assert kz.is_projective(m) == reference_is_projective(m), m

    def test_pairwise_wedges(self, case):
        # a wedge is projective iff both parts are
        _, _, universe = case
        for m1, m2 in itertools.combinations_with_replacement(universe, 2):
            w = kz.wedge(m1, m2)[0]
            got = kz.is_projective(w)
            assert got == (kz.is_projective(m1) and kz.is_projective(m2))
            if len(w.nonbase()) <= 4:
                assert got == reference_is_projective(w), w

    @given(wedges())
    @settings(max_examples=100, deadline=None)
    def test_random_wedges(self, module):
        got = kz.is_projective(module)
        if len(module.nonbase()) <= 4:
            assert got == reference_is_projective(module)

    def test_coupling_relation(self, idem):
        # B·e wedged with itself is projective; a relation across the two
        # copies leaves no wedge decomposition
        be = be_module(idem)
        w = kz.wedge(be, be)[0]
        assert kz.is_projective(w) and reference_is_projective(w)
        coupled = kz.BlueModule(idem, w.carrier, w.action,
                                list(w.relations) + [(["L.x"], ["R.x"])])
        assert kz.wedge_components(coupled) is None
        assert not kz.is_projective(coupled)
        assert not reference_is_projective(coupled)

    def test_searches_no_morphisms(self, case):
        # the morphism enumerator is a test oracle: kzero has none to call
        _, _, universe = case
        expected = [reference_is_projective(m) for m in universe]
        assert not hasattr(kz, "enumerate_morphisms")
        assert [kz.is_projective(m) for m in universe] == expected


class TestIsomorphismHypothesis:
    @given(wedges())
    @settings(max_examples=100, deadline=None)
    def test_random_wedges(self, module):
        bp = module.blueprint
        nb = len(module.nonbase())
        assert_free_as_reference(module)
        unit = len(bp.backend.symbols) - 1
        if nb % unit == 0:
            assert_isomorphic_as_reference(module,
                                           kz.free_module(bp, nb // unit))
        copy = relabelled(module, random.Random(nb))
        assert_isomorphic_as_reference(module, copy)
        assert_isomorphic_as_reference(copy, module)
        assert kz.modules_isomorphic(copy, module) is not None
        if nb % unit == 0 and nb <= 6:
            free = kz.free_module(bp, nb // unit)
            assert kz.is_free(module) == \
                (brute_force_isomorphism(module, free) is not None)

    @pytest.mark.parametrize("name", sorted(HYPOTHESIS_BLUEPRINTS))
    def test_extra_relation_is_not_free(self, name):
        bp = HYPOTHESIS_BLUEPRINTS[name]()
        free = kz.free_module(bp, 2)
        rels = set(free.relations)
        for pair in ((["1@0"], ["1@1"]), (["1@0"], [])):
            module = kz.BlueModule(bp, free.carrier, free.action,
                                   list(free.relations) + [pair])
            assert set(module.relations) != rels
            assert not kz.is_free(module)
            assert not reference_is_free(module)

    @pytest.mark.parametrize("name", ["f1", "f1n2", "f1n3", "b1"])
    def test_fixed_points_are_not_free(self, name):
        bp = HYPOTHESIS_BLUEPRINTS[name]()
        for k in (1, 2, 3):
            module = fixed_point_module(bp, k)
            expected = reference_is_free(module)
            assert kz.is_free(module) == expected
            # over F1 and B1 the unit group is trivial: one fixed point is
            # the free module of rank one
            assert expected == (len(bp.backend.symbols) == 2)


def reference_cokernel(f):
    """The relabelling loops that `kz.cokernel` replaced: one forced merge
    per pass, at most 20 merges in all."""
    tgt = f.target
    collapse = kz.submodule_closure(tgt, {f.apply(m) for m in f.source.carrier})
    merged = {m: (BASE if m in collapse else m) for m in tgt.carrier}
    for _ in range(20):
        carrier = sorted(set(merged.values()))
        action = {}
        for b in tgt.blueprint.backend.symbols:
            for m in tgt.carrier:
                key = (b, merged[m])
                val = merged[tgt.act(b, m)]
                if key in action and action[key] != val:
                    a, bb = sorted((action[key], val))
                    for x in merged:
                        if merged[x] == bb:
                            merged[x] = a
                    break
                action[key] = val
            else:
                continue
            break
        else:
            rels = [([merged[t] for t in l], [merged[t] for t in r])
                    for l, r in tgt.relations]
            q = kz.BlueModule(tgt.blueprint, tuple(carrier),
                              {k: v for k, v in action.items()
                               if k[1] != BASE}, rels,
                              name=f"coker({f.source.name or 'M'})")
            pair = kz._improper_module_pair(q)
            if pair is None:
                proj = kz.ModuleMorphism(tgt, q, {m: merged[m]
                                                  for m in tgt.nonbase()})
                q.projection = {m: merged[m] for m in tgt.carrier}
                return q, proj
            a, bb = sorted(pair)
            for x in merged:
                if merged[x] == bb:
                    merged[x] = a
    raise kz.BlueprintError("cokernel merging failed to stabilize")


def cokernel_facts(cokernel, f):
    """What a cokernel builds, or the type of what it raised."""
    try:
        q, proj = cokernel(f)
    except kz.BlueprintError as exc:
        return type(exc)
    return (q.carrier, q.action, q.relations, q.name, q.projection,
            proj.mapping)


def assert_cokernels_as_reference(module, subset):
    _, inc = kz._submodule(module, subset)
    want = cokernel_facts(reference_cokernel, inc)
    if want is not kz.BlueprintError:
        # the reference gives up after 20 merges; the union-find does not
        assert cokernel_facts(kz.cokernel, inc) == want, (module, subset)


class TestCokernelAgainstReference:
    def test_universe(self, case):
        _, _, universe = case
        for m in universe:
            for subset in kz._action_closed_subsets(m):
                assert_cokernels_as_reference(m, subset)

    def test_names_before_the_base_point(self):
        # "(0,1)@0" sorts before "*", yet the base point names its class
        bp = catalog.two_fields(2, 3)
        for k in (1, 2):
            m = kz.free_module(bp, k)
            for subset in kz._action_closed_subsets(m):
                assert_cokernels_as_reference(m, subset)

    @given(wedges(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_wedges(self, module, data):
        nonbase = module.nonbase()
        drawn = data.draw(st.lists(st.sampled_from(nonbase), max_size=3)) \
            if nonbase else []
        subset = {module.act(b, m) for b in module.blueprint.backend.symbols
                  for m in drawn} - {BASE}
        assert_cokernels_as_reference(module, subset)


class TestModuleSearchAgainstReference:
    """`module_derive` and `_improper_module_pair` on the core kernel,
    against the module search they replaced."""

    def test_universe(self, case):
        _, _, universe = case
        for m in universe:
            assert_searches_as_reference(m)

    def test_relabelled_copies(self, case):
        _, _, universe = case
        rng = random.Random(18)
        for m in universe:
            assert_searches_as_reference(relabelled(m, rng))

    def test_cokernels_in_k0(self, case, monkeypatch):
        # `k0` takes cokernels in the B·e that fit the bound only, so the
        # bound is raised to the smallest |B·e| where none fits (f1n5 to 6,
        # roots_sums4 to 5)
        bp, bound, _ = case
        bound = max(bound,
                    min(len(be) for _, be in kz._principal_modules(bp)))
        original = kz._improper_module_pair
        quotients = []

        def checked(q):
            pair = original(q)
            assert pair == reference_improper_module_pair(q), q
            quotients.append(q)
            return pair

        monkeypatch.setattr(kz, "_improper_module_pair", checked)
        kz.k0(bp, bound)
        # the sympy check calls `_improper_module_pair` itself
        monkeypatch.undo()
        assert quotients
        for q in quotients:
            assert_completion_as_sympy(q)

    @given(wedges())
    @settings(max_examples=50, deadline=None)
    def test_random_wedges(self, module):
        # extra relations can make a class too large for the step bound
        assert_searches_as_reference(module, exhaustive=False)

    def test_a_side_scaled_to_the_base_point_inserts_the_other(self):
        # over split_idempotents, r3 = 1@0 with r1 = e·r3 and r2 = f·r3, and
        # r1 = r2 beside r1 + r2 = r3: f·(r1 = r2) reads 0 = r2, so r1 = 0,
        # r2 = 0 and r1 = r3. A search that only removes b·R there reaches
        # 0 from r1 and from r3 but never r3 from r1.
        free = kz.free_module(split_idempotents(), 1)
        names = {kz.BASE: kz.BASE, "e@0": "r1", "f@0": "r2", "1@0": "r3"}
        module = kz.BlueModule(
            free.blueprint, tuple(names[x] for x in free.carrier),
            {(b, names[x]): names[y] for (b, x), y in free.action.items()},
            [(["r1"], ["r2"]), (["r1", "r2"], ["r3"])])
        assert_completion_as_sympy(module)
        assert kz.module_derive(module, ["r1"], ["r3"])
        assert reference_module_derive(module, ("r1",), ("r3",))
        assert_searches_as_reference(module)


class TestCompletionAgainstSympy:
    """The completion kept per module against `sympy.groebner`."""

    def test_universe(self, case):
        _, _, universe = case
        for m in universe:
            assert_completion_as_sympy(m)

    @given(wedges())
    @settings(max_examples=50, deadline=None)
    def test_random_wedges(self, module):
        assert_completion_as_sympy(module)


def cyclic_monoid(n, m):
    """The exponents 0..n-1 of t, with t^n = t^m, or t^n = 0 when m is None;
    None stands for zero. Returns the elements and the product."""
    def mul(i, j):
        if i is None or j is None:
            return None
        k = i + j
        if m is None:
            return k if k < n else None
        while k >= n:
            k -= n - m
        return k
    return [None] + list(range(n)), mul


def product_table(factors, direct):
    """The direct product of cyclic monoids with zero, whose zero is the
    all-zero tuple, or their smash product, where any zero entry is zero."""
    parts = [cyclic_monoid(n, m) for n, m in factors]

    def name(x):
        if all(c == 0 for c in x):
            return ONE
        if all(c is None for c in x) or \
                (not direct and any(c is None for c in x)):
            return ZERO
        return "".join(f"{'tu'[i]}{'_' if c is None else c}"
                       for i, c in enumerate(x))
    elems = list(itertools.product(*(p[0] for p in parts)))
    mul = {(name(a), name(b)): name(tuple(p[1](x, y)
                                          for p, x, y in zip(parts, a, b)))
           for a in elems for b in elems}
    syms = sorted({name(a) for a in elems},
                  key=lambda x: (x != ZERO, x != ONE, x))
    return FiniteTable(syms, mul)


CYCLIC = [(n, m) for n in (1, 2, 3) for m in (None, *range(n))]
# one or two cyclic factors, at most six symbols
PRODUCT_SHAPES = [((f,), True) for f in CYCLIC] + [
    ((f, g), direct) for i, f in enumerate(CYCLIC) for g in CYCLIC[i:]
    for direct in (True, False)
    if ((f[0] + 1) * (g[0] + 1) if direct else f[0] * g[0] + 1) <= 6]


@st.composite
def monoid_tables(draw):
    """A product of cyclic monoids with zero, with up to two relations of at
    most three terms and no properness check."""
    table = product_table(*draw(st.sampled_from(PRODUCT_SHAPES)))
    rels = []
    for t in draw(st.lists(st.lists(st.sampled_from(table.symbols),
                                    min_size=1, max_size=3), max_size=2)):
        cut = draw(st.integers(0, len(t)))
        rels.append((t[:cut], t[cut:]))
    return Blueprint(table, rels, check_proper=False)


# Every finite catalog table. Tables of more than five symbols are checked
# up to size bound 4, the others up to 6.
CATALOG_TABLES = {
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


class TestK0FromIdempotents:
    """`k0` counts the projectives as shapes of wedges of B·e and takes one
    cokernel per action-closed subset of each B·e; `reference_k0`
    enumerates every module and takes one per subset. Both runs below
    enumerate by the pruned search, which
    `TestAgainstReference.test_universe` checks against the product loop:
    the product loop takes minutes on these tables."""

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLES))
    def test_catalog(self, name):
        bp = CATALOG_TABLES[name]()
        top = 6 if len(bp.backend.symbols) <= 5 else 4
        for bound in range(1, top + 1):
            assert_k0_as_reference(bp, bound, kz.enumerate_modules)

    @given(monoid_tables())
    @settings(max_examples=40, deadline=None)
    def test_random_tables(self, bp):
        assert_k0_as_reference(bp, 4, kz.enumerate_modules)

    def test_neither_enumerates_nor_tests_projectivity(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("called on the K0 path")

        monkeypatch.setattr(kz, "enumerate_modules", forbidden)
        monkeypatch.setattr(kz, "is_projective", forbidden)
        assert kz.k0(catalog.idempotent_example(), 6).rank == 2
        assert kz.k0(split_idempotents(), 4).rank == 2

    def test_one_cokernel_per_shape(self, monkeypatch):
        # f1 at 7: one cokernel per action-closed subset of B, {} and {1}
        calls = []
        original = kz.cokernel

        def counted(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(kz, "cokernel", counted)
        assert kz.k0(catalog.f1(), 7).is_infinite_cyclic()
        assert len(calls) == 2


K0_GRID = sorted(CATALOG_TABLES)


def k0_facts(k0, bp, bound):
    """The `K0Result` (generators, relations, rank and torsion), or the type
    of what was raised."""
    try:
        return k0(bp, bound)
    except Exception as exc:
        return type(exc)


def cokernel_and_normality(module, subset):
    """coker(subset -> module), and whether the inclusion is normal."""
    sub, inc = kz._submodule(module, subset)
    q, proj = kz.cokernel(inc)
    kernel = {x for x in module.carrier if proj.apply(x) == BASE}
    return q, kernel == set(sub.carrier)


class TestK0ByShapes:
    """`k0` adds the shapes recorded per action-closed subset of each B·e;
    `reference_k0_by_wedges` builds every wedge and takes one cokernel per
    multiset of component choices."""

    @pytest.mark.parametrize("name", K0_GRID)
    def test_grid(self, name):
        bp = CATALOG_TABLES[name]()
        for bound in range(1, 8):
            assert k0_facts(kz.k0, bp, bound) == \
                k0_facts(reference_k0_by_wedges, bp, bound), bound

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLES))
    def test_cokernel_of_a_wedge_is_the_wedge_of_cokernels(self, name):
        # Every wedge of two B·e that fits the size cap of 8, and every pair
        # of action-closed subsets.
        bp = CATALOG_TABLES[name]()
        pairs = 0
        for (e, be), (f, bf) in itertools.combinations_with_replacement(
                kz._principal_modules(bp), 2):
            if len(be) + len(bf) - 1 > 8:
                continue
            w = kz._principal_wedge(bp, [e, f])
            for s in kz._action_closed_subsets(be):
                qs, normal_s = cokernel_and_normality(be, s)
                for t in kz._action_closed_subsets(bf):
                    qt, normal_t = cokernel_and_normality(bf, t)
                    sub = set(s) | {x.replace("@0", "@1") for x in t}
                    qw, normal_w = cokernel_and_normality(w, sub)
                    assert kz.modules_isomorphic(
                        kz.wedge(qs, qt)[0], qw) is not None, (s, t)
                    assert normal_w == (normal_s and normal_t), (s, t)
                    pairs += 1
        # no two B·e fit side by side only when each has 4 nonzero elements
        # or more
        assert pairs or min(len(be) for _, be in
                            kz._principal_modules(bp)) > 4

    def test_two_fields_23_at_8_answers(self):
        # the wedge cokernels of the reference ran out of a search budget
        # here; their completions decide them
        bp = catalog.two_fields(2, 3)
        got = kz.k0(bp, 8)
        assert repr(got) == "K0(Z^3)"
        assert reference_k0_by_wedges(bp, 8) == got

    def test_two_fields_35_at_5(self):
        # the size-5 B·e of two_fields(3,5) ran out of a search budget on
        # its own
        assert repr(kz.k0(catalog.two_fields(3, 5), 5)) == "K0(Z^2)"

    def test_no_wedge_is_built(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("wedge built on the K0 path")

        # a fresh blueprint keeps no principal modules yet; the patch hands
        # k0 those of another, and the positive control shows it read them
        bp = catalog.idempotent_example()
        principal = kz._principal_modules(bp)
        bp = Blueprint(bp.backend, bp.relations)
        read = []
        monkeypatch.setattr(kz, "_principal_modules",
                            lambda b: read.append(b) or principal)
        monkeypatch.setattr(kz, "_principal_wedge", forbidden)
        assert kz.k0(bp, 6).rank == 2
        assert read and all(b is bp for b in read)

    def test_extra_relations_are_not_free(self, f1, f12):
        for bp, rel in ((f1, (["1@0"], ["1@1"])),
                        (f12, (["1@0", "-1@0"], ["1@1"]))):
            free = kz.free_module(bp, 2)
            assert kz.is_free(free)
            extra = kz.BlueModule(bp, free.carrier, free.action, [rel])
            assert len(extra.relations) == len(free.relations) + 1
            assert not kz.is_free(extra)
            assert not reference_is_free(extra)


class TestK0Pinned:
    """`k0 --json` output, byte for byte."""

    @pytest.mark.parametrize("argv, expected", [
        (("k0", "catalog:f1", "--bound", "6", "--json"),
         '{\n "generators": [\n  "P0(size 1)",\n  "P1(size 2)",\n'
         '  "P2(size 3)",\n  "P3(size 4)",\n  "P4(size 5)",\n'
         '  "P5(size 6)"\n ],\n "rank": 1,\n "torsion": []\n}\n'),
        (("k0", "catalog:f1n:2", "--bound", "6", "--json"),
         '{\n "generators": [\n  "P0(size 1)",\n  "P1(size 3)",\n'
         '  "P2(size 5)"\n ],\n "rank": 1,\n "torsion": []\n}\n'),
        (("k0", "catalog:b1", "--bound", "5", "--json"),
         '{\n "generators": [\n  "P0(size 1)",\n  "P1(size 2)",\n'
         '  "P2(size 3)",\n  "P3(size 4)",\n  "P4(size 5)"\n ],\n'
         ' "rank": 1,\n "torsion": []\n}\n'),
        (("k0", "catalog:two_fields:2,3", "--bound", "3", "--json"),
         '{\n "generators": [\n  "P0(size 1)",\n  "P1(size 2)",\n'
         '  "P2(size 3)",\n  "P3(size 3)"\n ],\n "rank": 2,\n'
         ' "torsion": []\n}\n'),
        (("k0", "catalog:f1n:3", "--bound", "6", "--json"),
         '{\n "generators": [\n  "P0(size 1)",\n  "P1(size 4)"\n ],\n'
         ' "rank": 1,\n "torsion": []\n}\n'),
        (("k0", "idempotent", "--bound", "4", "--json"),
         '{\n "generators": [\n  "P0(size 1)",\n  "P1(size 2)",\n'
         '  "P2(size 3)",\n  "P3(size 3)",\n  "P4(size 4)",\n'
         '  "P5(size 4)"\n ],\n "rank": 2,\n "torsion": []\n}\n'),
    ])
    def test_json(self, capsys, argv, expected):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == expected


def reference_submodule_closure(module, subset):
    """The closure loop that `kz.submodule_closure` replaced."""
    members = {BASE} | set(subset)
    changed = True
    while changed:
        changed = False
        for b in module.blueprint.backend.symbols:
            for m in list(members):
                v = module.act(b, m)
                if v not in members:
                    members.add(v)
                    changed = True
        for L, R in module._oriented:
            if all(t in members for t in R):
                missing = [t for t in L if t not in members]
                if len(missing) == 1:
                    members.add(missing[0])
                    changed = True
    return members


def reference_action_closed_subsets(module):
    nb = module.nonbase()
    syms = module.blueprint.backend.symbols
    return [sub for r in range(len(nb) + 1)
            for sub in itertools.combinations(nb, r)
            if all(module.act(b, m) in {BASE, *sub} for b in syms for m in sub)]


def assert_closures_as_reference(module):
    assert kz._action_closed_subsets(module) == \
        reference_action_closed_subsets(module)
    for r in range(4):
        for sub in itertools.combinations(module.nonbase(), r):
            assert kz.submodule_closure(module, sub) == \
                reference_submodule_closure(module, sub), (module, sub)


class TestClosureAgainstReference:
    def test_universe(self, case):
        _, _, universe = case
        for m in universe:
            assert_closures_as_reference(m)

    @given(wedges())
    @settings(max_examples=60, deadline=None)
    def test_random_wedges(self, module):
        assert_closures_as_reference(module)


# ---------------------------------------------------------------------------
# The constructor on index rows against the dict-based one it replaced


def reference_blue_module(blueprint, carrier, action, relations=()):
    """The dict-based constructor that the rows replaced, with one check
    added where the row constructor makes it (0 sends every element to the
    base point): the action held as a dict (b, m) -> b·m, checked entry by
    entry, associativity by |B|²·|M| lookups, and the induced relations,
    `structure()` and `invariant()` read off the dict. A namespace of the
    carrier, the action on it, the relations, the induced relations, the
    structure and the invariant; BlueprintError as the constructor raises."""
    if BASE not in carrier:
        carrier = (BASE,) + tuple(carrier)
    carrier = (BASE,) + tuple(sorted(x for x in carrier if x != BASE))
    syms = blueprint.backend.symbols
    act = {}
    for m in carrier:
        act[(ZERO, m)] = BASE
        act[(ONE, m)] = m
    for (b, m), v in action.items():
        act[(b, m)] = v
    for b in syms:
        act[(b, BASE)] = BASE
        for m in carrier:
            if (b, m) not in act:
                raise kz.BlueprintError(f"action of {b} on {m} missing")
            if act[(b, m)] not in carrier:
                raise kz.BlueprintError("action leaves the carrier")
    if any(act[(ZERO, m)] != BASE for m in carrier):
        raise kz.BlueprintError("0 does not send every element to the base"
                                " point")
    one = blueprint.backend.one()
    if any(act[(one, m)] != m for m in carrier):
        raise kz.BlueprintError("the unit does not act as the identity")
    for a in syms:
        for b in syms:
            ab = blueprint.backend.mul(a, b)
            for m in carrier:
                if act[(ab, m)] != act[(a, act[(b, m)])]:
                    raise kz.BlueprintError("action is not associative")
    for t in (t for l, r in relations for t in (*l, *r)):
        if t not in carrier:
            raise kz.BlueprintError(f"relation term {t} not in the carrier")

    def norm_rel(l, r):
        nl = tuple(sorted(t for t in l if t != BASE))
        nr = tuple(sorted(t for t in r if t != BASE))
        if nl == nr:
            return None
        return (nl, nr) if nl <= nr else (nr, nl)

    induced = {norm_rel([act[(t, m)] for t in l], [act[(t, m)] for t in r])
               for l, r in blueprint.relations for m in carrier[1:]} - {None}
    rels = induced | {norm_rel(l, r) for l, r in relations} - {None}
    structure = core._structure(
        carrier, [m == BASE for m in carrier],
        [[(m, act[(b, m)]) for m in carrier[1:]]
         for b in syms if b not in (ZERO, one)])
    color = dict(zip(structure.elements, structure.colours)).__getitem__
    sides = [tuple(sorted((tuple(sorted(map(color, l))),
                           tuple(sorted(map(color, r))))))
             for l, r in rels]
    return SimpleNamespace(
        carrier=carrier, action={(b, m): act[(b, m)]
                                 for b in syms for m in carrier},
        relations=tuple(sorted(rels)), induced=induced,
        structure=structure, invariant=(structure.shape,
                                        tuple(sorted(sides))))


def built_or_error(build, *args):
    """(what `build(*args)` returns, None), or (None, the message of the
    BlueprintError it raises)."""
    try:
        return build(*args), None
    except kz.BlueprintError as err:
        return None, str(err)


def assert_module_as_reference(module, reference):
    assert module.carrier == reference.carrier
    assert module.action == reference.action
    assert module.relations == reference.relations
    assert module._induced == reference.induced
    assert module.structure() == reference.structure
    assert module.invariant() == reference.invariant


def assert_built_as_reference(bp, carrier, action, relations=()):
    """The constructor and the reference accept or refuse alike, with the
    same message, and agree on what they build."""
    got, err = built_or_error(kz.BlueModule, bp, carrier, action, relations)
    ref, ref_err = built_or_error(reference_blue_module, bp, carrier, action,
                                  relations)
    assert err == ref_err, (carrier, action, relations)
    if got is not None:
        assert_module_as_reference(got, ref)
    return err


def assert_derived_as_reference(module):
    """A module built from rows (`BlueModule._of_rows`) is the module the
    checked constructor builds from its action and relations."""
    assert_module_as_reference(module, reference_blue_module(
        module.blueprint, module.carrier, module.action, module.relations))


CONSTRUCTOR_BLUEPRINTS = {
    "f1": catalog.f1, "f1n2": lambda: catalog.f1n(2),
    "f1n3": lambda: catalog.f1n(3), "f1n4": lambda: catalog.f1n(4),
    "b1": catalog.b1, "idempotent": catalog.idempotent_example,
    "two_fields23": lambda: catalog.two_fields(2, 3),
}


@functools.cache
def small_modules(name):
    return kz.enumerate_modules(CONSTRUCTOR_BLUEPRINTS[name](), 3)


NAMES = ("a", "b", "c", "d", "e", "f")


@st.composite
def module_inputs(draw):
    """A blueprint and constructor inputs over it: a relabelled small or
    free module on up to six names, or a random map on up to four, with up
    to two entries dropped, sent out of the carrier or redrawn, and up to
    two extra relations."""
    name = draw(st.sampled_from(sorted(CONSTRUCTOR_BLUEPRINTS)))
    bp = CONSTRUCTOR_BLUEPRINTS[name]()
    syms = bp.backend.symbols
    kind = draw(st.sampled_from(["small", "free", "random"]))
    if kind == "random":
        carrier = draw(st.lists(st.sampled_from(NAMES[:4]), unique=True,
                                max_size=4))
        action = {(b, m): draw(st.sampled_from([BASE, *carrier]))
                  for b in syms for m in carrier}
    else:
        module = draw(st.sampled_from(small_modules(name))) \
            if kind == "small" else kz.free_module(bp, 1)
        if len(module) > len(NAMES) + 1:
            module = kz.zero_module(bp)
        new = {BASE: BASE, **dict(zip(module.nonbase(),
                                      draw(st.permutations(NAMES))))}
        carrier = [new[m] for m in module.nonbase()]
        action = {(b, new[m]): new[v] for (b, m), v in module.action.items()}
    for _ in range(draw(st.integers(0, 2)) if carrier else 0):
        key = (draw(st.sampled_from(syms)), draw(st.sampled_from(carrier)))
        how = draw(st.sampled_from(["drop", "outside", "redraw"]))
        if how == "drop":
            action.pop(key, None)
        elif how == "outside":
            action[key] = "outside"
        else:
            action[key] = draw(st.sampled_from([BASE, *carrier]))
    side = st.lists(st.sampled_from([BASE, *carrier]), max_size=2)
    relations = draw(st.lists(st.tuples(side, side), max_size=2))
    return bp, tuple(carrier), action, relations


class TestConstructorAgainstReference:
    def test_zero_must_send_every_element_to_the_base_point(self, f1):
        # 0·x = x was accepted, and the module then read as free
        with pytest.raises(kz.BlueprintError, match="0 does not send"):
            kz.BlueModule(f1, ("x",), {(ZERO, "x"): "x", (ONE, "x"): "x"})
        assert kz.is_free(kz.BlueModule(f1, ("x",), {(ONE, "x"): "x"}))

    def test_carrier_is_a_set(self, f1):
        # a repeated name is one element, as the base point always was
        assert kz.BlueModule(f1, ("x", BASE, "x", BASE), {}).carrier == \
            (BASE, "x")

    @pytest.mark.parametrize("action, message", [
        ({("z1", "x"): "x"}, "action of z2 on x missing"),
        ({("z1", "x"): "y", ("z2", "x"): "x"}, "action leaves the carrier"),
        ({("z1", "x"): "x", ("z2", "x"): "x", (ZERO, "x"): "x"},
         "0 does not send"),
        ({("z1", "x"): "x", ("z2", "x"): "x", (ONE, "x"): BASE},
         "the unit does not act"),
        ({("z1", "x"): BASE, ("z2", "x"): BASE}, "action is not associative"),
    ])
    def test_each_refusal(self, f13, action, message):
        err = assert_built_as_reference(f13, ("x",), action)
        assert err.startswith(message)

    @pytest.mark.parametrize("relations", [
        [(["y"], [])], [([], ["x", "y"])], [(["x"], [BASE]), ([BASE], ["y"])]])
    def test_relation_terms_must_lie_in_the_carrier(self, f1, relations):
        # such a module was built, and its invariant() and module_derive
        # then raised KeyError: 'y'
        err = assert_built_as_reference(f1, ("x",), {(ONE, "x"): "x"},
                                        relations)
        assert err == "relation term y not in the carrier"

    def test_universe(self, case):
        bp, _, universe = case
        for m in universe:
            assert_built_as_reference(bp, m.carrier, m.action, m.relations)
            assert_derived_as_reference(m)

    def test_derived_modules(self, case):
        # principal wedges, wedges, submodules and cokernels are built
        # from rows, unchecked
        bp, _, universe = case
        principal = kz._principal_modules(bp)
        for _, be in principal:
            assert_derived_as_reference(be)
        assert_derived_as_reference(kz._principal_wedge(
            bp, [e for e, _ in principal] * 2))
        for m in universe[:6]:
            assert_derived_as_reference(kz.wedge(m, universe[-1])[0])
            for sub in kz._action_closed_subsets(m):
                part, inc = kz._submodule(m, sub)
                assert_derived_as_reference(part)
                assert_derived_as_reference(kz.cokernel(inc)[0])

    def test_submodule_must_be_closed(self, idem):
        free = kz.free_module(idem, 1)
        assert kz._submodule(free, ["e@0"])[0].carrier == (BASE, "e@0")
        with pytest.raises(kz.BlueprintError,
                           match="action leaves the carrier"):
            kz._submodule(free, ["1@0"])

    @given(module_inputs())
    @settings(max_examples=400, deadline=None)
    def test_random_inputs(self, inputs):
        assert_built_as_reference(*inputs)
