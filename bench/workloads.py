"""Turns generated queries into calls on blueforge's public entry points and
checks every answer against the oracles.

`build_catalog` is what a user pays once per object (construction runs the
properness guard); the benchmark times it as set-up. `Runner.prepare`
converts a query's text inputs into library objects and returns the call to
time; `Runner.check` compares the answer with an oracle that does not use
the code under test and says whether the answer is definite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from blueforge import (catalog, cli, complexes, congruence, core, counting,
                       kzero, quivergrass, schemes, spectra)
from blueforge.budget import Budget

from . import gen
from . import models as M
from . import oracles as O

CB = Budget(*gen.CATALOG_BUDGET)


def build_catalog(workload):
    """Every catalog object the workload queries, keyed by the names the
    generator uses."""
    objs = {}

    def finite(names):
        table = {"f1": catalog.f1, "f1n2": lambda: catalog.f1n(2),
                 "f1n3": lambda: catalog.f1n(3), "f1n4": lambda: catalog.f1n(4),
                 "f1n5": lambda: catalog.f1n(5), "b1": catalog.b1,
                 "idempotent": catalog.idempotent_example,
                 "roots_sums4": lambda: catalog.roots_of_unity_sums(4),
                 "roots_sums6": lambda: catalog.roots_of_unity_sums(6),
                 "two_fields23": lambda: catalog.two_fields(2, 3),
                 "product_ring23": lambda: catalog.product_ring(2, 3)}
        for n in names:
            objs[n] = table[n]()

    if workload in ("derive_mix", "spectra_catalog", "point_counts"):
        objs["sl2"] = catalog.sl2_f1(CB)
        objs["sl2_minors"] = catalog.sl2_minors(CB)
        objs["gr24_graded"] = catalog.grassmannian_f1(2, 4, CB)
        objs["gr24"] = objs["gr24_graded"].blueprint
    if workload == "derive_mix":
        finite(["f1n4", "b1", "roots_sums4", "roots_sums6", "two_fields23"])
    if workload == "spectra_catalog":
        finite(gen.FINITE_SPEC)
        for n in range(2, 10):
            objs[f"A{n}"] = catalog.affine_space(n, CB)
        for n in range(1, 5):
            objs[f"Gm{n}"] = catalog.torus(n, CB)
        for n in range(1, 7):
            objs[f"P{n}"] = catalog.proj_cone(n, CB)
    if workload == "point_counts":
        finite(["f1"])
        for n in range(1, 5):
            objs[f"A{n}"] = catalog.affine_space(n, CB)
            objs[f"Pscheme{n}"] = catalog.proj_space(n, CB)
        for n in range(1, 4):
            objs[f"Gm{n}"] = catalog.torus(n, CB)
    if workload == "congruence_k0":
        finite(["f1", "f1n2", "f1n3", "f1n4", "f1n5", "b1", "idempotent",
                "roots_sums4", "two_fields23"])
    return objs


def _model_of(key):
    if key in gen.MODELS:
        return gen.MODELS[key]
    if key[0] == "A":
        return M.affine(int(key[1:]))
    if key[0] == "P" and key[1:].isdigit():
        return M.proj_cone(int(key[1:]))
    return None


def check_models(objs):
    """Names of catalog objects whose relations or table disagree with the
    benchmark's model of them."""
    bad = []
    for key, obj in sorted(objs.items()):
        model, bp = _model_of(key), getattr(obj, "blueprint", obj)
        if model is None or not isinstance(bp, core.Blueprint):
            continue
        if model.kind == "finite":
            same = set(bp.backend.symbols) == set(model.symbols) and all(
                bp.backend.mul(a, b) == model.mul(a, b)
                for a in model.symbols for b in model.symbols)
        else:
            same = bp.backend.gens == model.gens
        want = set()
        for l, r in model.relations:
            nl = bp.sum_of(model.sum_text(l))
            nr = bp.sum_of(model.sum_text(r))
            want.add((nl, nr) if nl <= nr else (nr, nl))
        if not same or want != set(bp.relations):
            bad.append(key)
    return bad


def _sum(model, text):
    return tuple(sorted(model.parse(t) for t in text.split(" + "))) \
        if text != M.ZERO else ()


def _varsets(space):
    return [frozenset(p.generator_names()) for p in space.points]


def _rep(tree):
    d, arrows = tree["d"], tree["arrows"]
    quiver = quivergrass.Quiver(len(tree["e"]), tuple(map(tuple, arrows)))
    return quivergrass.IntegralRep(quiver, (d,) * len(tree["e"]),
                                   [np.eye(d, dtype=int) for _ in arrows])


def _module(bp, desc):
    action = {(b, m): v for b, m, v in desc["action"]}
    return kzero.BlueModule(bp, tuple(desc["carrier"]), action)


def _desc_dict(desc):
    return {"carrier": ["*"] + desc["carrier"],
            "action": {**{(b, m): v for b, m, v in desc["action"]},
                       **{(b, "*"): "*" for b, _, _ in desc["action"]}}}


class Runner:
    """Executes queries of one workload against built catalog objects."""

    def __init__(self, objs, scratch_dir):
        self.objs = objs
        self.scratch_dir = scratch_dir
        self._cache = {}

    def _oracle(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- preparation (untimed) ---------------------------------------------
    def prepare(self, q, qid):
        """A zero-argument callable performing the query's library calls."""
        op, o = q["op"], self.objs
        B = Budget(*q["budget"]) if "budget" in q else None
        if op == "derive":
            bp = o[q["obj"]]
            lhs, rhs = bp.sum_of(q["lhs"]), bp.sum_of(q["rhs"])
            return lambda: core.derive(bp, lhs, rhs, B)
        if op == "rank_of_point":
            bp = o[q["obj"]]

            def run():
                X = spectra.spec(bp, B)
                i = _varsets(X).index(frozenset(q["prime"]))
                return spectra.rank_of_point(X, i, B)
            return run
        if op == "quotient_by_ideal":
            bp = o[q["obj"]]
            gens = [bp.backend.gen_element(v) for v in q["prime"]]

            def run():
                ideal = core.additive_closure(bp, gens, B)
                return ideal, core.quotient_by_ideal(bp, ideal, B)
            return run
        if op == "weyl_extension":
            bp = o[q["obj"]]
            return lambda: spectra.weyl_extension(spectra.spec(bp, B), B)
        if op == "spec_affine":
            bp = o[f"A{q['n']}"]
            return lambda: spectra.spec(bp, B)
        if op == "spec_torus":
            bp = o[f"Gm{q['n']}"]
            return lambda: spectra.spec(bp, B)
        if op == "spec_monomial":
            bp = o[q["obj"]]

            def run():
                X = spectra.spec(bp, B)
                return X, X.closed_points()
            return run
        if op == "spec_finite":
            bp = o[q["obj"]]
            return lambda: spectra.spec(bp, B)
        if op == "proj_space":
            g = o[f"P{q['n']}"]
            return lambda: schemes.proj(g, B)
        if op == "proj_gr24":
            g = o["gr24_graded"]
            return lambda: schemes.proj(g, B)
        if op in ("covers_affine", "covers_proj", "covers_monomial"):
            if op == "covers_affine":
                bp, fn = o[f"A{q['n']}"], spectra.spec
            elif op == "covers_proj":
                bp, fn = o[f"P{q['n']}"], schemes.proj
            else:
                bp, fn = o[q["obj"]], spectra.spec

            def run():
                X = fn(bp, B)
                return X, X.covers()
            return run
        if op == "tilde_complex":
            g = o[f"P{q['n']}"]

            def run():
                po = complexes.poset_of_space(schemes.proj(g, B))
                t = complexes.tilde_complex(
                    po.restricted([e for e in po.elements if e != "(0)"]))
                return len(t.chambers())
            return run
        if op == "coxeter_complex":
            def run():
                cx, _ = complexes.coxeter_complex(q["family"], q["n"])
                return len(cx.chambers()), cx.is_thin()
            return run
        if op == "building":
            def run():
                b = complexes.building_type_a(q["n"], q["q"])
                return (len(b.chambers()),
                        set(b.panel_chamber_counts().values()))
            return run
        if op == "apartment":
            def run():
                b = complexes.building_type_a(q["n"], q["q"])
                ap = complexes.coordinate_apartment(b, q["n"], q["q"])
                an, _ = complexes.coxeter_complex("A", q["n"])
                return ap, an, complexes.is_isomorphic_typed(ap, an)
            return run
        if op == "counting_polynomial":
            target = self._count_target(q)
            return lambda: counting.counting_polynomial(target, q["deg"])
        if op == "soule_zeta":
            target = self._count_target(q)
            return lambda: counting.soule_zeta(
                counting.counting_polynomial(target, q["deg"]))
        if op == "fq_points":
            target = self._count_target(q)
            return lambda: counting.fq_points(target, q["q"])
        if op == "fq_points_of_scheme":
            ps = o[f"Pscheme{q['n']}"]
            return lambda: schemes.fq_points_of_scheme(ps, q["q"])
        if op in ("qgrass_chi", "qgrass_naive", "qgrass_weyl"):
            rep, e = _rep(q["tree"]), tuple(q["tree"]["e"])
            fn = {"qgrass_chi": quivergrass.chi_via_interpolation,
                  "qgrass_naive": lambda r, x: len(
                      quivergrass.naive_f1_points(r, x)),
                  "qgrass_weyl": quivergrass.weyl_count_diagonal_tree}[op]
            return lambda: fn(rep, e)
        if op == "cspec":
            bp = o[q["obj"]]
            return lambda: congruence.cspec(bp, B)
        if op == "cspec_to_spec":
            bp = o[q["obj"]]
            return lambda: congruence.cspec_to_spec(bp, B)
        if op == "k0":
            bp = o[q["obj"]]
            return lambda: kzero.k0(bp, q["bound"])
        if op in ("module_free", "module_fixed"):
            bp = o[q["obj"]]

            def run():
                m = _module(bp, q["module"])
                return kzero.is_free(m), kzero.is_projective(m)
            return run
        if op == "module_be":
            bp = o["idempotent"]

            def run():
                m = kzero.BlueModule(bp, ("x",), {("e", "x"): "x"})
                return kzero.is_free(m), kzero.is_projective(m)
            return run
        if op == "modules_isomorphic":
            bp = o[q["obj"]]
            return lambda: kzero.modules_isomorphic(
                _module(bp, q["module"]), kzero.free_module(bp, q["k"]))
        if op == "cli":
            return lambda: _cli(q["argv"])
        if op == "cli_qgrass_count":
            path = os.path.join(self.scratch_dir, f"qgrass-{qid}.json")
            tree = q["tree"]
            rep_json = {"vertices": len(tree["e"]), "arrows": tree["arrows"],
                        "dims": [tree["d"]] * len(tree["e"]),
                        "matrices": [np.eye(tree["d"], dtype=int).tolist()
                                     for _ in tree["arrows"]],
                        "e": tree["e"]}
            with open(path, "w") as fh:
                json.dump(rep_json, fh)
            argv = ["qgrass", "count", path, "--q",
                    ",".join(map(str, q["qs"])), "--json"]
            return lambda: _cli(argv)
        raise ValueError(f"unknown op {op!r}")

    def _count_target(self, q):
        obj = q["obj"]
        if obj in ("affine", "torus"):
            return self.objs[("A" if obj == "affine" else "Gm") + str(q["n"])]
        if obj == "gr24":
            return self.objs["gr24_graded"]
        if obj == "gr24_cone":
            return self.objs["gr24"]
        return self.objs[obj]

    # -- checking (untimed) --------------------------------------------------
    def check(self, q, ans):
        """(agrees with the oracle, answer is definite)."""
        return getattr(self, "_check_" + q["op"])(q, ans)

    def _check_derive(self, q, ans):
        model = gen.MODELS[q["obj"]]
        if q["kind"] == "a":
            return ans == core.PROVED, ans == core.PROVED
        lhs, rhs = _sum(model, q["lhs"]), _sum(model, q["rhs"])
        w = q["witness"]
        if w.get("invariant") == "mixed_terms":
            cert = O.mixed_invariant_separates(model, lhs, rhs)
        else:
            cert = O.certifies_underivable(model, w, lhs, rhs)
        return cert and ans != core.PROVED, ans == core.PROVED

    def _check_rank_of_point(self, q, ans):
        return ans == 3 - len(q["prime"]), True

    def _check_quotient_by_ideal(self, q, ans):
        ideal, Q = ans
        model = gen.MODELS[q["obj"]]
        names, kept, lattice = O.pushed_relations(model, set(q["prime"]))
        got = {tuple(sorted((O.parse_rendered_sum(names, Q.render_sum(l)),
                             O.parse_rendered_sum(names, Q.render_sum(r)))))
               for l, r in Q.relations}
        ok = (Q.backend.gens == names and got == kept
              and sorted(O.canonical(v) for v, _ in Q.backend.lattice)
              == lattice
              and set(Q.killed_generators) == set(q["prime"]))
        return ok, ideal.saturated == "exact"

    def _check_weyl_extension(self, q, ans):
        return len(ans) == 1 and ans.min_rank == 0, True

    def _check_spec_affine(self, q, ans):
        n = q["n"]
        sets = _varsets(ans)
        ok = len(sets) == 2 ** n and len(set(sets)) == 2 ** n and \
            all(len(s) <= n for s in sets)
        return ok, ans.complete

    def _check_spec_torus(self, q, ans):
        return len(ans) == 1 and _varsets(ans) == [frozenset()], ans.complete

    def _check_spec_monomial(self, q, ans):
        X, closed = ans
        primes = O.monomial_primes(gen.MODELS[q["obj"]])
        sets = _varsets(X)
        ok = (sorted(map(sorted, sets)) == sorted(map(sorted, primes))
              and len(sets) == 7
              and {sets[i] for i in closed} == set(O.closed_sets(primes))
              and len(closed) == 2)
        return ok, X.complete

    def _check_spec_finite(self, q, ans):
        want = set(self._oracle(("tp", q["obj"]), lambda: O.table_primes(
            gen.MODELS[q["obj"]])))
        got = [frozenset(p.ideal.minimal) for p in ans.points]
        return set(got) == want and len(got) == len(want), ans.complete

    def _proj_primes(self, n):
        model = M.gr24() if n == "gr24" else M.proj_cone(n)
        return self._oracle(("pp", n), lambda: O.monomial_primes(
            model, projective=True))

    def _check_proj_space(self, q, ans):
        n = q["n"]
        sets = _varsets(ans)
        ok = len(sets) == 2 ** (n + 1) - 1 and \
            set(sets) == set(self._proj_primes(n))
        return ok, ans.complete

    def _check_proj_gr24(self, q, ans):
        sets = _varsets(ans)
        want = self._proj_primes("gr24")
        return len(sets) == len(want) and set(sets) == set(want), ans.complete

    def _covers_ok(self, X, edges, count):
        sets = _varsets(X)
        return len(edges) == count and all(
            sets[i] < sets[j] and len(sets[j]) == len(sets[i]) + 1
            for i, j in edges)

    def _check_covers_affine(self, q, ans):
        n = q["n"]
        return self._covers_ok(*ans, n * 2 ** (n - 1)), ans[0].complete

    def _check_covers_proj(self, q, ans):
        n = q["n"]
        return self._covers_ok(*ans, (n + 1) * (2 ** n - 1)), ans[0].complete

    def _check_covers_monomial(self, q, ans):
        X, edges = ans
        sets = _varsets(X)
        want = O.hasse_edges(O.monomial_primes(gen.MODELS[q["obj"]]))
        got = {(sets[i], sets[j]) for i, j in edges}
        return got == set(want) and len(edges) == len(want), X.complete

    def _check_tilde_complex(self, q, ans):
        return ans == math.factorial(q["n"] + 1), True

    def _check_coxeter_complex(self, q, ans):
        return ans == (O.coxeter_order(q["family"], q["n"]), True), True

    def _check_building(self, q, ans):
        return ans == (O.q_factorial(q["n"] + 1, q["q"]), {q["q"] + 1}), True

    def _check_apartment(self, q, ans):
        ap, an, iso = ans
        if iso is None:
            return False, True
        vm = iso["vertex_map"]
        image = {frozenset(vm[v] for v in f) for f in ap.facets}
        return image == set(an.facets) and \
            len(an.chambers()) == O.coxeter_order("A", q["n"]), True

    def _check_counting_polynomial(self, q, ans):
        want = O.poly_coeffs(q["obj"], q.get("n"))
        return ans is not None and tuple(ans.coeffs) == want, ans is not None

    def _check_soule_zeta(self, q, ans):
        want = O.zeta_pairs(O.poly_coeffs(q["obj"], q.get("n")))
        return ans.as_pairs() == want, True

    def _check_fq_points(self, q, ans):
        obj, qq = q["obj"], q["q"]
        if obj == "gr24_cone":
            want = O.gr24_cone_points(qq)
        elif obj == "affine":
            want = qq ** q["n"]
        else:
            want = O.poly_value(O.poly_coeffs(obj), qq)
        return ans == want, True

    def _check_fq_points_of_scheme(self, q, ans):
        return ans == O.projective_points(q["n"], q["q"]), True

    def _check_qgrass(self, q, ans):
        return ans == O.tree_subrep_count(q["tree"], 1), True

    _check_qgrass_chi = _check_qgrass_naive = _check_qgrass_weyl = \
        _check_qgrass

    def _check_cspec(self, q, ans):
        model = gen.MODELS[q["obj"]]
        want = set(self._oracle(("tp", q["obj"]),
                                lambda: O.table_primes(model)))
        absorbing = {frozenset(c.block(M.ZERO)) for c in ans.points}
        ok = absorbing == want and all(
            O.congruence_is_prime(model, c.partition) for c in ans.points)
        return ok, ans.complete

    def _check_cspec_to_spec(self, q, ans):
        C, X, mapping = ans
        model = gen.MODELS[q["obj"]]
        want = set(self._oracle(("tp", q["obj"]),
                                lambda: O.table_primes(model)))
        xs = [frozenset(p.ideal.minimal) for p in X.points]
        ok = set(xs) == want and len(xs) == len(want) and \
            set(mapping.values()) == set(range(len(xs))) and all(
                frozenset(C.points[i].block(M.ZERO)) == xs[j]
                for i, j in mapping.items())
        return ok, C.complete and X.complete

    def _check_k0(self, q, ans):
        return ans.rank == 1 and not ans.torsion, True

    def _check_module_free(self, q, ans):
        return ans == (True, True), True

    def _check_module_fixed(self, q, ans):
        model = gen.MODELS[q["obj"]]
        orbits = O.orbit_profile(_desc_dict(q["module"]), model)
        regular = len(model.units())
        return min(orbits) < regular and ans == (False, False), True

    def _check_module_be(self, q, ans):
        return ans == (False, True), True

    def _check_modules_isomorphic(self, q, ans):
        model = gen.MODELS[q["obj"]]
        if ans is None:
            return False, True
        ok = O.module_isomorphism_ok(_desc_dict(q["module"]),
                                     _desc_dict(gen._free_desc(model, q["k"])),
                                     ans)
        return ok, True

    def _check_cli(self, q, ans):
        code, out = ans
        if code != 0:
            return False, True
        (kind, want), = q["check"].items()
        if kind == "spec_json_affine":
            data = json.loads(out)
            n = want
            return (len(data["points"]) == 2 ** n and
                    len(data["specialization"]) == 3 ** n - 2 ** n), True
        if kind in ("dot_gr24", "dot_affine"):
            lines = [ln.strip() for ln in out.splitlines()]
            edges = [ln for ln in lines if "->" in ln]
            nodes = [ln for ln in lines if ln.startswith('"')
                     and "->" not in ln]
            if kind == "dot_affine":
                return (len(nodes) == 2 ** want and
                        len(edges) == want * 2 ** (want - 1)), True
            primes = self._proj_primes("gr24")
            hasse = self._oracle(("hasse", "gr24"),
                                 lambda: O.hasse_edges(primes))
            return len(nodes) == len(primes) and \
                len(edges) == len(hasse), True
        data = json.loads(out)
        if kind == "facets":
            return len(data["facets"]) == want, True
        if kind == "points":
            return len(data["points"]) == want, True
        if kind == "k0_infinite_cyclic":
            return data["rank"] == 1 and data["torsion"] == [], True
        return data[kind] == want, True

    def _check_cli_qgrass_count(self, q, ans):
        code, out = ans
        if code != 0:
            return False, True
        want = {str(qq): O.tree_subrep_count(q["tree"], qq) for qq in q["qs"]}
        return json.loads(out)["counts"] == want, True


def _cli(argv):
    """In-process `blueforge` command; stdout captured. No --budget is
    ever passed: cli.main writes BLUEFORGE_BUDGET into os.environ when it
    gets one, and every later Blueprint would inherit it. The environment
    is restored after the call all the same."""
    saved = dict(os.environ)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if os.environ != saved:
            os.environ.clear()
            os.environ.update(saved)
    return code, out.getvalue()
