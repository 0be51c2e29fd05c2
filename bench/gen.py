"""Seeded query streams for the four workloads.

Nothing here imports blueforge. Queries are drawn from the models in
`models.py` with one `random.Random(seed)`; every container that is iterated
is sorted first, so a seed gives byte-identical inputs in every process,
whatever its hash seed. A workload is a pool of rounds; each round holds the
same number of queries of each kind, so the mix is the same in every seed
and only the concrete inputs change. The runner cycles through the pool.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

from . import models as M
from . import oracles as O

POOL_ROUNDS = 24

# Explicit budgets (max_degree, max_terms, max_steps), recorded in the
# fingerprint. PROVE is generous enough that every walk of WALK_STEPS
# rewrites is found. Under REFUTE the two-field searches truncate at the
# step bound; the monomial ones exhaust their term-bounded class first.
CATALOG_BUDGET = (4, 8, 600)
PROVE_BUDGET = (6, 8, 20000)
REFUTE_BUDGET = (6, 12, 3000)
CONGRUENCE_BUDGET = (6, 3, 100000)
WALK_STEPS = (1, 2)
WALK_TERMS = 7

WORKLOADS = ("derive_mix", "spectra_catalog", "point_counts",
             "congruence_k0")

MODELS = {
    "sl2": M.sl2(), "sl2_minors": M.sl2_minors(), "gr24": M.gr24(),
    "f1": M.f1(), "f1n2": M.f1n(2), "f1n3": M.f1n(3), "f1n4": M.f1n(4),
    "f1n5": M.f1n(5), "b1": M.b1(), "idempotent": M.idempotent(),
    "roots_sums4": M.roots_sums(4), "roots_sums6": M.roots_sums(6),
    "two_fields23": M.two_fields(2, 3), "product_ring23": M.product_ring(2, 3),
}


# ---------------------------------------------------------------------------
# Rewrite walks over the relation text


def rewrite_successors(model, S, max_terms, max_degree=2):
    """One-step rewrites of a sum: replace a monomial multiple m*L of one
    side of a relation by m*R (or add m*R when L is empty)."""
    cnt = Counter(S)
    out = set()
    for L, R in M.oriented(model):
        if not L:
            for m in model.insert_multipliers():
                add = [x for x in (model.mul(m, r) for r in R)
                       if not model.is_zero(x)]
                v = tuple(sorted(S + tuple(add)))
                if add and len(v) <= max_terms:
                    out.add(v)
            continue
        cands = set()
        for t in sorted(set(S)):
            for l in L:
                cands.update(model.divide(t, l, max_degree))
        for m in sorted(cands):
            mL = Counter(x for x in (model.mul(m, l) for l in L)
                         if not model.is_zero(x))
            if not mL or any(cnt[t] < k for t, k in mL.items()):
                continue
            rest = cnt - mL
            for x in (model.mul(m, r) for r in R):
                if not model.is_zero(x):
                    rest[x] += 1
            v = tuple(sorted(rest.elements()))
            if len(v) <= max_terms:
                out.add(v)
    return sorted(out)


def walk(model, rng):
    """(start, end) of a random rewrite walk; end differs from start."""
    sides = sorted(side for rel in model.relations for side in rel if side)
    while True:
        m = rng.choice(model.elements(1))
        start = [x for x in (model.mul(m, t) for t in rng.choice(sides))
                 if not model.is_zero(x)]
        start += [rng.choice(model.elements(2))
                  for _ in range(rng.randrange(0, 3))]
        if not start or len(start) > WALK_TERMS - 2:
            continue
        S0 = S = tuple(sorted(start))
        for _ in range(rng.randint(*WALK_STEPS)):
            succ = rewrite_successors(model, S, WALK_TERMS)
            if not succ:
                break
            S = rng.choice(succ)
        if S != S0:
            return S0, S


# ---------------------------------------------------------------------------
# Separating morphisms into Z/p and B1


def _witness_pool(model, rng):
    """Every morphism of the model into B1 or a small Z/p, shuffled."""
    pool = []
    if model.kind == "monomial":
        primes = (0, 2, 3) if len(model.gens) > 4 else (0, 2, 3, 5, 7)
        for p in primes:
            for vals in itertools.product(range(p or 2),
                                          repeat=len(model.gens)):
                w = {"p": p, "values": dict(zip(model.gens, vals))}
                if O.is_morphism(model, w):
                    pool.append(w)
    else:
        free = [s for s in model.symbols if s not in (M.ZERO, M.ONE)]
        for p in (0, 2, 3, 5, 7, 13):
            if (p or 2) ** len(free) > 30000:
                continue
            for vals in itertools.product(range(p or 2), repeat=len(free)):
                values = {M.ZERO: 0, M.ONE: 1, **dict(zip(free, vals))}
                w = {"p": p, "values": values}
                if O.is_morphism(model, w):
                    pool.append(w)
    rng.shuffle(pool)
    return pool


def underivable(model, rng, pool):
    """A walk pair with one side perturbed, plus a certificate that the
    perturbed equality is not derivable: a separating morphism from the
    pool, or for the two-field blueprint the mixed-term invariant."""
    while True:
        lhs, rhs = walk(model, rng)
        rhs = list(rhs)
        if model.name.startswith("two_fields"):
            rhs.append(rng.choice([M.ONE, "(1,2)"]))
        elif rng.random() < 0.5 and len(rhs) < WALK_TERMS:
            rhs.append(rng.choice(model.elements(2)))
        elif len(rhs) > 1:
            rhs.pop(rng.randrange(len(rhs)))
        rhs = tuple(sorted(rhs))
        if model.name.startswith("two_fields"):
            if O.mixed_invariant_separates(model, lhs, rhs):
                return lhs, rhs, {"invariant": "mixed_terms"}
            continue
        for w in pool:
            if O.certifies_underivable(model, w, lhs, rhs):
                return lhs, rhs, w


# ---------------------------------------------------------------------------
# Workloads


def _derive_query(name, lhs, rhs, kind, budget, witness=None):
    model = MODELS[name]
    q = {"op": "derive", "kind": kind, "obj": name,
         "lhs": model.sum_text(lhs), "rhs": model.sum_text(rhs),
         "budget": list(budget)}
    if witness is not None:
        q["witness"] = witness
    return q


class Cycles:
    """Seeded rotations: each call with a key returns the next member of
    that key's list, starting at a seeded offset. Cost classes rotate
    instead of being sampled, so every run meets them in the same
    proportions whatever the seed; the seed still picks the offsets and
    every input drawn at random."""

    def __init__(self, rng):
        self.rng, self.state = rng, {}

    def __call__(self, key, items):
        if key not in self.state:
            self.state[key] = [list(items), self.rng.randrange(len(items))]
        members, i = self.state[key]
        self.state[key][1] += 1
        return members[i % len(members)]


def _quotient_classes():
    """Supported variable primes of sl2 and the Gr(2,4) cone, split by
    cost, for quotients and (sl2 only) ranks."""
    heavy_q, light_q, heavy_r, light_r = [], [], [], []
    for name in ("sl2", "gr24"):
        model = MODELS[name]
        for S in O.monomial_primes(model):
            if not O.quotient_supported(model, S):
                continue
            # The properness guard of the quotient is expensive when a kept
            # relation has an empty side: its search may insert it anywhere.
            _, kept, _ = O.pushed_relations(model, S)
            heavy = any(not side for rel in kept for side in rel)
            (heavy_q if heavy else light_q).append((name, sorted(S)))
            if name == "sl2":
                # The rank of the generic point counts all of SL2 over F_q.
                (heavy_r if heavy or not S else light_r).append(sorted(S))
    return heavy_q, light_q, heavy_r, light_r


def derive_mix(rng):
    a_objs = ["sl2", "sl2_minors", "f1n4", "b1", "roots_sums4", "roots_sums6",
              "gr24", "two_fields23"]
    b_objs = ["sl2", "sl2_minors", "gr24", "f1n4", "roots_sums4",
              "two_fields23"]
    pools = {n: _witness_pool(MODELS[n], rng) for n in b_objs
             if not n.startswith("two_fields")}
    heavy_q, light_q, heavy_r, light_r = _quotient_classes()
    minors = dict(zip(MODELS["sl2"].gens, MODELS["sl2_minors"].gens))
    B = list(CATALOG_BUDGET)
    pick = Cycles(rng)
    rounds = []
    for _ in range(POOL_ROUNDS):
        rnd = []
        for name in a_objs:
            for _ in range(12):
                lhs, rhs = walk(MODELS[name], rng)
                rnd.append(_derive_query(name, lhs, rhs, "a", PROVE_BUDGET))
        for name in b_objs:
            for _ in range(2):
                lhs, rhs, w = underivable(MODELS[name], rng, pools.get(name))
                rnd.append(_derive_query(name, lhs, rhs, "b", REFUTE_BUDGET,
                                         w))
        for cls, ranks, quots in (("heavy", heavy_r, heavy_q),
                                  ("light", light_r, light_q)):
            S, name = pick("rank_" + cls, ranks), "sl2"
            if rng.random() < 0.5:
                S, name = sorted(minors[v] for v in S), "sl2_minors"
            rnd.append({"op": "rank_of_point", "kind": "c", "obj": name,
                        "prime": S, "budget": B})
            name, S = pick("quotient_" + cls, quots)
            rnd.append({"op": "quotient_by_ideal", "kind": "c", "obj": name,
                        "prime": S, "budget": B})
        rnd.append({"op": "weyl_extension", "kind": "c",
                    "obj": pick("weyl", ["b1", "roots_sums4"]), "budget": B})
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


FINITE_SPEC = ["f1", "f1n2", "b1", "f1n3", "f1n4", "f1n5", "idempotent",
               "roots_sums4", "roots_sums6", "two_fields23", "product_ring23"]
COXETER = [(f, n) for f in "ABCD" for n in (2, 3, 4) if (f, n) != ("D", 2)]


def spectra_catalog(rng):
    B = list(CATALOG_BUDGET)
    pick = Cycles(rng)
    rounds = []
    for _ in range(POOL_ROUNDS):
        rnd = []
        # Four spectra of A^8 per round are the heaviest block, so the
        # tail percentile falls inside one class.
        for n in [pick("a_small", [2, 3, 4]), pick("a_mid", [5, 6]),
                  pick("a_big", [7, 9])] + [8] * 4:
            rnd.append({"op": "spec_affine", "n": n, "budget": B})
        rnd.append({"op": "spec_torus", "n": pick("torus", [1, 2, 3, 4]),
                    "budget": B})
        # Spectra and Hasse diagrams of sl2 and its minors model: a block of
        # near-equal cost that holds the median of the round.
        for _ in range(6):
            rnd.append({"op": "spec_monomial",
                        "obj": rng.choice(["sl2", "sl2_minors"]), "budget": B})
        for _ in range(4):
            rnd.append({"op": "covers_monomial",
                        "obj": rng.choice(["sl2", "sl2_minors"]), "budget": B})
        for _ in range(3):
            rnd.append({"op": "spec_finite", "obj": pick("finite",
                                                         FINITE_SPEC),
                        "budget": B})
        for key, ns in (("p_small", [1, 2, 3]), ("p_big", [4, 5, 6])):
            rnd.append({"op": "proj_space", "n": pick(key, ns), "budget": B})
        rnd.append({"op": "proj_gr24", "budget": B})
        rnd.append({"op": "covers_affine", "n": pick("c_aff", range(3, 8)),
                    "budget": B})
        rnd.append({"op": "covers_proj", "n": pick("c_proj", range(2, 6)),
                    "budget": B})
        rnd.append({"op": "tilde_complex", "n": pick("tilde", [2, 3, 4]),
                    "budget": B})
        fam, n = pick("coxeter", COXETER)
        rnd.append({"op": "coxeter_complex", "family": fam, "n": n})
        n, q = pick("building", [(1, 2), (1, 3), (2, 2), (2, 3)])
        rnd.append({"op": "building", "n": n, "q": q})
        n, q = pick("apartment", [(1, 2), (1, 3), (2, 2)])
        rnd.append({"op": "apartment", "n": n, "q": q})
        n = pick("cli_spec", range(2, 7))
        rnd.append({"op": "cli", "argv": ["spec", f"catalog:A{n}", "--json"],
                    "check": {"spec_json_affine": n}})
        rnd.append({"op": "cli", "argv": ["proj", "catalog:gr:2,4", "--dot"],
                    "check": {"dot_gr24": True}})
        n = pick("cli_hasse", range(2, 7))
        rnd.append({"op": "cli", "argv": ["hasse", f"A{n}"],
                    "check": {"dot_affine": n}})
        n = pick("cli_coxeter", [2, 3, 4])
        rnd.append({"op": "cli", "argv": ["coxeter", "A", str(n), "--json"],
                    "check": {"facets": O.coxeter_order("A", n)}})
        n, q = pick("cli_building", [(1, 2), (1, 3), (2, 2)])
        rnd.append({"op": "cli", "argv": ["building", str(n), str(q),
                                          "--json"],
                    "check": {"facets": O.q_factorial(n + 1, q)}})
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def random_tree(rng, line_count=False):
    """A tree quiver with identity matrices on F^d at every vertex and a
    dimension vector e whose degree bound sum e(d-e) stays at most 5, so the
    seven supported q suffice for interpolation. With line_count: three
    vertices, d = 2 and e = (1, 1, 1), a family whose cost hardly varies."""
    while True:
        nv = 3 if line_count else rng.randint(2, 4)
        d = 2 if line_count or nv > 2 else rng.randint(2, 3)
        arrows = []
        for child in range(1, nv):
            parent = rng.randrange(child)
            arrows.append([parent, child] if rng.random() < 0.5
                          else [child, parent])
        e = [1] * nv if line_count else [rng.randint(0, d) for _ in range(nv)]
        if 1 <= sum(x * (d - x) for x in e) <= 5:
            return {"d": d, "e": e, "arrows": arrows}


def point_counts(rng):
    """Per round: 28 Euler characteristics of three-vertex tree quivers, a
    family of near-equal cost that holds the median, between 16 cheaper
    queries and 14 heavier F_q counts and counting polynomials."""
    pick = Cycles(rng)
    rounds = []
    for _ in range(POOL_ROUNDS):
        rnd = [{"op": "counting_polynomial", "obj": "gr24", "deg": 4}]
        for _ in range(2):
            rnd.append({"op": "counting_polynomial",
                        "obj": rng.choice(["sl2", "sl2_minors"]), "deg": 3})
        n = pick("poly_affine", [3, 4])
        rnd.append({"op": "counting_polynomial", "obj": "affine", "n": n,
                    "deg": n})
        rnd.append({"op": "fq_points", "obj": "gr24_cone",
                    "q": pick("cone", [3, 4])})
        for _ in range(6):
            rnd.append({"op": "fq_points",
                        "obj": rng.choice(["sl2", "sl2_minors"]),
                        "q": pick("sl2_q", [5, 7, 8, 9])})
        rnd.append({"op": "fq_points", "obj": "affine", "n": 4,
                    "q": pick("aff_q", [8, 9])})
        rnd.append({"op": "fq_points_of_scheme", "n": 4,
                    "q": pick("proj_q", [8, 9])})
        rnd.append({"op": "cli", "argv": ["polyfit", "sl2", "--deg", "3",
                                          "--json"],
                    "check": {"coefficients": list(O.poly_coeffs("sl2"))}})
        for k in range(28):
            tree = random_tree(rng, line_count=True)
            rnd.append({"op": "qgrass_chi", "tree": tree})
        for _ in range(4):
            tree = random_tree(rng)
            rnd.append({"op": "qgrass_naive", "tree": tree})
            rnd.append({"op": "qgrass_weyl", "tree": tree})
        for _ in range(2):
            n = pick("poly_torus", [1, 2, 3])
            rnd.append({"op": "counting_polynomial", "obj": "torus", "n": n,
                        "deg": n})
            obj, n = pick("zeta", [("affine", 1), ("affine", 2),
                                   ("affine", 3), ("torus", 1), ("torus", 2),
                                   ("f1", 0)])
            rnd.append({"op": "soule_zeta", "obj": obj, "n": n, "deg": n})
            rnd.append({"op": "cli_qgrass_count", "tree": random_tree(rng),
                        "qs": [2, 3]})
        n = pick("cli_count", [1, 2, 3, 4])
        rnd.append({"op": "cli", "argv": ["count", f"P{n}", "--q", "2,3,5",
                                          "--json"],
                    "check": {"counts": {str(q): O.projective_points(n, q)
                                         for q in (2, 3, 5)}}})
        n = pick("cli_zeta", [1, 2, 3])
        rnd.append({"op": "cli", "argv": ["zeta", f"catalog:A{n}", "--json"],
                    "check": {"factors": [[n, 1]]}})
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def _free_desc(model, k, rng=None):
    """The free module on k generators (wedge of k copies of the carrier),
    its non-base elements renamed at random when rng is given."""
    nz = model.nonzero()
    carrier = [f"{a}@{i}" for i in range(k) for a in nz]
    names = {c: c for c in carrier}
    if rng is not None:
        fresh = [f"m{j}" for j in range(len(carrier))]
        rng.shuffle(fresh)
        names = dict(zip(carrier, fresh))
    action = []
    for i in range(k):
        for a in nz:
            for b in nz:
                p = model.mul(b, a)
                action.append([b, names[f"{a}@{i}"],
                               "*" if p == M.ZERO else names[f"{p}@{i}"]])
    return {"carrier": sorted(names.values()), "action": action}


def _fixed_desc(model, k):
    """k points fixed by every unit (not projective over a group with
    zero, whose free modules have only regular orbits)."""
    carrier = [f"t{i}" for i in range(k)]
    action = [[b, t, t] for t in carrier for b in model.nonzero()]
    return {"carrier": carrier, "action": action}


def congruence_k0(rng):
    cheap = ["f1", "f1n2", "b1", "f1n3", "idempotent"]
    # product_ring23 is left out: the library's congruence search ignores
    # its addition table (see README.md, "Known defects").
    heavy = ["f1n4", "f1n5", "roots_sums4"]
    k0s = [("f1", 6), ("f1", 7), ("f1n2", 5), ("f1n2", 6), ("f1n3", 5),
           ("f1n3", 6), ("f1n4", 5)]
    B = list(CONGRUENCE_BUDGET)
    pick = Cycles(rng)
    rounds = []
    for _ in range(POOL_ROUNDS):
        rnd = []
        for key, names in (("cheap", cheap), ("cheap", cheap),
                           ("heavy", heavy)):
            rnd.append({"op": "cspec", "obj": pick(key, names), "budget": B})
        rnd.append({"op": "cspec_to_spec",
                    "obj": pick("to_spec", cheap + ["f1n4"]), "budget": B})
        name, bound = pick("k0", k0s)
        rnd.append({"op": "k0", "obj": name, "bound": bound})
        # The heaviest block, two congruence spectra of the two-field
        # blueprint, holds the tail percentile.
        for _ in range(2):
            rnd.append({"op": "cspec", "obj": "two_fields23", "budget": B})
        for _ in range(2):
            name = rng.choice(["f1", "f1n2", "f1n3", "f1n4"])
            k = rng.randint(1, 3)
            rnd.append({"op": "module_free", "obj": name, "k": k,
                        "module": _free_desc(MODELS[name], k, rng)})
        # Rank-2 free modules over F1^4, renamed at random: a family of
        # near-equal cost that holds the median of the round.
        for _ in range(10):
            rnd.append({"op": "module_free", "obj": "f1n4", "k": 2,
                        "module": _free_desc(MODELS["f1n4"], 2, rng)})
        name = rng.choice(["f1n2", "f1n3", "f1n4"])
        rnd.append({"op": "module_fixed", "obj": name,
                    "module": _fixed_desc(MODELS[name], rng.randint(1, 2))})
        rnd.append({"op": "module_be", "obj": "idempotent"})
        name = rng.choice(["f1", "f1n2", "f1n3", "idempotent"])
        k = rng.randint(1, 3)
        rnd.append({"op": "modules_isomorphic", "obj": name, "k": k,
                    "module": _free_desc(MODELS[name], k, rng)})
        ref, count = pick("cli_cspec", [("f1", 1), ("f12", 2), ("b1", 1),
                                        ("idempotent", 2)])
        rnd.append({"op": "cli", "argv": ["cspec", ref, "--json"],
                    "check": {"points": count}})
        rnd.append({"op": "cli", "argv": ["k0", pick("cli_k0", ["f1", "f12"]),
                                          "--bound", "5", "--json"],
                    "check": {"k0_infinite_cyclic": True}})
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def make_inputs(workload, seed):
    """The rounds of a workload for a seed, as canonical JSON text."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = globals()[workload](rng)
    return json.dumps(rounds, sort_keys=True, separators=(",", ":"))
