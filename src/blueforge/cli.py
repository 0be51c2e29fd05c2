"""Command-line front end.

Verbs: catalog, spec, proj, hasse, count, polyfit, zeta, complex, coxeter,
orbit, building, qgrass, arith, cspec, k0. Outputs are deterministic;
--json selects machine output and --dot Hasse diagrams in DOT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import arithcurve, catalog, complexes, congruence, counting, jsonio, kzero
from .budget import Budget
from .core import Blueprint, BlueprintError
from .order import _bits
from .schemes import BlueScheme, GradedBlueprint, proj
from .spectra import spec


def _load_ref(ref, budget):
    """A catalog reference (catalog:name[:params] or a known name) or a
    blueprint JSON file path. A file's blueprints get `budget`, the one
    place a --budget is read; catalog objects keep the default."""
    if os.path.exists(ref):
        with open(ref) as fh:
            return jsonio.blueprint_from_json(json.load(fh), budget)
    return catalog.build(ref)


def _space_of(obj):
    if isinstance(obj, BlueScheme) and obj.graded_model is None:
        return obj.point_space()
    if isinstance(obj, (BlueScheme, GradedBlueprint)):
        return proj(obj)
    return spec(obj)


def _dot_of_space(space):
    lines = ["digraph spec {", "  rankdir=BT;"]
    labels = space.labels()
    for lbl in labels:
        lines.append(f'  "{lbl}";')
    for i, j in space.covers():
        lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines)


def _emit(args, payload_json, payload_text):
    if getattr(args, "json", False):
        print(jsonio.dumps(payload_json))
    else:
        print(payload_text)
    return 0


def _cmd_catalog(args):
    if args.action == "list":
        for name in catalog.names():
            print(f"{name:<12} {catalog.CATALOG[name].doc}")
        return 0
    obj = catalog.build(args.name)
    if isinstance(obj, GradedBlueprint):
        obj = obj.blueprint
    if isinstance(obj, BlueScheme):
        print(jsonio.dumps(jsonio.scheme_to_json(obj)))
        return 0
    print(jsonio.blueprint_dumps(obj))
    return 0


def _cmd_spec(args):
    obj = _load_ref(args.ref, args.budget)
    if isinstance(obj, (BlueScheme, GradedBlueprint)):
        raise BlueprintError("spec expects an affine blueprint; use proj")
    return _space_output(args, spec(obj))


def _cmd_proj(args):
    return _space_output(args, proj(_load_ref(args.ref, args.budget)))


def _space_output(args, space):
    if getattr(args, "dot", False):
        print(_dot_of_space(space))
    elif getattr(args, "json", False):
        print(jsonio.dumps({
            "points": [{"generators": list(p.generator_names())}
                       for p in space.points],
            "specialization": [[i, j] for i, m in enumerate(space._up)
                               for j in _bits(m & ~(1 << i))]}))
    else:
        print(f"{len(space)} points\n" + "\n".join(
            f"{i}: {lbl}" for i, lbl in enumerate(space.labels())))
    return 0


def _cmd_hasse(args):
    space = _space_of(_load_ref(args.ref, args.budget))
    print(_dot_of_space(space))
    return 0


def _cmd_count(args):
    obj = _load_ref(args.ref, args.budget)
    qs = [int(x) for x in args.q.split(",")] if args.q else [2, 3, 5]
    counts = {q: counting.fq_points(obj, q) for q in qs}
    text = "\n".join(f"q={q}: {counts[q]}" for q in qs)
    return _emit(args, {"counts": {str(q): counts[q] for q in qs}}, text)


def _fit(args):
    obj = _load_ref(args.ref, args.budget)
    poly = counting.counting_polynomial(obj, args.deg)
    if poly is None:
        raise BlueprintError("point counts are not polynomial in q")
    return poly


def _cmd_polyfit(args):
    poly = _fit(args)
    return _emit(args, {"coefficients": list(poly.coeffs),
                        "rendered": poly.render()}, poly.render())


def _cmd_zeta(args):
    poly = _fit(args)
    z = counting.soule_zeta(poly)
    return _emit(args, {"factors": z.as_pairs(), "rendered": z.render()},
                 z.render())


def _cmd_complex(args):
    space = _space_of(_load_ref(args.ref, args.budget))
    po = complexes.poset_of_space(space)
    keep = po.elements
    if args.drop_generic:
        bottom = set(po.minimal())
        keep = [e for e in po.elements if e not in bottom]
        po = po.restricted(keep)
    cx = complexes.tilde_complex(po)
    return _complex_output(args, cx)


def _complex_output(args, cx):
    if getattr(args, "dot", False):
        lines = ["graph complex {"]
        for f in cx.facets:
            vs = sorted(str(v) for v in f)
            for a in range(len(vs)):
                for b in range(a + 1, len(vs)):
                    lines.append(f'  "{vs[a]}" -- "{vs[b]}";')
        lines.append("}")
        print("\n".join(lines))
        return 0
    lines = cx.facet_lines()
    data = {"facets": lines, "f_vector": list(cx.f_vector())}
    return _emit(args, data, "\n".join(lines))


def _cmd_coxeter(args):
    cx, _action = complexes.coxeter_complex(args.family.upper(), args.rank)
    return _complex_output(args, cx)


def _cmd_orbit(args):
    seed = None
    if args.plain:
        seed = [frozenset(range(1, k + 1)) for k in range(1, args.rank + 1)]
    cx, _action = complexes.weyl_orbit_complex(args.family.upper(), args.rank,
                                               seed)
    return _complex_output(args, cx)


def _cmd_building(args):
    cx = complexes.building_type_a(args.rank, args.q)
    cx = _relabel_building(cx)
    return _complex_output(args, cx)


def _relabel_building(cx):
    names = {v: f"d{v[0]}#" + ";".join(",".join(map(str, row))
                                       for row in v[1])
             for v in cx.vertices}
    return complexes.TypedComplex([names[v] for v in cx.vertices],
                                  {names[v]: cx.types[v] for v in cx.vertices},
                                  [frozenset(names[v] for v in f)
                                   for f in cx.facets])


def _cmd_qgrass(args):
    with open(args.file) as fh:
        rep, e = jsonio.quiver_rep_from_json(json.load(fh))
    if e is None:
        raise BlueprintError("representation file carries no dimension vector e")
    from . import quivergrass as qg
    if args.action == "chi":
        value = qg.chi_via_interpolation(rep, e)
    elif args.action == "naive":
        value = len(qg.naive_f1_points(rep, e))
    elif args.action == "weyl":
        value = qg.weyl_count_diagonal_tree(rep, e)
    elif args.action == "count":
        if not args.q:
            raise BlueprintError("count needs --q")
        value = {q: qg.subrep_count_fq(rep, e, q)
                 for q in (int(x) for x in args.q.split(","))}
        return _emit(args, {"counts": {str(k): v for k, v in value.items()}},
                     "\n".join(f"q={k}: {v}" for k, v in value.items()))
    else:
        raise BlueprintError(f"unknown qgrass action {args.action}")
    return _emit(args, {args.action: value}, str(value))


def _parse_places(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in ("inf", "oo", "infinity", "∞"):
            out.append(arithcurve.ARCH)
        elif tok:
            out.append(arithcurve.finite_place(int(tok)))
    return out


def _cmd_arith(args):
    if args.action == "member":
        a = Fraction(args.value)
        removed = _parse_places(args.remove) if args.remove else []
        ok = arithcurve.sheaf_membership(a, arithcurve.CurveOpen.without(*removed))
        return _emit(args, {"member": ok}, str(ok).lower())
    if args.action == "classify-ideal":
        gens = [Fraction(x) for x in args.value.split(",") if x.strip()]
        ideal = arithcurve.arch_ideal_classify(gens)
        data = {"radius": str(ideal.radius), "boundary": ideal.boundary}
        return _emit(args, data, f"{ideal.boundary} ball of radius {ideal.radius}")
    if args.action == "surface-dim":
        dim, chain = arithcurve.surface_dimension(args.primes)
        text = f"dimension {dim} via " + " < ".join("(%s,%s)" % p for p in chain)
        return _emit(args, {"dimension": dim, "chain": [list(p) for p in chain]},
                     text)
    raise BlueprintError(f"unknown arith action {args.action}")


def _cmd_cspec(args):
    bp = _load_ref(args.ref, args.budget)
    if not isinstance(bp, Blueprint) or bp.backend.kind != "finite":
        raise BlueprintError("cspec expects a finite-table blueprint")
    space = congruence.cspec(bp)
    parts = [repr(c) for c in space.points]
    opens = {(f, g): sorted(space.basis_open(f, g))
             for f in bp.backend.symbols for g in bp.backend.symbols if f < g}
    basis = sorted(f"U_{{{f},{g}}} = {u}" for (f, g), u in opens.items())
    data = {"points": parts,
            "basis": {f"{f},{g}": u for (f, g), u in opens.items()}}
    return _emit(args, data, "\n".join(parts + basis))


def _cmd_k0(args):
    bp = _load_ref(args.ref, args.budget)
    result = kzero.k0(bp, args.bound)
    data = {"rank": result.rank, "torsion": list(result.torsion),
            "generators": list(result.generators)}
    return _emit(args, data, repr(result))


def _budget_arg(text):
    """The --budget value 'deg,terms,steps'; a usage error otherwise."""
    try:
        deg, terms, steps = (int(x) for x in text.split(","))
        return Budget(deg, terms, steps)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'deg,terms,steps' with nonnegative integers, got "
            f"{text!r}") from None


def _add_common(p, budget=True, js=True, dot=False):
    if js:
        p.add_argument("--json", action="store_true", help="machine output")
    if dot:
        p.add_argument("--dot", action="store_true", help="DOT output")
    if budget:
        p.add_argument("--budget", type=_budget_arg, default=None,
                       help="derivation budget 'deg,terms,steps'")


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call can share it."""
    ap = argparse.ArgumentParser(prog="blueforge",
                                 description="computable F1 geometry")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("catalog", help="list or build catalog objects")
    p.add_argument("action", choices=["list", "build"])
    p.add_argument("name", nargs="?", help="catalog name, e.g. sl2 or gr:2,4")
    _add_common(p, budget=False)
    p.set_defaults(func=_cmd_catalog)

    for verb, fn, doc in (("spec", _cmd_spec, "prime spectrum"),
                          ("proj", _cmd_proj, "homogeneous prime spectrum")):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("ref")
        _add_common(p, dot=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("hasse", help="Hasse diagram in DOT")
    p.add_argument("ref")
    _add_common(p)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("count", help="F_q point counts")
    p.add_argument("ref")
    p.add_argument("--q", type=str, default=None, help="comma list of q")
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    for verb, fn, doc in (("polyfit", _cmd_polyfit, "fit the counting polynomial"),
                          ("zeta", _cmd_zeta, "factored zeta function")):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("ref")
        p.add_argument("--deg", type=int, default=4, help="degree bound")
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("complex", help="order complex of a spectrum")
    p.add_argument("ref")
    p.add_argument("--drop-generic", action="store_true",
                   help="remove the generic (minimal) points first")
    _add_common(p, dot=True)
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("coxeter", help="abstract Coxeter complex")
    p.add_argument("family", choices=list("ABCDabcd"))
    p.add_argument("rank", type=int)
    _add_common(p, budget=False, dot=True)
    p.set_defaults(func=_cmd_coxeter)

    p = sub.add_parser("orbit", help="Weyl orbit complex in P^{m-1}")
    p.add_argument("family", choices=list("ABCDabcd"))
    p.add_argument("rank", type=int)
    p.add_argument("--plain", action="store_true",
                   help="plain flag seed instead of the oriflamme (type D)")
    _add_common(p, budget=False, dot=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("building", help="type-A building over F_q")
    p.add_argument("rank", type=int)
    p.add_argument("q", type=int)
    _add_common(p, budget=False, dot=True)
    p.set_defaults(func=_cmd_building)

    p = sub.add_parser("qgrass", help="quiver Grassmannian computations")
    p.add_argument("action", choices=["chi", "naive", "weyl", "count"])
    p.add_argument("file")
    p.add_argument("--q", type=str, default=None)
    _add_common(p, budget=False)
    p.set_defaults(func=_cmd_qgrass)

    p = sub.add_parser("arith", help="arithmetic curve queries")
    p.add_argument("action", choices=["member", "classify-ideal", "surface-dim"])
    p.add_argument("value", nargs="?", default="")
    p.add_argument("--remove", type=str, default=None,
                   help="places to remove, e.g. 2,3,inf")
    p.add_argument("--primes", type=int, default=3)
    _add_common(p, budget=False)
    p.set_defaults(func=_cmd_arith)

    p = sub.add_parser("cspec", help="congruence spectrum")
    p.add_argument("ref")
    _add_common(p)
    p.set_defaults(func=_cmd_cspec)

    p = sub.add_parser("k0", help="K0 of the blue-module category")
    p.add_argument("ref")
    p.add_argument("--bound", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_k0)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (BlueprintError, ValueError, KeyError, OSError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
