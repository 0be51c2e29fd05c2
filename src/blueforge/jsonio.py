"""JSON descriptions of blueprints, schemes, and quiver representations.

Blueprint files follow
    {"coefficients": "F1" | "F1^2" | "F1^n:<n>" | "B1" | {table},
     "generators": [names], "inverted": [names],
     "relations": [[[lhs terms], [rhs terms]], ...]}
with the monomial grammar coeff "*" var "^" int and the literals "1", "0".

Quiver representation files follow
    {"vertices": n, "arrows": [[source, target], ...], "dims": [d_0, ...],
     "matrices": [[row, ...], ...], "e": [e_0, ...]}
with one integer matrix per arrow, written as its d_target rows of d_source
integers (a matrix into a vertex of dimension 0 is []); "e" is optional.

Serialization is canonical and round-trips bit-exactly.
"""

from __future__ import annotations

import json

from . import catalog
from .core import (ONE, Blueprint, BlueprintError, FiniteTable,
                   MonomialBackend, parse_element)
from .quivergrass import IntegralRep, Quiver


def _coeff_tag(bp):
    """Recognize the named coefficient blueprints."""
    def same(ref):
        return (bp.backend.symbols == ref.backend.symbols
                and bp.backend.mul_table == ref.backend.mul_table
                and bp.relations == ref.relations)
    for tag, builder in (("F1", catalog.f1), ("B1", catalog.b1)):
        if same(builder()):
            return tag
    for n in range(2, 13):
        if same(catalog.f1n(n)):
            return "F1^2" if n == 2 else f"F1^n:{n}"
    return None


def _coeff_to_json(bp):
    tag = _coeff_tag(bp)
    if tag is not None:
        return tag
    out = {"carrier": list(bp.backend.symbols),
           "mul": [[a, b, bp.backend.mul_table[(a, b)]]
                   for a in bp.backend.symbols for b in bp.backend.symbols
                   if a <= b]}
    if bp.relations:
        out["relations"] = [[[t for t in l], [t for t in r]]
                            for l, r in bp.relations]
    if bp.backend.add_table is not None:
        out["add"] = [[a, b, bp.backend.add_table[(a, b)]]
                      for a in bp.backend.symbols for b in bp.backend.symbols
                      if a <= b]
    return out


def _coeff_from_json(data):
    if isinstance(data, str):
        if data == "F1":
            return catalog.f1()
        if data == "B1":
            return catalog.b1()
        if data == "F1^2":
            return catalog.f1n(2)
        if data.startswith("F1^n:"):
            return catalog.f1n(int(data.split(":")[1]))
        raise BlueprintError(f"unknown coefficient tag {data!r}")

    def symmetric(triples):
        return {k: c for a, b, c in triples for k in ((a, b), (b, a))}
    add = symmetric(data["add"]) if "add" in data else None
    table = FiniteTable(tuple(data["carrier"]), symmetric(data["mul"]), add)
    rels = [(l, r) for l, r in data.get("relations", [])]
    return Blueprint(table, rels)


def blueprint_to_json(bp) -> dict:
    """The canonical JSON object of a blueprint."""
    if bp.backend.kind == "finite":
        return {"coefficients": _coeff_to_json(bp), "generators": [],
                "inverted": [], "relations": []}
    backend = bp.backend
    out = {
        "coefficients": _coeff_to_json(backend.coeff),
        "generators": list(backend.gens),
        "inverted": sorted(backend.inverted),
        "relations": [[[bp.render(t) for t in l], [bp.render(t) for t in r]]
                      for l, r in bp.relations],
    }
    if backend.lattice:
        out["identifications"] = [[list(vec), char]
                                  for vec, char in backend.lattice]
    return out


def blueprint_from_json(data) -> Blueprint:
    coeff = _coeff_from_json(data["coefficients"])
    gens = tuple(data.get("generators", ()))
    if not gens:
        return coeff
    lattice = [(tuple(vec), char)
               for vec, char in data.get("identifications", [])]
    backend = MonomialBackend(coeff, gens, tuple(data.get("inverted", ())),
                              lattice)
    stub = Blueprint(backend, (), check_proper=False)
    rels = []
    for l, r in data.get("relations", ()):
        rels.append(([parse_element(stub, t) for t in l],
                     [parse_element(stub, t) for t in r]))
    return Blueprint(backend, rels)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def blueprint_dumps(bp) -> str:
    return dumps(blueprint_to_json(bp))


def blueprint_loads(text) -> Blueprint:
    return blueprint_from_json(json.loads(text))


# ---------------------------------------------------------------------------
# Schemes


def scheme_to_json(scheme) -> dict:
    return {
        "name": scheme.name,
        "charts": [blueprint_to_json(c) for c in scheme.charts],
        "gluings": [{"i": g.i, "j": g.j, "invert_i": g.invert_i,
                     "invert_j": g.invert_j,
                     "images": {name: _render_raw(scheme.charts[g.i], img)
                                for name, img in sorted(g.gen_images.items())}}
                    for g in scheme.gluings],
    }


def _render_raw(chart, mono):
    coeff, exps = mono
    parts = []
    if coeff != ONE or not any(exps):
        parts.append(coeff)
    for name, e in zip(chart.backend.gens, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def scheme_from_json(data):
    from .schemes import BlueScheme, ChartGluing
    charts = [blueprint_from_json(c) for c in data["charts"]]
    gluings = []
    for g in data["gluings"]:
        chart_i = charts[g["i"]]
        loc_backend = MonomialBackend(chart_i.backend.coeff,
                                      chart_i.backend.gens,
                                      tuple(chart_i.backend.inverted)
                                      + (g["invert_i"],),
                                      chart_i.backend.lattice)
        loc_stub = Blueprint(loc_backend, (), check_proper=False)
        images = {name: parse_element(loc_stub, txt)
                  for name, txt in g["images"].items()}
        gluings.append(ChartGluing(g["i"], g["j"], g["invert_i"],
                                   g["invert_j"], images))
    return BlueScheme(charts, gluings, name=data.get("name"))


# ---------------------------------------------------------------------------
# Quiver representations


def quiver_rep_to_json(rep: IntegralRep, e=None) -> dict:
    out = {
        "vertices": rep.quiver.n_vertices,
        "arrows": [[s, t] for s, t in rep.quiver.arrows],
        "dims": list(rep.dims),
        "matrices": [[list(row) for row in m] for m in rep.matrices],
    }
    if e is not None:
        out["e"] = list(e)
    return out


def quiver_rep_from_json(data):
    quiver = Quiver(data["vertices"], tuple((s, t) for s, t in data["arrows"]))
    rep = IntegralRep(quiver, data["dims"], data["matrices"])
    e = tuple(data["e"]) if "e" in data else None
    return rep, e
