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

Serialization is canonical and round-trips bit-exactly. The readers check
the type of every field before they build anything, and name a bad field in
a BlueprintError.
"""

from __future__ import annotations

import json

from . import catalog
from .core import (ONE, Blueprint, BlueprintError, FiniteTable,
                   MonomialBackend, parse_element)
from .quivergrass import IntegralRep, Quiver


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def _of(kind):
    """A check that a value has the JSON type `kind`; it raises
    BlueprintError naming the field. No field takes a bool."""
    def check(value, where):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise BlueprintError(f"{where} must be {_TYPE_NAMES[kind]}")
    return check


def _list_of(item):
    def check(value, where):
        _of(list)(value, where)
        for i, x in enumerate(value):
            item(x, f"{where}[{i}]")
    return check


def _tuple_of(*items):
    def check(value, where):
        _of(list)(value, where)
        if len(value) != len(items):
            raise BlueprintError(f"{where} must have {len(items)} entries")
        for i, (x, item) in enumerate(zip(value, items)):
            item(x, f"{where}[{i}]")
    return check


def _fields(checks, required):
    """A check of a JSON object: the `required` keys are present, and each
    key of `checks` that is present passes its check. Other keys are
    ignored."""
    def check(value, where):
        _of(dict)(value, where)
        for key in required:
            if key not in value:
                raise BlueprintError(f"{where} has no {key!r}")
        for key, item in checks.items():
            if key in value:
                item(value[key], f"{where}.{key}")
    return check


_STRINGS = _list_of(_of(str))
_RELATIONS = _list_of(_tuple_of(_STRINGS, _STRINGS))
_TABLE = _list_of(_tuple_of(_of(str), _of(str), _of(str)))
_TABLE_FIELDS = _fields({"carrier": _STRINGS, "mul": _TABLE, "add": _TABLE,
                         "relations": _RELATIONS}, ("carrier", "mul"))
_BLUEPRINT_FIELDS = _fields(
    {"generators": _STRINGS, "inverted": _STRINGS, "relations": _RELATIONS,
     "identifications": _list_of(_tuple_of(_list_of(_of(int)), _of(str)))},
    ("coefficients",))
# The entries of "dims" and "matrices" are checked by IntegralRep, and
# those of "e" by the Grassmannian computations.
_QUIVER_FIELDS = _fields(
    {"vertices": _of(int), "arrows": _list_of(_tuple_of(_of(int), _of(int))),
     "dims": _of(list), "matrices": _of(list), "e": _of(list)},
    ("vertices", "arrows", "dims", "matrices"))


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


def _coeff_from_json(data, budget):
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
    return Blueprint(table, rels, budget)


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


def blueprint_from_json(data, budget=None) -> Blueprint:
    """The blueprint of a JSON object. A coefficient table given in full and
    the blueprint over it carry `budget` (default `Budget()`), which bounds
    their properness guards; a named coefficient is the catalog's."""
    _BLUEPRINT_FIELDS(data, "blueprint")
    if not isinstance(data["coefficients"], str):
        _TABLE_FIELDS(data["coefficients"], "blueprint.coefficients")
    coeff = _coeff_from_json(data["coefficients"], budget)
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
    return Blueprint(backend, rels, budget)


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
    _QUIVER_FIELDS(data, "quiver")
    quiver = Quiver(data["vertices"], tuple((s, t) for s, t in data["arrows"]))
    rep = IntegralRep(quiver, data["dims"], data["matrices"])
    e = tuple(data["e"]) if "e" in data else None
    return rep, e
