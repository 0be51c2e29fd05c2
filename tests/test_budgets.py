"""The budget only where a search remains: every public function of the
package that takes a `budget` reads it, some call passes one, and a
blueprint derived from another (a stalk, a localization, a residue field,
global sections, a quotient by a congruence, a closed subscheme) keeps its
source's budget."""

import ast
import pathlib

from blueforge import catalog, congruence as cg
from blueforge.budget import Budget
from blueforge.core import Blueprint, localize
from blueforge.schemes import closed_subscheme_from_integer_relations
from blueforge.spectra import globalize, residue_field, spec, stalk

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blueforge"
# this file passes budgets itself, so it counts as no evidence of a caller
CALLERS = [p for d in ("src", "tests", "demos", "bench")
           for p in sorted((ROOT / d).rglob("*.py"))
           if p.resolve() != pathlib.Path(__file__).resolve()]
# The benchmark's workloads pass these a budget that they do not read; the
# parameters go when the benchmark stops passing them.
UNREAD = {"spec", "rank_of_point", "proj", "additive_closure", "cspec",
          "cspec_to_spec"}


def budget_parameters(tree):
    """name -> (the position of `budget` among the arguments a call
    passes, whether the body reads it), for the public functions and the
    public classes' constructors at the top level of a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fn, skip = node, 0
        elif isinstance(node, ast.ClassDef):
            fn = next((f for f in node.body if isinstance(f, ast.FunctionDef)
                       and f.name == "__init__"), None)
            skip = 1
        else:
            continue
        if fn is None or node.name.startswith("_"):
            continue
        params = [a.arg for a in fn.args.args][skip:]
        if "budget" in params:
            reads = any(isinstance(n, ast.Name) and n.id == "budget"
                        and isinstance(n.ctx, ast.Load) for n in ast.walk(fn))
            out[node.name] = params.index("budget"), reads
    return out


def budgets_passed(tree, positions):
    """The names in `positions` that some call in `tree` passes a budget,
    by keyword or at its position."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in positions and (
                len(node.args) > positions[name]
                or any(k.arg == "budget" for k in node.keywords)):
            out.add(name)
    return out


def package_budgets():
    out = {}
    for path in sorted(SRC.glob("*.py")):
        found = budget_parameters(ast.parse(path.read_text()))
        assert not set(found) & set(out), (path.name, set(found) & set(out))
        out.update(found)
    return out


SNIPPET = '''
def dead(bp, budget=None):
    return bp


def live(bp, budget=None):
    return derive(bp, [], [], budget)


class Kept:
    def __init__(self, bp, budget=None):
        self.budget = budget or bp.budget


def _private(bp, budget):
    return bp


def caller(bp):
    return live(bp), dead(bp, None), Kept(bp, budget=Budget())
'''


def test_the_scan_flags_a_dead_budget():
    tree = ast.parse(SNIPPET)
    found = budget_parameters(tree)
    assert found == {"dead": (1, False), "live": (1, True),
                     "Kept": (1, True)}
    positions = {name: k for name, (k, _) in found.items()}
    assert budgets_passed(tree, positions) == {"dead", "Kept"}


def test_every_public_budget_is_read():
    found = package_budgets()
    assert {"Blueprint", "derive", "is_morphism", "spec"} <= set(found)
    assert {name for name, (_, reads) in found.items() if not reads} == \
        UNREAD


def test_every_public_budget_is_passed_somewhere():
    positions = {name: k for name, (k, _) in package_budgets().items()}
    passed = set()
    for path in CALLERS:
        passed |= budgets_passed(ast.parse(path.read_text()), positions)
    assert set(positions) - passed == set()


def test_derived_blueprints_keep_their_source_budget():
    budget = Budget(4, 5, 321)
    assert budget != Budget()
    tables = [Blueprint(t.backend, t.relations, budget=budget)
              for t in (catalog.two_fields(2, 3), catalog.f1n(4),
                        catalog.product_ring(2, 3))]
    line = catalog.affine_space(2, budget=budget)
    derived = []
    for bp in tables + [line]:
        X = spec(bp)
        for p in X.points:
            derived += [stalk(bp, p), residue_field(bp, p)]
        derived += [localize(bp, [bp.one()]), globalize(bp)]
    for bp in tables[:2]:
        for c in cg.cspec(bp).points:
            derived += [cg.quotient_by_congruence(bp, c),
                        cg.residue_field_of_congruence(bp, c)]
    cone = catalog.proj_cone(1, budget=budget)
    derived += [closed_subscheme_from_integer_relations(line, []),
                closed_subscheme_from_integer_relations(cone, []).blueprint]
    # Gamma of the product ring is a new table, not the source
    assert globalize(tables[2]) is not tables[2]
    assert len(derived) > 20
    assert all(bp.budget == budget for bp in derived)
