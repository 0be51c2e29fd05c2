"""The layers behind `blueforge.core`: every name that the tests, the demos
and the benchmark read from `core` is the object its owning module defines,
and no module of the package grows back into one large compile."""

import ast
import importlib
import pathlib

from blueforge import core

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blueforge"
LAYERS = ("core", "derivation", "ideals", "morphisms", "predicates")
READERS = (sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "bench" / "workloads.py", ROOT / "bench" / "trace.py"])


def defined_names(path):
    """The names a module binds at top level by def, class or assignment."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def names_read_from_core(path):
    """The names `path` reads from `blueforge.core`: imported from it,
    read as attributes of it under any alias, or named as the tracer's
    ("core", "name") and ("core", "Class.method") targets."""
    tree = ast.parse(path.read_text())
    aliases, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "blueforge.core":
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "blueforge":
            aliases.update(a.asname or a.name for a in node.names
                           if a.name == "core")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            out.add(node.attr)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and \
                all(isinstance(e, ast.Constant) for e in node.elts) and \
                node.elts[0].value == "core":
            out.add(node.elts[1].value.split(".")[0])
    return out


def owners():
    """name -> the layer whose source defines it."""
    out = {}
    for layer in LAYERS:
        for name in defined_names(SRC / f"{layer}.py"):
            assert name not in out, (name, out.get(name), layer)
            out[name] = layer
    return out


def test_names_read_from_core_are_their_owners_objects():
    owner = owners()
    read = {}
    for path in READERS:
        for name in names_read_from_core(path):
            read.setdefault(name, []).append(path.name)
    # the scan sees each kind of reader: a test's import, a demo's, the
    # workloads' attribute reads and the tracer's targets
    assert {"_derive3", "torus_certificate", "derive", "_explore",
            "_monomial_divides", "FiniteTable"} <= set(read)
    for name, files in sorted(read.items()):
        assert name in owner, (name, files)
        layer = importlib.import_module(f"blueforge.{owner[name]}")
        assert getattr(core, name) is getattr(layer, name), (name, files)


def test_core_serves_every_layer_name():
    for name, layer in owners().items():
        module = importlib.import_module(f"blueforge.{layer}")
        assert getattr(core, name) is getattr(module, name), (name, layer)


def test_no_module_passes_900_lines():
    """Every process that runs the package from source with bytecode
    writing off (as the benchmark does) compiles each module anew, and the
    compiler's heap for one module stays resident after it is freed. As one
    module of 2,605 lines, core kept about 7.7 MB of it; as five modules of
    at most 750 lines, about 2.9 MB. A module past 900 lines brings that
    cost back."""
    lengths = {p.name: len(p.read_text().splitlines())
               for p in SRC.glob("*.py")}
    assert "core.py" in lengths
    assert {name: n for name, n in lengths.items() if n > 900} == {}
