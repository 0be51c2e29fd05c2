"""Fuzz of the CLI: mutated blueprint and quiver files through the two JSON
readers, and drawn argv for every verb. Each run exits 0, exits 1 with
`error:`, or exits 2 for usage (argv only), and no exception escapes
`cli.main`."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blueforge.cli import build_parser, main

IDEMPOTENT = {"carrier": ["0", "1", "e"],
              "mul": [["0", "0", "0"], ["0", "1", "0"], ["0", "e", "0"],
                      ["1", "1", "1"], ["1", "e", "e"], ["e", "e", "e"]]}
BLUEPRINTS = [
    {"coefficients": "F1", "generators": ["T", "U"], "inverted": ["U"],
     "relations": [[["1"], ["T", "U"]]], "identifications": [[[0, 2], "1"]]},
    {"coefficients": {**IDEMPOTENT,
                      "add": [["0", "0", "0"], ["0", "1", "1"],
                              ["0", "e", "e"], ["1", "1", "1"],
                              ["1", "e", "1"], ["e", "e", "e"]]},
     "generators": [], "inverted": [], "relations": []},
    {"coefficients": {**IDEMPOTENT, "relations": [[["e"], ["e", "e"]]]},
     "generators": ["T"], "inverted": [],
     "relations": [[["1"], ["T", "e*T"]]]},
]
QUIVER = {"vertices": 2, "arrows": [[0, 1]], "dims": [2, 1],
          "matrices": [[[1, 1]]], "e": [1, 0]}

# small values only, so that no case builds a large table
VALUES = st.one_of(
    st.sampled_from(["T", "T1", "U", "1", "0", "e", "F1", "B1", "", "T^2"]),
    st.integers(-1, 3), st.sampled_from([1.5, None, True]), st.builds(dict),
    st.lists(st.sampled_from(["T", "1", "e"]), max_size=2),
    st.lists(st.integers(0, 2), max_size=2))


def paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from paths(item, prefix + (key,))


@st.composite
def mutated(draw, base):
    """`base` with one to three fields retyped, rewrapped, dropped or
    joined by an extra key."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(data))))
        op = draw(st.sampled_from(["replace", "wrap", "unwrap", "delete",
                                   "extra"]))
        if not path:
            if op in ("replace", "wrap"):
                data = draw(VALUES) if op == "replace" else [data]
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key, old = path[-1], parent[path[-1]]
        if op == "replace":
            parent[key] = draw(VALUES)
        elif op == "wrap":
            parent[key] = [old]
        elif op == "unwrap" and isinstance(old, list) and old:
            parent[key] = old[0]
        elif op == "delete":
            del parent[key]
        elif op == "extra" and isinstance(old, dict):
            old[draw(st.sampled_from(["x", "e", "add"]))] = draw(VALUES)
    return data


def run_file(tmp_path_factory, capsys, payload, *argv):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(payload))
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.startswith("error:")), (code, err)


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(st.sampled_from(BLUEPRINTS).flatmap(mutated),
       st.sampled_from(["spec", "count"]))
def test_blueprint_files(tmp_path_factory, capsys, payload, verb):
    run_file(tmp_path_factory, capsys, payload, verb)


@FUZZ
@given(mutated(QUIVER))
def test_quiver_files(tmp_path_factory, capsys, payload):
    run_file(tmp_path_factory, capsys, payload, "qgrass", "chi")


# Catalog references with parameters <= 4, and a few malformed ones.
REFS = ["f1", "b1", "f12", "idempotent", "sl2", "sl2_minors", "A1", "A2",
        "P1", "P2", "Gm1", "catalog:f1n:3", "catalog:roots_sums:4",
        "catalog:two_fields:2,3", "catalog:product_ring:2,2",
        "catalog:gr:2,4", "catalog:affine:0", "catalog:proj:0",
        "catalog:torus:4", "catalog:f1n:0", "catalog:f1n:-1",
        "catalog:gr:4,2", "catalog:f1n:a", "catalog:", "nosuch", ""]
INTS = st.sampled_from([str(i) for i in range(-2, 5)] + ["x", "1.5"])
# each flag with the values drawn for it; None marks a switch
FLAGS = {
    "--json": None, "--dot": None, "--drop-generic": None, "--plain": None,
    "--budget": st.sampled_from(["6,3,5", "2,8,500", "1,2", "a,b,c",
                                 "0,0,0", "-1,2,3", "1,2,3,4", ""]),
    "--deg": INTS, "--bound": st.sampled_from([str(i) for i in range(-1, 6)]
                                              + ["x"]),
    "--q": st.sampled_from(["2", "3", "2,3", "4", "0", "1", "-2", "a", "",
                            "2,,3"]),
    "--primes": INTS,
    "--remove": st.sampled_from(["2", "2,3,inf", "oo", "4", "0", "-3", "x",
                                 ""]),
}


def positionals(files):
    """The positional arguments of each verb."""
    ref = st.sampled_from(REFS + [files["blueprint"]])
    family = st.sampled_from(list("ABCDabcdE"))
    return {
        "catalog": st.tuples(st.sampled_from(["list", "build", "nope"]),
                             ref),
        **{verb: st.tuples(ref) for verb in (
            "spec", "proj", "hasse", "count", "polyfit", "zeta", "complex",
            "cspec", "k0")},
        "coxeter": st.tuples(family, INTS),
        "orbit": st.tuples(family, INTS),
        "building": st.tuples(INTS, INTS),
        "qgrass": st.tuples(
            st.sampled_from(["chi", "naive", "weyl", "count", "nope"]),
            st.sampled_from(list(files.values()) + ["missing.json"])),
        "arith": st.tuples(
            st.sampled_from(["member", "classify-ideal", "surface-dim",
                             "nope"]),
            st.sampled_from(["1/2", "3", "0", "-4/9", "2,3", "1/0", "x",
                             ""])),
    }


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    out = {}
    for name, payload in (("blueprint", BLUEPRINTS[2]), ("quiver", QUIVER),
                          ("quiver_without_e", {**QUIVER, "e": None}),
                          ("not_json", None)):
        path = root / f"{name}.json"
        path.write_text("{" if payload is None else json.dumps(payload))
        out[name] = str(path)
    return out


def verb_flags():
    """The options of each verb, --help left out."""
    verbs = build_parser()._subparsers._group_actions[0].choices
    return {verb: sorted(opt for action in p._actions
                         for opt in action.option_strings
                         if opt.startswith("--") and opt != "--help")
            for verb, p in verbs.items()}


@st.composite
def argvs(draw, files):
    """A verb, its positionals and up to three options, mostly its own."""
    args = positionals(files)
    verb = draw(st.sampled_from(sorted(args)))
    argv = [verb, *draw(args[verb])]
    own = st.sampled_from(verb_flags()[verb] or sorted(FLAGS))
    flags = st.one_of(own, own, st.sampled_from(sorted(FLAGS)))
    for flag in draw(st.lists(flags, max_size=3, unique=True)):
        argv.append(flag if FLAGS[flag] is None
                    else f"{flag}={draw(FLAGS[flag])}")
    return argv


def test_every_verb_and_option_is_drawn(files):
    flags = verb_flags()
    assert sorted(positionals(files)) == sorted(flags)
    assert {f for own in flags.values() for f in own} == set(FLAGS)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv(files, capsys, data):
    argv = data.draw(argvs(files), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
        assert code == 2, (argv, code)
    err = capsys.readouterr().err
    assert code in (0, 2) or (code == 1 and err.startswith("error:")), \
        (argv, code, err)
