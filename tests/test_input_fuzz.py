"""Fuzz of the two JSON readers through the CLI: mutated blueprint and
quiver files either run or give `error:` and exit 1, and no exception
escapes `cli.main`."""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from blueforge.cli import main

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
