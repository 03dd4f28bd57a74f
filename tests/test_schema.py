"""The package's schema interpreter against jsonschema, the reference validator."""

import copy
import json
from pathlib import Path

import pytest

from chernlab.errors import SchemaError
from chernlab.scenario import _conform, scenario_schema
from test_scenario_cli import base_scenario

jsonschema = pytest.importorskip("jsonschema")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DEMO = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "demo.json").read_text())

# an expression metric on a max-norm domain and a product map, as in the
# benchmark's schwarz_grid workload
SCHWARZ_GRID = {
    "version": 1,
    "seed": 3,
    "metrics": {
        "pd": {"catalog": "polydisk", "params": [1.0, 1.0]},
        "pd_expr": {
            "expression": "g[1][1] = 1/(1-abs2(z1))^2\ng[2][2] = 1/(1-abs2(z2))^2",
            "dim": 2,
            "domain": {"center": [0.0, 0.0], "radius": 1.0, "norm": "max"},
        },
    },
    "maps": {
        "m1": {"kind": "mobius", "a": [0.1, -0.2]},
        "m2": {"kind": "mobius", "a": [0.0, 0.25]},
        "mm": {"kind": "product", "factors": ["m1", "m2"]},
    },
    "tasks": [
        {"kind": "schwarz", "theorem": "chern_lu", "map": "mm", "source": "pd_expr", "target": "pd",
         "constants": {"c1": 2.0, "c2": 0.0, "kappa": 0.5},
         "grid": {"center": [[0.1, 0.0], [0.0, -0.1]], "half": 0.3, "per_axis": 2}},
        {"kind": "schwarz", "theorem": "aubin_yau", "map": "mm", "source": "pd", "target": "pd",
         "kappa_mode": "along_map", "grid": {"center": [[0.0, 0.0], [0.0, 0.0]], "half": 0.3, "per_axis": 2}},
    ],
}

DOCUMENTS = [DEMO, base_scenario(), SCHWARZ_GRID]


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, (*path, i))


def _words(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _words(value)
    elif isinstance(node, list):
        for value in node:
            yield from _words(value)
    elif isinstance(node, str):
        yield node


# every key and string of the schema and the documents, and numbers at the
# schema's bounds, so that mutations often land on valid documents
WORDS = sorted(set(_words(scenario_schema())) | {w for doc in DOCUMENTS for w in _words(doc)})
SUBTREES = [node for doc in DOCUMENTS for _, node in _nodes(doc)]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-1, 0, 1, 2, 4, 9999, 10000, -0.3, 0.0, 1.0, 2.0, 0.5, 1e4]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(WORDS),
)
VALUES = st.one_of(
    st.sampled_from(SUBTREES),
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(WORDS), inner, max_size=3),
        max_leaves=6,
    ),
).map(copy.deepcopy)


@st.composite
def mutated_documents(draw):
    """A valid document with one value replaced, one key or item deleted, or one added."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    path, node = draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(WORDS) | st.text(max_size=4))] = draw(VALUES)
    elif op == "add" and isinstance(node, list):
        node.insert(draw(st.integers(0, len(node))), draw(VALUES))
    elif op == "delete" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = draw(VALUES)
    else:
        doc = draw(VALUES)
    return doc


def _accepted(doc):
    try:
        _conform(doc, scenario_schema(), "$")
    except SchemaError:
        return False
    return True


def test_schema_file_is_a_valid_schema():
    jsonschema.Draft202012Validator.check_schema(scenario_schema())


def test_documents_are_valid():
    for doc in DOCUMENTS:
        jsonschema.Draft202012Validator(scenario_schema()).validate(doc)
        assert _accepted(doc)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated_documents())
def test_agrees_with_jsonschema(doc):
    assert _accepted(doc) == jsonschema.Draft202012Validator(scenario_schema()).is_valid(doc)
