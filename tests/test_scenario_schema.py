"""The scenario checker against the JSON Schema reference implementation."""

import copy
import json
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyqscale.scenario import _SCHEMA, _schema_violations, bundled_scenario_path

# the keywords the checker interprets; anything else in _SCHEMA would be ignored
CHECKED_KEYWORDS = {"type", "required", "properties", "items", "minItems", "maxItems",
                    "minimum", "exclusiveMinimum", "maximum", "enum"}
JSON_TYPES = {"object", "array", "string", "null", "number", "integer"}

DOCS = [json.loads(bundled_scenario_path(name).read_text())
        for name in ("n5_hydro_d0", "n5_hydro_loads", "n5_hydro_wind")]
REFERENCE = jsonschema.Draft202012Validator(_SCHEMA)

# finite JSON values of every type; the numbers sit on and around the
# schema's bounds, and the strings include its enum members
NUMBERS = st.sampled_from([-1, 0, -0.5, 0.5, 1, 1.0, 1.5, 99, 100.0, 1e300, -0.0])
SCALARS = (st.none() | st.booleans() | NUMBERS
           | st.integers(-10**20, 10**20)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(["", "x", "D_r", "full-D", "MW_per_rad", "GW_per_rad"]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "bus", "b", "T_y", "point", "x"]), inner,
                      max_size=3),
    max_leaves=6,
)


DELETE = object()


def _paths(doc):
    """The paths of the checker's violation lines, in its order."""
    return [line.split(": ", 1)[0] for line in _schema_violations(doc)]


def _reference_paths(doc):
    return sorted(err.json_path for err in REFERENCE.iter_errors(doc))


def _nodes(node, path=()):
    """(path, node) for ``node`` and every node below it; a path is a
    tuple of keys and indices."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutated(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``, or deleted
    if ``value`` is DELETE; the root is replaced, never deleted."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_docs(draw):
    """A bundled document with 1-3 nodes replaced by a drawn value or
    deleted. Numbers and arrays are picked more often than their share, and
    a picked number is replaced by one near the schema's bounds, so the
    bounds and item counts are reached."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        pools = [[p for p, _ in nodes],
                 [p for p, v in nodes if isinstance(v, (int, float))],
                 [p for p, v in nodes if isinstance(v, list)]]
        pool = draw(st.sampled_from([p for p in pools if p]))
        path = draw(st.sampled_from(pool))
        if pool is pools[1]:
            value = draw(NUMBERS)
        else:
            value = DELETE if path and draw(st.booleans()) else draw(VALUES)
        doc = _mutated(doc, path, value)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_docs())
def test_checker_matches_jsonschema_on_mutated_documents(doc):
    assert _paths(doc) == _reference_paths(doc)


HYDRO, LINE = ("agents", "buses", 0, "hydro"), ("network", "lines", 0)
# (path into n5_hydro_loads, new value or DELETE, paths both checkers report)
KEYWORD_CASES = [
    (("name",), DELETE, ["$"]),
    (("network", "buses"), [], ["$.network.buses"]),
    (("policy", "hyperplane", "point"), [1, 2, 3], ["$.policy.hyperplane.point"]),
    (LINE + ("units",), "x", ["$.network.lines[0].units"]),
    (("policy", "contour", "R_rad_s"), "x", ["$.policy.contour.R_rad_s"]),
    (HYDRO + ("g0",), 1.5, ["$.agents.buses[0].hydro.g0"]),
    (HYDRO + ("T_y",), 0, ["$.agents.buses[0].hydro.T_y"]),
    (LINE + ("b",), -1, ["$.network.lines[0].b"]),
    # each keyword on its own: wrong type and below the minimum
    (("policy", "contour", "density"), 99.5, ["$.policy.contour.density"] * 2),
    (("policy", "contour", "density"), 100.0, []),
    (("output", "record_decimation"), True, ["$.output.record_decimation"]),
    (LINE + ("b",), False, ["$.network.lines[0].b"]),
    # bounds, required and items skip values of other types
    (LINE + ("b",), "-1", ["$.network.lines[0].b"]),
    (HYDRO, [], ["$.agents.buses[0].hydro"]),
    (("network", "buses"), {}, ["$.network.buses"]),
    ((), [], ["$"]),
]


@pytest.mark.parametrize("path, value, paths", KEYWORD_CASES)
def test_checker_matches_jsonschema_keyword_by_keyword(path, value, paths):
    doc = _mutated(copy.deepcopy(DOCS[1]), path, value)
    assert _reference_paths(doc) == paths
    assert _paths(doc) == paths


def test_checker_interprets_every_schema_keyword():
    unknown, stack = [], [_SCHEMA]
    while stack:
        schema = stack.pop()
        unknown += sorted(set(schema) - CHECKED_KEYWORDS)
        types = schema.get("type", [])
        unknown += sorted(set([types] if isinstance(types, str) else types) - JSON_TYPES)
        stack += schema.get("properties", {}).values()
        stack += [schema["items"]] if "items" in schema else []
    assert not unknown, unknown


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checker_rejects_non_finite_numbers(value):
    # the one deliberate difference from JSON Schema, which passes NaN and
    # Infinity through every bound
    doc = copy.deepcopy(DOCS[1])
    doc["network"]["lines"][0]["b"] = value
    doc["output"]["dt_s"] = value
    assert _paths(doc) == ["$.network.lines[0].b", "$.output.dt_s"]
