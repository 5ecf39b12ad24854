"""Fuzz ``ScenarioSpec.from_json`` with one-field corruptions of every preset.

A malformed scenario file must fail loudly and diagnosably at load time:
with ``ValueError`` (a wrong value, an unknown name) or ``TypeError`` (a
wrong type, an unknown or missing key) — never with a ``KeyError``,
``AttributeError`` or ``IndexError`` from inside the loader.  Each example
takes a registered preset's JSON, picks one field anywhere in the tree and
either replaces its value with one of the wrong-typed or wrong-valued
candidates below or adds an unknown key next to it.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.registry import available_scenarios, scenario
from repro.scenarios.spec import ScenarioSpec

PRESETS = {name: scenario(name).to_dict() for name in available_scenarios()}

#: Replacement values: every JSON type, plus values that are wrong for
#: almost any field (negative, zero, empty, unknown names, bad shapes).
WRONG = [
    None, True, False, 0, -1, 10**9, 2.5, -3.0, "", "bogus",
    [], [1], [[1, 2]], ["x", "y", "z"], {}, {"bogus": 1},
]


def _paths(node, prefix=()):
    """Every path (tuple of keys/indexes) to a value in the JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _dict_paths(data):
    """Paths to every JSON object in the tree (the root is ``()``)."""
    yield ()
    for path in _paths(data):
        if isinstance(_get(data, path), dict):
            yield path


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def _load(data):
    try:
        return ScenarioSpec.from_json(json.dumps(data))
    except (ValueError, TypeError) as error:
        return error


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_a_wrong_value_fails_with_value_or_type_error(name, data):
    spec = json.loads(json.dumps(PRESETS[name]))
    path = data.draw(st.sampled_from(list(_paths(spec))), label="path")
    _get(spec, path[:-1])[path[-1]] = data.draw(
        st.sampled_from(WRONG), label="value"
    )
    _load(spec)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_an_unknown_key_is_rejected(name, data):
    spec = json.loads(json.dumps(PRESETS[name]))
    path = data.draw(st.sampled_from(list(_dict_paths(spec))), label="path")
    _get(spec, path)["bogus_key"] = 1
    assert isinstance(_load(spec), (ValueError, TypeError)), path


def test_every_preset_round_trips():
    for name, data in PRESETS.items():
        assert ScenarioSpec.from_json(json.dumps(data)) == scenario(name)
