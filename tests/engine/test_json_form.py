"""The storage form: ``json_form`` / ``from_json_form`` read back type for type."""

import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.spec import from_json_form, json_form

TAG_KEYS = ("__tuple__", "__set__", "__dict__", "__float__", "__repr__", "__x__", "__")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=False)
    | st.just(-0.0)
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.fractions()
)
hashables = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
values = st.recursive(
    hashables,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.sets(hashables, max_size=3)
        | st.frozensets(hashables, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3)
        | st.dictionaries(hashables, inner, max_size=3)
        | st.dictionaries(st.sampled_from(TAG_KEYS), inner, min_size=1, max_size=1)
    ),
    max_leaves=12,
)


def typed(value):
    """``value`` with every type spelled out, so ``True`` differs from
    ``1``, ``-0.0`` from ``0.0`` and a tuple from a list."""
    kind = type(value).__name__
    if isinstance(value, float):
        return kind, repr(value)
    if isinstance(value, (list, tuple)):
        return kind, [typed(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return kind, sorted((typed(v) for v in value), key=repr)
    if isinstance(value, dict):
        return kind, [(typed(k), typed(v)) for k, v in value.items()]
    return kind, value


def through_json(value):
    return from_json_form(json.loads(json.dumps(json_form(value))))


@given(values)
def test_every_plain_value_reads_back_type_for_type(value):
    assert typed(through_json(value)) == typed(value)


@given(st.sets(hashables, max_size=4))
def test_equal_sets_write_equal_bytes(value):
    assert json.dumps(json_form(value)) == json.dumps(json_form(set(reversed(list(value)))))


def test_the_tags_are_the_journal_spellings():
    assert json_form((1, Fraction(1, 3), b"\x01", {2}, frozenset({3}), {4: 5})) == {
        "__tuple__": [
            1,
            {"__fraction__": [1, 3]},
            {"__bytes__": "01"},
            {"__set__": [2]},
            {"__frozenset__": [3]},
            {"__dict__": [[4, 5]]},
        ]
    }
    # Plain data is written as itself; only a one-key tag-like dict is wrapped.
    assert json_form({"a": [1.5, None, True]}) == {"a": [1.5, None, True]}
    assert json_form({"__set__": 1}) == {"__dict__": [["__set__", 1]]}
    assert json_form({"__set__": 1, "b": 2}) == {"__set__": 1, "b": 2}


@pytest.mark.parametrize(
    "value",
    [object(), 1j, range(3), [{"ok": {1, object()}}], OrderedDict(a=1), type("I", (int,), {})(1)],
    ids=["object", "complex", "range", "nested", "dict-subclass", "int-subclass"],
)
def test_a_value_with_no_json_form_is_refused_at_write_time(value):
    with pytest.raises(TypeError, match="no JSON form"):
        json_form(value)


@pytest.mark.parametrize(
    "form",
    [
        {"__float__": "0.5"},
        {"__repr__": "{1, 2}"},
        {"__nope__": 1},
        {"__fraction__": [1, 0]},
        {"__fraction__": [1]},
        {"__fraction__": [1, 2, 3]},
        {"__fraction__": [1.5, 2]},
        {"__fraction__": [True, 2]},
        {"__fraction__": "1/2"},
        {"__bytes__": "zz"},
        {"__bytes__": 12},
        {"__set__": [[1]]},
        {"__set__": "abc"},
        {"__frozenset__": [{"a": 1}]},
        {"__tuple__": "abc"},
        {"__tuple__": [{"__float__": "1.0"}]},
        {"__dict__": "ab"},
        {"__dict__": [["a"]]},
        {"__dict__": [["a", 1, 2]]},
        {"__dict__": [[[1], 2]]},
        {"__dict__": [{"__tuple__": ["a", 1]}]},
    ],
)
def test_a_malformed_tagged_payload_is_a_value_error(form):
    with pytest.raises(ValueError):
        from_json_form(form)
