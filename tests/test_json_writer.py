"""The CLI's JSON writer against json.dump, the writer it replaced.

The reference rounds every float to 6 significant digits and hands the
payload to json.dump(indent=2), as the CLI once did; the writer must produce
the same string for every payload, including the shapes its fast paths take
(lists of one scalar type, lists of same-shaped records) and the ones that
fall back (mixed lists, records whose keys or key orders differ).
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsurgeon.cli import _emit_json


def _sig6(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _sig6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig6(v) for v in obj]
    return obj


def reference(payload) -> str:
    out = io.StringIO()
    json.dump(_sig6(payload), out, indent=2)
    out.write("\n")
    return out.getvalue()


def written(payload) -> str:
    out = io.StringIO()
    _emit_json(payload, out)
    return out.getvalue()


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-308, 1e308, -1e308, 1.7976931348623157e308, 9.999995, -9.999995, 99999.95,
    999999.5, 0.00009999995, 1e-5, 123456.5, 1e16, 0.1, 1.0 / 3.0,
]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
strings = st.text(st.characters(blacklist_categories=()), max_size=8)
labels = st.one_of(
    st.sampled_from(["José", 'say"hi', "back\\slash", "100%", "%s", "\x00", "\U0001F600"]),
    strings,
)
scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(), labels)


@st.composite
def records(draw):
    """A list of dicts that mostly share one key order; some rows may differ."""
    keys = draw(st.lists(labels, max_size=5, unique=True))
    column_kinds = [draw(st.sampled_from([floats, labels, scalars])) for _ in keys]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {k: draw(kind) for k, kind in zip(keys, column_kinds)}
        change = draw(st.sampled_from(["none", "none", "none", "reorder", "drop", "nest"]))
        if change == "reorder" and len(keys) > 1:
            row = dict(reversed(list(row.items())))
        elif change == "drop" and keys:
            row.pop(keys[0])
        elif change == "nest" and keys:
            row[keys[-1]] = draw(st.lists(floats, max_size=3))
        rows.append(row)
    return rows


payloads = st.recursive(
    st.one_of(
        scalars,
        st.lists(floats, max_size=12),
        st.lists(labels, max_size=6),
        st.lists(st.lists(floats, max_size=5), max_size=5),
        records(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(labels, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
@example([])
@example({})
@example([[], {}, ()])
@example([1.5, 2, True, None, "x"])
@example([[0.1, 0.2], [9.999995, -0.0], []])
@example([{"a": 1.0, "b": "x"}, {"b": "y", "a": 2.0}])
@example([{"a": 1.0}, {"a": 2.0, "c": 3.0}])
@example([{"100%": 1.0, "%s": "%d"}, {"100%": math.nan, "%s": "%%"}])
@example([{}, {}])
@example({"walk": [[1e-320, 5e-324], [1e308, -1e308]]})
def test_writer_matches_json_dump(payload):
    assert written(payload) == reference(payload)


@given(st.lists(floats.map(np.float64), max_size=6))
def test_numpy_floats_match_json_dump(values):
    payload = {"values": values, "one": values[0] if values else np.float64(0.5)}
    assert written(payload) == reference(payload)


@pytest.mark.parametrize(
    "bad", [np.int64(3), object(), {(1, 2): 1.0}, [np.bool_(True)], [{"a": {1}}]]
)
def test_unserializable_values_raise_type_error_like_json_dump(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        written(bad)
