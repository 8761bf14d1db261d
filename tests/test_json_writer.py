"""The CLI's JSON and CSV writers against the writers they replaced.

The JSON reference rounds every float to 6 significant digits and hands the
payload to json.dump(indent=2), as the CLI once did; the writer must produce
the same string for every payload, including the shapes its fast paths take
(lists of one scalar type, lists of same-shaped records) and the ones that
fall back (mixed lists, records whose keys or key orders differ). The float
texts, made in one %-format of a whole list, are also checked against the
one-value-at-a-time route they replaced, and records given column by column
(_Columns) against the same list of dicts. The CSV reference writes one row
at a time and formats each float cell on its own.

The writers format each distinct value once, so payloads are also drawn
from a small pool where values repeat: 0.0 beside -0.0, NaN, values with
the same 6-digit text but different bits, and labels holding % and NUL.
Columns held as arrays (a float64 array, or _Labels: names and an index
array, as rankings give them) must print the bytes of the same columns
given as lists, in JSON and in CSV.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsurgeon.cli import _Columns, _emit_csv, _emit_json, _floats, _Labels, _once_each


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

# Values that repeat: 0.1 and its neighbour print alike but differ in bits,
# and a set holds 0.0 and -0.0 as one.
POOL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1,
    float(np.nextafter(0.1, 1.0)), 1.0 / 3.0, 999999.5,
]
POOL_LABELS = ["a0", "b1", "100%", "%s", "\x00", "say\"hi"]
pooled = st.sampled_from(POOL_FLOATS)
pooled_labels = st.sampled_from(POOL_LABELS)
groups = st.lists(pooled_labels, min_size=1, max_size=3)


@st.composite
def pooled_records(draw):
    """Same-shaped records whose values repeat, some fields list-valued."""
    keys = draw(st.lists(pooled_labels, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([pooled, pooled_labels, groups, st.integers(0, 3)])) for _ in keys]
    size = draw(st.integers(1, 30))
    return [{k: draw(kind) for k, kind in zip(keys, kinds)} for _ in range(size)]


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
        st.lists(pooled, max_size=40),
        st.lists(pooled_labels, max_size=20),
        pooled_records(),
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


def floats_one_by_one(values) -> list[str]:
    """The JSON text of each float, one value at a time: repr of the 6-digit rounding."""
    texts = [float.__repr__(float("{:.6g}".format(x))) for x in values]
    return [{"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(t, t) for t in texts]


def _around(p: float) -> list[float]:
    """p, its neighbouring doubles, and values that round to p at 6 digits."""
    near = [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    near += [p * (1 - 4e-7), p * (1 - 5e-7), p * (1 - 6e-7), p * (1 + 5e-7)]
    return [float(x) for x in near]


# Powers of ten where %g or repr changes form: e-5 and e-4 (scientific below),
# e+5 and e+6 (%g goes scientific at 6 digits), e+15 and e+16 (repr does).
SWITCHES = [x for e in (-5, -4, 5, 6, 15, 16) for x in _around(10.0**e)]
MIN_NORMAL = 2.2250738585072014e-308

text_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.floats(-MIN_NORMAL, MIN_NORMAL, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, MIN_NORMAL]),
    st.sampled_from(SWITCHES + [-x for x in SWITCHES]),
    # Decimal halfway cases at the 7th digit: exact in binary (k + 0.5, integers
    # ending in 5) and not (a 7-digit mantissa ending in 5 at any exponent).
    st.integers(100000, 999999).map(lambda k: k + 0.5),
    st.integers(10**6, 10**7 - 1).map(lambda k: float(k - k % 10 + 5)),
    st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(100000, 999999), st.integers(-330, 300)),
    st.integers(-(10**16), 10**16).map(float),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-8, 20)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(text_floats, max_size=30))
@example(SWITCHES)
@example([1e16, 1e15, 999999.5, 123456.5, 1234565.0, 9.999995e15, -0.0, 5e-324])
@example([0.1, float(np.nextafter(0.1, 1.0)), 0.1, -0.0, 0.0])
@example([math.nan, math.nan, float("nan")])
def test_float_texts_match_the_one_at_a_time_route(values):
    assert _floats(values) == floats_one_by_one(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(pooled, text_floats), max_size=60))
def test_pooled_float_texts_match_the_one_at_a_time_route(values):
    assert _floats(values) == floats_one_by_one(values)


@settings(max_examples=150, deadline=None)
@given(records())
@example([{"i": "a", "v": 1.0}, {"i": "b", "v": math.nan}])
@example([{"x": [1.0]}])
@example([{}])
def test_columns_write_as_the_list_of_records(rows):
    keys = list(rows[0])
    rows = [row for row in rows if list(row) == keys]
    fields = {k: [row[k] for row in rows] for k in keys}
    if not keys:
        return  # no columns to hold them
    assert written({"rows": _Columns(fields)}) == reference({"rows": rows})
    empty = {k: [] for k in keys}
    assert written({"rows": _Columns(empty)}) == reference({"rows": []})


def test_zeros_keep_their_sign_among_repeats():
    assert _floats([0.0, -0.0, 0.0, -0.0]) == ["0.0", "-0.0", "0.0", "-0.0"]
    assert _floats([-0.0, 1.5, 0.0, 1.5]) == ["-0.0", "1.5", "0.0", "1.5"]


@st.composite
def repeating(draw, values, specials):
    """A list of values with no, few or many repeats, some specials among
    them: distinct values drawn, then some of them drawn again."""
    distinct = draw(st.lists(values, min_size=1, max_size=40))
    distinct += draw(st.lists(st.sampled_from(specials), max_size=4))
    repeats = draw(st.sampled_from([0, 1, 3, len(distinct), 10 * len(distinct)]))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=repeats, max_size=repeats))
    return draw(st.permutations(distinct + picks))


@settings(max_examples=300, deadline=None)
@given(repeating(text_floats, [0.0, -0.0, math.nan]))
@example([0.0, -0.0, 0.0, math.nan, math.nan, 1.5])
@example([-0.0] * 3 + [0.0] * 3 + [float("nan")] * 2)
def test_floats_with_any_share_of_repeats_match_the_one_at_a_time_route(values):
    assert _floats(values) == floats_one_by_one(values)
    assert written(values) == reference(values)


@settings(max_examples=150, deadline=None)
@given(repeating(labels, POOL_LABELS))
def test_labels_with_any_share_of_repeats_match_json_dump(values):
    assert written(values) == reference(values)
    assert written({"rows": _Columns({"i": values})}) == reference(
        {"rows": [{"i": v} for v in values]})


def formatted(values) -> list:
    """The lists _once_each hands its formatter, for values."""
    calls = []
    _once_each(lambda vs: calls.append(list(vs)) or [repr(v) for v in vs], values)
    return calls


def test_once_each_dedups_only_where_at_most_half_are_distinct():
    few = [0.5 * k for k in range(100)] + [0.0, 1.0, 2.0]
    assert formatted(few) == [few]
    half = [float(k % 50) for k in range(100)]
    assert [sorted(call) for call in formatted(half)] == [sorted(set(half)), [-0.0, 0.0]]
    # 300 labels, each repeated 300 times.
    grid = [f"a{k}" for k in range(300) for _ in range(300)]
    assert [sorted(call) for call in formatted(grid)] == [sorted(set(grid))]


def pooled_table(size: int, seed: int) -> dict:
    """A key-bridge-shaped table of `size` records drawn from the pools, plus
    a key-group-shaped list-valued field."""
    rng = np.random.default_rng(seed)

    def pick(pool, count=size):
        return [pool[k] for k in rng.integers(len(pool), size=count)]

    return {
        "i": pick(POOL_LABELS),
        "j": pick(POOL_LABELS),
        "value": pick(POOL_FLOATS),
        "group": [pick(POOL_LABELS, 1 + k % 3) for k in range(size)],
        "rank": list(range(1, size + 1)),
        "100%": pick(POOL_FLOATS),
    }


@pytest.mark.parametrize("size", [0, 1, 2000])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pooled_columns_write_as_the_list_of_records(size, seed):
    fields = pooled_table(size, seed)
    rows = [dict(zip(fields, row)) for row in zip(*fields.values())]
    assert written({"rows": _Columns(fields), "n": size}) == reference({"rows": rows, "n": size})


def test_ragged_columns_are_refused_naming_the_short_field():
    with pytest.raises(ValueError, match="'value' holds 1 values, not 2"):
        _Columns({"i": ["a", "b"], "value": [1.0], "j": ["c", "d"]})


def csv_cell_by_cell(header, rows) -> str:
    """The CSV the CLI once wrote: one row at a time, each float cell through
    its own 6-digit format."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])
    return out.getvalue()


def csv_written(fields: dict) -> str:
    out = io.StringIO()
    _emit_csv(_Columns(fields), out)
    return out.getvalue()


@st.composite
def csv_tables(draw):
    keys = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    size = draw(st.integers(0, 12))
    kinds = [pooled, floats, text_floats, labels, pooled_labels, st.integers(), scalars]
    fields = {}
    for key in keys:
        kind = draw(st.sampled_from(kinds))
        fields[key] = draw(st.lists(kind, min_size=size, max_size=size))
    return fields


@settings(max_examples=200, deadline=None)
@given(csv_tables())
@example({"label": ["a", "aggregate"], "b": [1.5, 2.0], "self_loop": [1.25, ""]})
@example({"v": [0.0, -0.0, 0.0, math.nan, math.nan, 1e16, 1e-5]})
@example({"v": []})
def test_csv_matches_the_cell_by_cell_writer(fields):
    assert csv_written(fields) == csv_cell_by_cell(list(fields), zip(*fields.values()))


@pytest.mark.parametrize("size", [1, 2000])
def test_pooled_csv_matches_the_cell_by_cell_writer(size):
    fields = pooled_table(size, seed=size)
    fields["group"] = [" ".join(group) for group in fields["group"]]
    assert csv_written(fields) == csv_cell_by_cell(list(fields), zip(*fields.values()))


# Floats an array column may hold: both zeros, integral values, the decimal
# exponents 6 to 15 where %g and repr differ in form, subnormals, non-finite
# values, and values with one 6-digit text but different bits.
ARRAY_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 42.0, 1e6, 2.5e9, 1e15, -1e15, 9.999995e14, 1234567.0, 1e16,
    5e-324, -5e-324, 1e-310, MIN_NORMAL, math.nan, math.inf, -math.inf,
    0.1, float(np.nextafter(0.1, 1.0)), 1.0 / 3.0, 999999.5,
]
ARRAY_LABELS = ['say"hi', "back\\slash", "a,b", "José", "\U0001F600", "ü,\"", "100%", "a0", ""]


@st.composite
def array_tables(draw):
    """Fields of float arrays and _Labels columns, with few or no repeats."""
    size = draw(st.integers(0, 60))
    names = tuple(draw(st.lists(st.one_of(st.sampled_from(ARRAY_LABELS), labels),
                                min_size=1, max_size=8)))
    fields = {}
    for key in draw(st.lists(pooled_labels, min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):
            pool = draw(st.lists(st.one_of(st.sampled_from(ARRAY_FLOATS), text_floats),
                                 min_size=1, max_size=size + 1))
            values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
            fields[key] = np.array(values, dtype=np.float64)
        else:
            at = draw(st.lists(st.integers(0, len(names) - 1), min_size=size, max_size=size))
            fields[key] = _Labels(names, np.array(at, dtype=np.intp))
    return fields


def as_lists(fields: dict) -> dict:
    """The same columns as lists of floats and of labels."""
    return {key: column.tolist() if isinstance(column, np.ndarray) else
            [column.names[t] for t in column.at.tolist()] for key, column in fields.items()}


def assert_arrays_print_as_lists(fields: dict) -> None:
    lists = as_lists(fields)
    rows = [dict(zip(lists, row)) for row in zip(*lists.values())]
    assert written({"rows": _Columns(fields)}) == written({"rows": _Columns(lists)})
    assert written({"rows": _Columns(fields)}) == reference({"rows": rows})
    assert csv_written(fields) == csv_written(lists)
    assert csv_written(fields) == csv_cell_by_cell(list(lists), zip(*lists.values()))


@settings(max_examples=300, deadline=None)
@given(array_tables())
@example({"v": np.array([0.0, -0.0, 0.0, -0.0, 1.5, 1.5])})
@example({"v": np.array([-0.0, math.nan, math.nan, -math.inf, 5e-324, -0.0, 1e15])})
@example({"v": np.zeros(0), "i": _Labels(("a",), np.zeros(0, dtype=np.intp))})
@example({"i": _Labels(('say"hi', "a,b", "José"), np.array([2, 0, 1, 2, 0]))})
def test_array_columns_print_as_their_lists(fields):
    assert_arrays_print_as_lists(fields)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_key_bridge_sized_grid_prints_as_its_lists(seed):
    # 8,100 records, as on two 90-node circulants: each float column holds a
    # handful of values, zeros of both signs among them, and each label
    # repeats 90 times.
    rng = np.random.default_rng(seed)
    floats = np.array(ARRAY_FLOATS)
    names = tuple(f"{label}{k}" for k, label in enumerate(ARRAY_LABELS * 10))
    fields = {
        "i": _Labels(names, np.repeat(rng.permutation(90), 90)),
        "j": _Labels(names[::-1], np.tile(rng.permutation(90), 90)),
        "index": floats[rng.integers(len(floats), size=8100)],
        "predicted": rng.choice([0.0, -0.0, 12.5, 1e7], size=8100),
    }
    assert_arrays_print_as_lists(fields)


def test_labels_columns_give_their_labels():
    column = _Labels(("x", "y", "z"), np.array([2, 2, 0]))
    assert len(column) == 3 and [column[t] for t in range(3)] == ["z", "z", "x"]
