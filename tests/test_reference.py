"""Frozen reference tables and the fixture-validation gate."""

import io
import json

import pytest

from netsurgeon import (
    InputError,
    TABLE_IDS,
    cli,
    fixture_is_valid,
    load_fixture,
    reproduce,
)
from netsurgeon.reference import FIXTURE_TABLES, FIXTURES, CellCheck


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_every_table_reproduces(table_id):
    report = reproduce(table_id)
    bad = [c for c in report.cells if not c.ok]
    assert report.ok, f"table {table_id} cells off: {bad}"
    assert len(report.cells) > 0


def test_table2_lists_eleven_pairs():
    assert len(reproduce(2).cells) == 11


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_pass_their_gate(name):
    # A fixture is trusted only when every anchored table passes.
    assert fixture_is_valid(name)
    assert FIXTURE_TABLES[name]


def test_unknown_fixture_rejected():
    with pytest.raises(InputError, match="unknown fixture"):
        load_fixture("mystery9")
    with pytest.raises(InputError, match="unknown fixture"):
        fixture_is_valid("mystery9")


def test_unknown_table_rejected():
    with pytest.raises(InputError, match="table"):
        reproduce(8)


def test_cell_check_boundary():
    assert CellCheck(1, "r", "q", 1.0, 1.0009, 1e-3).ok
    assert not CellCheck(1, "r", "q", 1.0, 1.0011, 1e-3).ok


def test_report_json_shape():
    out = io.StringIO()
    assert cli.run(["reproduce", "--table", "4", "--format", "json"], out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["table"] == 4
    assert payload["ok"] is True
    cell = payload["cells"][0]
    assert set(cell) == {"table", "row", "quantity", "expected", "actual", "tolerance", "ok"}


def test_fixture_labels_stay_sorted():
    for name in FIXTURES:
        net = load_fixture(name)
        assert net.n > 0
        # loaders route through the same natural-order constructor
        assert net.labels == load_fixture(name).labels
