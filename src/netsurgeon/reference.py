"""Bundled benchmark networks with frozen expected values.

Seven numbered reference tables pin down self-loops, centralities, removal
values, bridge scores, and post-intervention aggregates on five small
networks. A fixture counts as trusted only while every cell of every table
that touches it reproduces within its stated tolerance; the tests and the
`reproduce` CLI subcommand both route through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .bridge import bridge_index
from .centrality import katz_bonacich
from .graphs import GameSpec, InputError, Network, NodeSet, certify, parse_edge_list
from .intervene import StructuralIntervention, structural_effect
from .keygroup import intercentrality

FIXTURES = ("regular10", "star7", "star17", "twohub9", "twocycles8")

# Tables a fixture anchors; it is trusted only when all of them pass.
FIXTURE_TABLES = {
    "regular10": (1, 2),
    "star7": (3, 4, 5, 6),
    "star17": (6,),
    "twohub9": (3, 4, 5, 6),
    "twocycles8": (7,),
}

TABLE_IDS = (1, 2, 3, 4, 5, 6, 7)

CELL_TOL = 1e-3

_TABLE1 = (("1", 1.1688, 5.3474), ("2", 1.1981, 5.2166), ("3", 1.2162, 5.1390))

_TABLE2 = (
    (("1", "2"), 8.4725),
    (("1", "3"), 9.3419),
    (("1", "6"), 8.7506),
    (("1", "7"), 10.0150),
    (("1", "8"), 10.2081),
    (("2", "3"), 8.0331),
    (("2", "5"), 8.9529),
    (("2", "7"), 10.2938),
    (("2", "8"), 10.2863),
    (("3", "4"), 7.8174),
    (("3", "8"), 10.2431),
)

# Per-node measures at the two synergy weights; rows keyed by fixture label.
_MEASURES = {
    0.25: (
        ("a1", 1.5686, 4.7059),
        ("a2", 1.5980, 4.6765),
        ("a31", 1.2686, 3.2059),
        ("a41", 1.4255, 4.1471),
        ("a51", 1.0980, 2.1765),
        ("h", 1.7778, 4.8889),
        ("l1", 1.1111, 2.2222),
    ),
    0.23: (
        ("a1", 1.4213, 3.8423),
        ("a2", 1.4300, 3.7545),
        ("a31", 1.1969, 2.6348),
        ("a41", 1.3063, 3.3533),
        ("a51", 1.0752, 1.8837),
        ("h", 1.5881, 4.1448),
        ("l1", 1.0840, 1.9533),
    ),
}

_BRIDGES = {
    0.25: (("a1", 78.9970), ("a2", 79.0258)),
    0.23: (("a1", 48.6711), ("a2", 47.6461)),
}

# Enlarged periphery: 17 leaves, synergy weight 0.23. The bridge scores were
# published rounded to integers and the hub centrality to two decimals.
_ENLARGED_HUB_B = 48.76
_ENLARGED_BRIDGES = (("a1", 4680.0, 1.0), ("a2", 4744.0, 1.0))

_TABLE7 = (
    ("add 2-5", (("2", "5"),), 15.4198),
    ("add 2-3", (("2", "3"),), 15.4689),
    ("add 2-3 2-5", (("2", "3"), ("2", "5")), 17.7010),
    ("add 1-4 2-3", (("1", "4"), ("2", "3")), 17.7074),
    ("add 2-5 2-7", (("2", "5"), ("2", "7")), 17.7547),
)


def load_fixture(name: str) -> Network:
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    path = resources.files("netsurgeon").joinpath(f"fixtures/{name}.txt")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(
            f"fixture file {name}.txt is missing from the installed package; "
            "restore it from the source tree before reproducing tables"
        ) from None
    return parse_edge_list(text)


@dataclass(frozen=True)
class CellCheck:
    """One recomputed numeric cell against its frozen expectation."""

    table: int
    row: str
    quantity: str
    expected: float
    actual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(abs(self.actual - self.expected) <= self.tolerance)


@dataclass(frozen=True)
class TableReport:
    table: int
    cells: tuple[CellCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)


def _regular10_spec(delta: float = 0.2) -> GameSpec:
    return certify(load_fixture("regular10"), delta)


def _table_1() -> tuple[CellCheck, ...]:
    spec = _regular10_spec()
    report = katz_bonacich(spec)
    cells = []
    for label, m_exp, d_exp in _TABLE1:
        i = spec.network.index_of(label)
        d = intercentrality(spec, NodeSet.of([i], spec.n)).intercentrality
        cells.append(CellCheck(1, label, "self_loop", m_exp, report.self_loops[i], CELL_TOL))
        cells.append(CellCheck(1, label, "removal_value", d_exp, d, CELL_TOL))
    return tuple(cells)


def _table_2() -> tuple[CellCheck, ...]:
    spec = _regular10_spec()
    cells = []
    for (u, v), d_exp in _TABLE2:
        s = NodeSet.of_labels(spec.network, (u, v))
        d = intercentrality(spec, s).intercentrality
        cells.append(CellCheck(2, f"{u},{v}", "removal_value", d_exp, d, CELL_TOL))
    return tuple(cells)


def _component_specs(delta: float, star: str = "star7") -> tuple[GameSpec, GameSpec]:
    return certify(load_fixture(star), delta), certify(load_fixture("twohub9"), delta)


def _measure_cells(table: int, delta: float) -> tuple[CellCheck, ...]:
    star, hub = _component_specs(delta)
    reports = {lab: (katz_bonacich(sp), sp) for lab, sp in (("star", star), ("hub", hub))}
    cells = []
    for label, m_exp, b_exp in _MEASURES[delta]:
        which = "star" if label in star.network.labels else "hub"
        rep, sp = reports[which]
        i = sp.network.index_of(label)
        cells.append(CellCheck(table, label, "self_loop", m_exp, rep.self_loops[i], CELL_TOL))
        cells.append(CellCheck(table, label, "centrality", b_exp, rep.b[i], CELL_TOL))
    return tuple(cells)


def _bridge_cells(table: int, delta: float) -> tuple[CellCheck, ...]:
    star, hub = _component_specs(delta)
    cells = []
    for target, l_exp in _BRIDGES[delta]:
        score = bridge_index(star, hub, "h", target)
        cells.append(CellCheck(table, f"h-{target}", "bridge_index", l_exp, score.index, CELL_TOL))
    if table == 6:
        big, hub23 = _component_specs(0.23, star="star17")
        b_h = float(katz_bonacich(big).b[big.network.index_of("h")])
        cells.append(CellCheck(6, "h (17 leaves)", "centrality", _ENLARGED_HUB_B, b_h, 0.01))
        for target, l_exp, tol in _ENLARGED_BRIDGES:
            score = bridge_index(big, hub23, "h", target)
            cells.append(
                CellCheck(6, f"h-{target} (17 leaves)", "bridge_index", l_exp, score.index, tol)
            )
    return tuple(cells)


def _table_7() -> tuple[CellCheck, ...]:
    net = load_fixture("twocycles8")
    spec = certify(net, 0.21)
    base = float(spec.b.sum())
    cells = []
    for row, links, agg_exp in _TABLE7:
        iv = StructuralIntervention.from_label_pairs(net, add=links)
        after = base + structural_effect(spec, iv).delta_aggregate
        cells.append(CellCheck(7, row, "aggregate", agg_exp, after, CELL_TOL))
    return tuple(cells)


def reproduce(table_id: int) -> TableReport:
    """Recompute every cell of one reference table and report the diffs."""
    builders = {
        1: _table_1,
        2: _table_2,
        3: lambda: _measure_cells(3, 0.25),
        4: lambda: _bridge_cells(4, 0.25),
        5: lambda: _measure_cells(5, 0.23),
        6: lambda: _bridge_cells(6, 0.23),
        7: _table_7,
    }
    if table_id not in builders:
        raise InputError(f"table must be one of {TABLE_IDS}, got {table_id}")
    return TableReport(table_id, builders[table_id]())


def fixture_is_valid(name: str) -> bool:
    """True when every table anchored to this fixture reproduces fully."""
    if name not in FIXTURE_TABLES:
        raise InputError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return all(reproduce(t).ok for t in FIXTURE_TABLES[name])
