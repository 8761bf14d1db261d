"""Leontief-inverse and Katz-Bonacich computations.

b(G, theta, delta) = (I - delta G)^-1 theta is the unique equilibrium of the
baseline game; entry m_ij of M(G) = (I - delta G)^-1 is the discounted count
of walks from i to j. Everything here runs against the game's cached
factorization, never an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import GameSpec, NodeSet


@dataclass(frozen=True, eq=False)
class CentralityReport:
    labels: tuple[str, ...]
    b: np.ndarray = field(repr=False)             # theta-weighted
    b_unweighted: np.ndarray = field(repr=False)  # theta = 1
    self_loops: np.ndarray = field(repr=False)    # m_ii
    aggregate: float

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "b": [float(x) for x in self.b],
            "self_loops": [float(x) for x in self.self_loops],
            "aggregate": float(self.aggregate),
        }


@dataclass(frozen=True, eq=False)
class LeontiefBlock:
    rows: NodeSet
    cols: NodeSet
    values: np.ndarray = field(repr=False)


def katz_bonacich(spec: GameSpec) -> CentralityReport:
    """Equilibrium actions, unweighted centralities, and self-loops m_ii."""
    n = spec.n
    b = spec.solve(spec.theta)
    b_unw = spec.b_unit
    # Self-loops are the diagonal of the solves for all unit right-hand sides.
    self_loops = np.diag(spec.influence()).copy() if n else np.zeros(0)
    return CentralityReport(spec.network.labels, b, b_unw, self_loops, float(b.sum()))


def leontief_block(spec: GameSpec, rows: NodeSet, cols: NodeSet) -> LeontiefBlock:
    """M_{rows,cols}: one solve per column index, rows sliced from the result."""
    n = spec.n
    col_idx = list(cols.members)
    rhs = np.zeros((n, len(col_idx)))
    for k, j in enumerate(col_idx):
        rhs[j, k] = 1.0
    full_cols = spec.solve(rhs)
    values = full_cols[list(rows.members), :]
    return LeontiefBlock(rows, cols, values)


def leontief_matrix(spec: GameSpec) -> np.ndarray:
    """The full M(G); used where many blocks of one spec are needed."""
    return spec.influence()
