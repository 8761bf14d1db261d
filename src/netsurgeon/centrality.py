"""Leontief-inverse and Katz-Bonacich computations.

b(G, theta, delta) = (I - delta G)^-1 theta is the unique equilibrium of the
baseline game; entry m_ij of M(G) = (I - delta G)^-1 is the discounted count
of walks from i to j. Everything here reads the game's cached
factorization: the centralities through solves, and the self-loops m_ii from
the inverse of the Cholesky factor. Blocks of M come from GameSpec itself:
columns(idx) for a few columns, influence() for all of M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import GameSpec


@dataclass(frozen=True, eq=False)
class CentralityReport:
    labels: tuple[str, ...]
    b: np.ndarray = field(repr=False)             # theta-weighted
    b_unweighted: np.ndarray = field(repr=False)  # theta = 1
    self_loops: np.ndarray = field(repr=False)    # m_ii
    aggregate: float


def katz_bonacich(spec: GameSpec) -> CentralityReport:
    """Equilibrium actions, unweighted centralities, and self-loops m_ii."""
    b = spec.b.copy()
    return CentralityReport(spec.network.labels, b, spec.b_unit, spec.self_loops, float(b.sum()))
