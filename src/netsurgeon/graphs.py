"""Graph representation, edge-list parsing, and spectral certification.

Networks are labeled, undirected, simple 0/1 graphs stored densely. Node
indices are the ranks of the labels under natural order (all-digit labels
compare numerically and come first, the rest lexicographically), so every
downstream argmax and tie-break is deterministic across runs and matches
how people number nodes.

Certification is exact: weight w passes at scale s when the Cholesky
factorization of s (1 - SPECTRAL_MARGIN) I - w G succeeds, which for w > 0
is the condition w * lambda_max < s (1 - SPECTRAL_MARGIN), with no
iteration. lambda_max itself is computed only to word a rejection, or on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.linalg.lapack import dpotri

# Safety margin on the spectral condition delta * lambda_max < 1. Keeps
# (I - delta G) well conditioned for every downstream solve.
SPECTRAL_MARGIN = 1e-9

# Two scores this close count as tied and fall through to the lexicographic
# rule, so automorphic nodes rank identically despite rounding noise.
NEAR_TIE = 1e-9


class NetsurgeonError(Exception):
    """Base class for all library errors."""


class InputError(NetsurgeonError, ValueError):
    """Invalid user input: bad files, illegal parameters, failed preconditions."""


class GraphFormatError(InputError):
    """Malformed edge-list text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SpectralConditionError(InputError):
    """delta * lambda_max(G) exceeds the certified range."""

    def __init__(self, delta: float, lambda_max: float):
        self.delta = delta
        self.lambda_max = lambda_max
        self.max_delta = (1.0 - SPECTRAL_MARGIN) / lambda_max if lambda_max > 0 else float("inf")
        super().__init__(
            f"spectral condition violated: delta={delta:g} with lambda_max={lambda_max:.6g} "
            f"requires delta < {self.max_delta:.6g}"
        )


class InternalCheckError(NetsurgeonError):
    """An internal identity or guard failed; signals a bug, not bad input."""


def label_key(label: str) -> tuple[int, int, str]:
    """Natural sort key for node labels.

    All-digit labels compare by numeric value and precede everything else;
    remaining labels compare lexicographically. Keeps "10" after "2" so
    tie-breaks on numerically named nodes match the obvious ordering.
    """
    if label.isdigit():
        return (0, int(label), label)
    return (1, 0, label)


def rank_order(values: np.ndarray, keys: tuple, tie: float = NEAR_TIE) -> np.ndarray:
    """Positions of values, best first.

    A run of values whose consecutive gaps stay within tie * max(1, |v|), v
    the run's first value, counts as tied and is ordered by the key arrays,
    compared lexicographically. tie = 0 ties equal values only.
    """
    order = np.lexsort(keys[::-1] + (-values,))
    v = values[order]
    gap = v[:-1] - v[1:]
    # Only a gap within the loosest tolerance can join two values into a run.
    near = np.flatnonzero(gap <= tie * max(1.0, float(np.abs(v).max(initial=0.0))))
    end = 0
    for start in near:
        if start < end:
            continue
        limit = tie * max(1.0, abs(v[start]))
        end = start + 1
        while end < len(v) and gap[end - 1] <= limit:
            end += 1
        run = order[start:end]
        order[start:end] = run[np.lexsort(tuple(k[run] for k in keys[::-1]))]
    return order


@dataclass(frozen=True, eq=False)
class Network:
    """Undirected simple graph over string labels in natural order."""

    labels: tuple[str, ...]
    adjacency: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash(self.labels)

    def __post_init__(self):
        a = self.adjacency
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InputError("duplicate node labels")
        if tuple(sorted(self.labels, key=label_key)) != self.labels:
            raise InputError("labels must be given in natural order")
        if a.shape != (n, n):
            raise InputError(f"adjacency shape {a.shape} does not match {n} labels")
        if not np.array_equal(a, a.T):
            raise InputError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise InputError("self-loops are not allowed")
        if not np.all((a == 0) | (a == 1)):
            raise InputError("adjacency entries must be 0 or 1")
        a.flags.writeable = False

    @staticmethod
    def from_edges(edges, isolated=()) -> "Network":
        """Build a Network from (label, label) pairs plus optional isolated nodes."""
        names = set(isolated)
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop on node {u!r}")
            names.add(u)
            names.add(v)
        labels = tuple(sorted(names, key=label_key))
        index = {lab: i for i, lab in enumerate(labels)}
        a = np.zeros((len(labels), len(labels)))
        for u, v in edges:
            a[index[u], index[v]] = 1.0
            a[index[v], index[u]] = 1.0
        return Network(labels, a)

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise InputError(f"unknown node label {label!r}") from None

    def degree(self, i: int) -> int:
        return int(self.adjacency[i].sum())

    def edges(self) -> list[tuple[str, str]]:
        """Edges as (min-label, max-label) pairs, ascending."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.adjacency[i, j]:
                    out.append((self.labels[i], self.labels[j]))
        return sorted(out, key=lambda e: (label_key(e[0]), label_key(e[1])))

    def serialize(self) -> str:
        lines = [f"{u} {v}" for u, v in self.edges()]
        touched = {u for e in self.edges() for u in e}
        lines.extend(lab for lab in self.labels if lab not in touched)
        return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Network:
    """Parse "u v" lines into a Network.

    `#` starts a comment; a line holding a single label declares an isolated
    node; duplicate edges collapse. Self-loops are rejected.
    """
    edges = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            isolated.append(parts[0])
        elif len(parts) == 2:
            u, v = parts
            if u == v:
                raise GraphFormatError(f"self-loop on node {u!r}", lineno)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"expected 'u v', got {raw.strip()!r}", lineno)
    if not edges and not isolated:
        raise InputError("empty edge list")
    return Network.from_edges(edges, isolated)


def load_network(path) -> Network:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc.strerror or exc}") from exc


def spectral_radius(net: Network) -> float:
    """Largest eigenvalue of the adjacency matrix.

    One LAPACK eigenvalue, exact to rounding. Certification never needs it;
    it words rejections and answers direct queries.
    """
    a = net.adjacency
    n = net.n
    if n == 0 or not a.any():
        return 0.0
    return float(eigh(a, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


def is_positive_definite(matrix: np.ndarray) -> bool:
    """Whether a symmetric matrix has a Cholesky factor; overwrites matrix.

    Its transpose is the same matrix in Fortran order, which LAPACK factors
    in place rather than through a second n x n copy.
    """
    try:
        cho_factor(matrix.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        return False
    return True


def within_bound(net: Network, weight: float, scale: float = 1.0) -> bool:
    """The spectral certificate: weight * lambda_max(G) < scale * (1 - margin).

    Exact for weight >= 0 and finite scale > 0; an infinite weight fails.
    """
    if not np.isfinite(weight):
        return False
    system = -weight * net.adjacency
    system[np.diag_indices(net.n)] = scale * (1.0 - SPECTRAL_MARGIN)
    return is_positive_definite(system)


def links_within_bound(net: Network, weight: float, rows, cols) -> np.ndarray:
    """Whether each absent link (rows[t], cols[t]) keeps within_bound(net + link, weight).

    With W = ((1 - margin) I - weight G)^-1, one factor and one inverse for
    all pairs, adding link ij keeps the system positive definite exactly when
    weight (w_ij + sqrt(w_ii w_jj)) < 1 (inertia additivity on the rank-two
    update). Exact up to rounding at the bound; all False if net itself fails.
    """
    system = -weight * net.adjacency
    system[np.diag_indices(net.n)] = 1.0 - SPECTRAL_MARGIN
    try:
        low = cho_factor(system.T, lower=True, overwrite_a=True)[0]
    except np.linalg.LinAlgError:
        return np.zeros(len(rows), dtype=bool)
    w = dpotri(low, lower=True, overwrite_c=True)[0]  # W in the lower triangle
    w_ii, w_jj = np.diag(w)[rows], np.diag(w)[cols]
    w_ij = w[np.maximum(rows, cols), np.minimum(rows, cols)]
    return w_ij + np.sqrt(w_ii * w_jj) < 1.0 / weight


@dataclass(frozen=True)
class NodeSet:
    """Sorted, duplicate-free internal node indices."""

    members: tuple[int, ...]

    def __post_init__(self):
        m = self.members
        if list(m) != sorted(set(m)):
            raise InputError(f"node set must be sorted and duplicate-free, got {m}")
        if m and (m[0] < 0):
            raise InputError(f"negative node index in {m}")

    @staticmethod
    def of(indices, n: int | None = None) -> "NodeSet":
        s = NodeSet(tuple(sorted(set(int(i) for i in indices))))
        if n is not None and s.members and s.members[-1] >= n:
            raise InputError(f"node index {s.members[-1]} out of range for n={n}")
        return s

    @staticmethod
    def of_labels(net: Network, labels) -> "NodeSet":
        return NodeSet.of((net.index_of(lab) for lab in labels), net.n)

    def complement(self, n: int) -> "NodeSet":
        inside = set(self.members)
        return NodeSet(tuple(i for i in range(n) if i not in inside))

    def labels(self, net: Network) -> tuple[str, ...]:
        return tuple(net.labels[i] for i in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, i) -> bool:
        return i in self.members


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A certified game: network, characteristics theta, synergy delta.

    Construct through certify(); direct construction skips the spectral check.
    The Cholesky factorization of (I - delta G) is cached and shared by every
    solve against this spec (read-only, safe across threads). lambda_max is
    computed on first read unless it was passed in.
    """

    network: Network
    theta: np.ndarray = field(repr=False)
    delta: float
    _lambda_max: float | None = field(default=None, repr=False)

    @cached_property
    def lambda_max(self) -> float:
        return spectral_radius(self.network) if self._lambda_max is None else self._lambda_max

    @cached_property
    def _factor(self):
        n = self.network.n
        return cho_factor(np.eye(n) - self.delta * self.network.adjacency, lower=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - delta G) x = rhs; rhs may be a vector or a matrix of columns."""
        try:
            return cho_solve(self._factor, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - barred by certification
            raise InternalCheckError(f"solve failed on certified spec: {exc}") from exc

    @cached_property
    def b_unit(self) -> np.ndarray:
        """Unweighted centralities (I - delta G)^-1 1, read-only."""
        b = self.solve(np.ones(self.n))
        b.flags.writeable = False
        return b

    def influence(self) -> np.ndarray:
        """M = (I - delta G)^-1, made afresh by each call: n^2 floats are not kept."""
        return self.solve(np.eye(self.n))

    @property
    def n(self) -> int:
        return self.network.n

    def with_theta(self, theta: np.ndarray) -> "GameSpec":
        theta = check_theta(theta, self.n)
        spec = GameSpec(self.network, theta, self.delta, self._lambda_max)
        # Same network and delta, so the cached factorization carries over.
        spec.__dict__["_factor"] = self._factor
        return spec

    def theta_is_ones(self) -> bool:
        return bool(np.all(self.theta == 1.0))


def check_theta(theta, n: int, name: str = "theta") -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n,):
        raise InputError(f"{name} must have shape ({n},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise InputError(f"{name} must be finite")
    out = theta.copy()
    out.flags.writeable = False
    return out


def certify(net: Network, delta: float, theta=None) -> GameSpec:
    """Certify delta * lambda_max(G) < 1 - margin and build the GameSpec.

    theta defaults to the all-ones vector.
    """
    if not 0 < delta < np.inf:
        raise InputError(f"delta must be positive and finite, got {delta:g}")
    if not within_bound(net, delta):
        raise SpectralConditionError(delta, spectral_radius(net))
    if theta is None:
        theta = np.ones(net.n)
    return GameSpec(net, check_theta(theta, net.n), float(delta))


def embed(values: np.ndarray, support: NodeSet, n: int) -> np.ndarray:
    """Scatter values on a support set into a full-length vector."""
    out = np.zeros(n)
    out[list(support.members)] = values
    return out
