"""Graph representation, edge-list parsing, and spectral certification.

Networks are labeled, undirected, simple 0/1 graphs stored densely as
float64. Node indices are the ranks of the labels under natural order
(all-digit labels compare numerically and come first, the rest
lexicographically), so every downstream argmax and tie-break is
deterministic across runs and matches how people number nodes.

Certification is exact and reads the solver's own factor. For delta > 0 and
a 0/1 G, a positive-definite I - delta G has an entrywise nonnegative
inverse M (Perron-Frobenius), so 1 / (1 - delta lambda_max) = lambda_max(M)
is at most the largest row sum of M, max(b_unit). certify factors
I - delta G once, for good: a failed factor rejects, and max(b_unit) < 1e8
accepts, because then delta * lambda_max < 1 - 1e-8 clears the margin.
Only the sliver in between runs the margin test itself (within_bound: the
Cholesky factorization of s (1 - SPECTRAL_MARGIN) I - w G succeeds exactly
when w * lambda_max < s (1 - SPECTRAL_MARGIN)). A change C to the links
among nodes S is certified the same way from the columns M[:, S] alone
(certify_local), and only its sliver factors the changed n x n system
(certify_change). lambda_max itself is computed only to word a rejection,
or on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.linalg.lapack import dpotri, dtrtri

# Safety margin on the spectral condition delta * lambda_max < 1. Keeps
# (I - delta G) well conditioned for every downstream solve.
SPECTRAL_MARGIN = 1e-9

# A certified game whose influence matrix has every row sum below this clears
# the margin tenfold: 1 - delta * lambda_max >= 1 / max row sum > 1e-8.
ROW_SUM_BOUND = 1e8

# Two scores this close count as tied and fall through to the lexicographic
# rule, so automorphic nodes rank identically despite rounding noise.
NEAR_TIE = 1e-9

# Rows per step when an n x n matrix is worked on a strip at a time (filling
# the second triangle of a LAPACK inverse, comparing two routes' results);
# bounds the temporaries to one strip of the matrix.
STRIP = 256


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


def rank_order(values: np.ndarray, keys: tuple) -> np.ndarray:
    """Positions of values, best first.

    A run of values whose consecutive gaps stay within NEAR_TIE * max(1, |v|),
    v the run's first value, counts as tied and is ordered by the key arrays,
    compared lexicographically.
    """
    order = np.lexsort(keys[::-1] + (-values,))
    v = values[order]
    gap = v[:-1] - v[1:]
    # Only a gap within the loosest tolerance can join two values into a run.
    near = np.flatnonzero(gap <= NEAR_TIE * max(1.0, float(np.abs(v).max(initial=0.0))))
    end = 0
    for start in near:
        if start < end:
            continue
        limit = NEAR_TIE * max(1.0, abs(v[start]))
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
        a = np.asarray(self.adjacency)
        if a.dtype.kind not in "biuf":
            raise InputError(f"adjacency must be a numeric 0/1 array, got dtype {a.dtype}")
        # Every solver assumes a float64 G: boolean matmul or integer scaling
        # in place would compute something else.
        a = a.astype(np.float64, copy=False)
        object.__setattr__(self, "adjacency", a)
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
        edges = list(edges)
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop on node {u!r}")
        ends = list(itertools.chain.from_iterable(edges))
        labels = tuple(sorted(set(isolated).union(ends), key=label_key))
        index = {lab: i for i, lab in enumerate(labels)}
        at = np.fromiter(map(index.__getitem__, ends), dtype=np.intp, count=len(ends))
        a = np.zeros((len(labels), len(labels)))
        a[at[0::2], at[1::2]] = 1.0
        a[at[1::2], at[0::2]] = 1.0
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
        # Indices rank labels in natural order, so row-major order is label order.
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        return [(self.labels[i], self.labels[j]) for i, j in zip(rows.tolist(), cols.tolist())]

    def serialize(self) -> str:
        edges = self.edges()
        lines = [f"{u} {v}" for u, v in edges]
        touched = {u for e in edges for u in e}
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


def _bound_system(net: Network, weight: float, scale: float = 1.0) -> np.ndarray:
    """scale (1 - margin) I - weight G, a fresh array."""
    system = -weight * net.adjacency
    system[np.diag_indices(net.n)] = scale * (1.0 - SPECTRAL_MARGIN)
    return system


def within_bound(net: Network, weight: float, scale: float = 1.0) -> bool:
    """The spectral certificate: weight * lambda_max(G) < scale * (1 - margin).

    Exact for weight >= 0 and finite scale > 0; an infinite weight fails.
    """
    if not np.isfinite(weight):
        return False
    return is_positive_definite(_bound_system(net, weight, scale))


def certify_change(net: Network, weight: float, changes) -> None:
    """Raise SpectralConditionError unless net, changed, passes within_bound at weight.

    changes are signed link changes (i, j, +1 create / -1 delete), legal for
    net. The certificate system of the changed network is written over net's
    entry for entry, with within_bound's arithmetic, and tested in place; the
    changed network is built only to word a refusal.
    """
    if np.isfinite(weight):
        system = _bound_system(net, weight)
        for i, j, sign in changes:
            system[i, j] = system[j, i] = -weight * (net.adjacency[i, j] + sign)
        if is_positive_definite(system):
            return
    changed = net.adjacency.copy()
    for i, j, sign in changes:
        changed[i, j] = changed[j, i] = net.adjacency[i, j] + sign
    raise SpectralConditionError(weight, spectral_radius(Network(net.labels, changed)))


def fill_upper(a: np.ndarray, mirror: bool) -> np.ndarray:
    """Overwrite the strict upper triangle of square a: the lower one mirrored, or zeros.

    LAPACK's inverses fill one triangle and leave the other as they found it.
    This completes them in place, strip by strip, with no second n x n array.
    """
    n = len(a)
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
        block = a[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        block[upper] = block.T[upper] if mirror else 0.0
        a[lo:hi, hi:] = a[hi:, lo:hi].T if mirror else 0.0
    return a


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
    The Cholesky factorization I - delta G = L L^T, which certify made and
    tested, is cached, read-only, and shared by every solve against this
    spec. Queries read what they need of M = (I - delta G)^-1 through it:
    columns(idx) solves for |idx| columns, O(n^2 |idx|); influence() inverts
    the factor by LAPACK dpotri, about 2n^3/3 flops, and is not kept. The two
    routes round differently, so columns(idx) and influence()[:, idx] can
    differ in the last bit. self_loops, the diagonal of M, comes from L^-1
    (dtrtri, about n^3/3 flops). It and the centralities b_unit (theta = 1)
    and b (this theta) are cached and read-only. lambda_max is computed on
    first read unless it was passed in.
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
        # np.eye(n) - delta * G bit for bit, in one array factored in place.
        system = self.delta * self.network.adjacency
        np.subtract(0.0, system, out=system)
        system[np.diag_indices(self.n)] = 1.0
        low, lower = cho_factor(system.T, lower=True, overwrite_a=True)
        low.flags.writeable = False
        return low, lower

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - delta G) x = rhs; rhs may be a vector or a matrix of columns.

        A non-finite rhs raises ValueError. The factor is finite by
        construction, so it is not scanned again on every solve.
        """
        rhs = np.asarray_chkfinite(rhs)
        try:
            return cho_solve(self._factor, rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - barred by certification
            raise InternalCheckError(f"solve failed on certified spec: {exc}") from exc

    @cached_property
    def b_unit(self) -> np.ndarray:
        """Unweighted centralities (I - delta G)^-1 1, read-only."""
        b = self.solve(np.ones(self.n))
        b.flags.writeable = False
        return b

    @cached_property
    def b(self) -> np.ndarray:
        """Weighted centralities (I - delta G)^-1 theta, the equilibrium; read-only."""
        b = self.solve(self.theta)
        b.flags.writeable = False
        return b

    def columns(self, idx) -> np.ndarray:
        """M[:, idx] for a sequence of node indices, through one solve on unit columns."""
        idx = np.asarray(idx, dtype=np.intp)
        rhs = np.zeros((self.n, idx.size))
        rhs[idx, np.arange(idx.size)] = 1.0
        return self.solve(rhs)

    def _inverted_factor(self, routine) -> np.ndarray:
        """LAPACK routine (dpotri or dtrtri) run on a copy of the lower factor L."""
        if not self.n:  # LAPACK rejects an empty matrix
            return np.zeros((0, 0))
        out, info = routine(self._factor[0], lower=True)
        if info:  # pragma: no cover - a finished Cholesky factor has a positive diagonal
            raise InternalCheckError(f"{routine.__name__} failed on a certified spec ({info})")
        return out

    def influence(self) -> np.ndarray:
        """M = (I - delta G)^-1, exactly symmetric; made afresh by each call, not kept."""
        return fill_upper(self._inverted_factor(dpotri), mirror=True)

    @cached_property
    def self_loops(self) -> np.ndarray:
        """The diagonal of M, read-only: M = L^-T L^-1, so m_ii = sum_k (L^-1)_ki^2."""
        inv_low = fill_upper(self._inverted_factor(dtrtri), mirror=False)
        loops = np.einsum("ki,ki->i", inv_low, inv_low)
        loops.flags.writeable = False
        return loops

    @property
    def n(self) -> int:
        return self.network.n

    def with_theta(self, theta: np.ndarray) -> "GameSpec":
        theta = check_theta(theta, self.n)
        spec = GameSpec(self.network, theta, self.delta, self._lambda_max)
        # Same network and delta, so the factor and b_unit carry over.
        spec.__dict__["_factor"] = self._factor
        spec.__dict__["b_unit"] = self.b_unit
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


def _row_sums_clear(b_unit: np.ndarray) -> bool:
    """Whether centralities b_unit = M 1 of a positive-definite system prove the margin.

    A nonnegative M has lambda_max(M) <= max row sum; the positivity test
    sends rounding-level answers of a barely indefinite system to the exact
    test instead.
    """
    return bool(b_unit.min(initial=np.inf) > 0.0 and b_unit.max(initial=0.0) < ROW_SUM_BOUND)


def certify(net: Network, delta: float, theta=None) -> GameSpec:
    """Certify delta * lambda_max(G) < 1 - margin and build the GameSpec.

    theta defaults to the all-ones vector. The certificate is the spec's own
    factor of I - delta G and its b_unit; only when max(b_unit) reaches
    ROW_SUM_BOUND does within_bound factor the margin system as well.
    """
    if not 0 < delta < np.inf:
        raise InputError(f"delta must be positive and finite, got {delta:g}")
    spec = GameSpec(net, check_theta(np.ones(net.n), net.n), float(delta))
    try:
        spec._factor  # the solver's factor, made here once and kept
    except np.linalg.LinAlgError:
        fits = False
    else:
        fits = _row_sums_clear(spec.b_unit) or within_bound(net, delta)
    if not fits:
        raise SpectralConditionError(delta, spectral_radius(net))
    return spec if theta is None else spec.with_theta(theta)


def certify_local(spec: GameSpec, changes, idx, cols: np.ndarray, c_ss: np.ndarray) -> None:
    """certify_change(spec.network, spec.delta, changes), decided from M[:, S].

    idx lists the touched nodes S, cols = M[:, idx] and c_ss is C restricted
    to S. Removing links cannot raise lambda_max, so removal-only changes
    pass. Otherwise, with M_SS = R R^T, I - delta (G + C) is positive definite
    exactly when the |S| x |S| matrix I - delta R^T C_SS R is (inertia
    additivity), and its centralities are
    b_unit + delta M[:, S] C_SS (I - delta M_SS C_SS)^-1 b_unit,S, whose row
    sums prove the margin as in certify. That is O(n |S|) work; the sliver
    these tests cannot clear, and every refusal, goes to certify_change.
    """
    if not (c_ss > 0).any():
        return
    m_ss = cols[idx, :]
    eye = np.eye(len(idx))
    try:
        r = np.linalg.cholesky(m_ss)
        np.linalg.cholesky(eye - spec.delta * (r.T @ c_ss @ r))
        y = np.linalg.solve(eye - spec.delta * m_ss @ c_ss, spec.b_unit[idx])
    except np.linalg.LinAlgError:
        pass
    else:
        if _row_sums_clear(spec.b_unit + spec.delta * (cols @ (c_ss @ y))):
            return
    certify_change(spec.network, spec.delta, changes)


def links_certified(spec: GameSpec, m: np.ndarray, rows, cols) -> np.ndarray:
    """Whether adding each absent link (rows[t], cols[t]) provably keeps the game certified.

    certify_local's two tests in closed form on the influence matrix m, for
    all links at once. With S = {i, j}, I - delta R^T C_SS R is positive
    definite exactly when delta (m_ij + sqrt(m_ii m_jj)) < 1, and the grown
    row sums are at most max(b_unit) + delta (max_k m_ki |y_j| + max_k m_kj |y_i|).
    False leaves the link to certify_change.
    """
    delta, b = spec.delta, spec.b_unit
    m_ii, m_jj = np.diag(m)[rows], np.diag(m)[cols]
    m_ij = m[np.maximum(rows, cols), np.minimum(rows, cols)]
    # Links past the 2 x 2 test go no further; for the rest delta < 1, so
    # nothing below overflows.
    t = np.flatnonzero(delta * (m_ij + np.sqrt(m_ii * m_jj)) < 1.0)
    s = 1.0 - delta * m_ij[t]
    den = s * s - (delta * m_ii[t]) * (delta * m_jj[t])
    t, s, den = t[den > 0.0], s[den > 0.0], den[den > 0.0]  # rounding at the bound
    b_i, b_j = b[rows[t]], b[cols[t]]
    y_i = (s * b_i + delta * m_ii[t] * b_j) / den
    y_j = (delta * m_jj[t] * b_i + s * b_j) / den
    top = m.max(axis=0)
    grown = b.max() + delta * (top[rows[t]] * np.abs(y_j) + top[cols[t]] * np.abs(y_i))
    fits = np.zeros(len(rows), dtype=bool)
    fits[t] = grown < ROW_SUM_BOUND
    return fits


def embed(values: np.ndarray, support: NodeSet, n: int) -> np.ndarray:
    """Scatter values on a support set into a full-length vector."""
    out = np.zeros(n)
    out[list(support.members)] = values
    return out
