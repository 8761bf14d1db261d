"""Graph representation, edge-list parsing, and spectral certification.

Networks are labeled, undirected, simple graphs kept as their links, the
sorted index pairs i < j; a certified game's one n x n array is its
Cholesky factor. Node indices are the ranks of the labels under natural order
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
Cholesky factorization of (1 - SPECTRAL_MARGIN) I - w G succeeds exactly
when w * lambda_max < 1 - SPECTRAL_MARGIN). A change C to the links among
nodes S is certified the same way from M[:, S] (certify_local), one added
link from M_SS and b_unit (links_certified); what those cannot decide goes
to certify_change: certify's rule on the changed network. A rejection words
lambda_max from an enclosure built from the links alone, a short Lanczos run
whose Ritz vector gives Collatz-Wielandt bounds, O(m) a step; where that run
cannot close (slow-gap graphs such as long paths), shift-invert iteration on
one Cholesky factor of sigma I - G closes it. Only when the enclosure's two
ends would print differently does it compute the dense eigenvalue
(spectral_radius).
"""

from __future__ import annotations

import bisect
import itertools
import math
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, eigh_tridiagonal, solve_triangular
from scipy.linalg.blas import dsyr2k, dtrmm
from scipy.linalg.lapack import dpotri, dtrtri

# Safety margin on the spectral condition delta * lambda_max < 1. Keeps
# (I - delta G) well conditioned for every downstream solve.
SPECTRAL_MARGIN = 1e-9

# A certified game whose influence matrix has every row sum below this clears
# the margin tenfold: 1 - delta * lambda_max >= 1 / max row sum > 1e-8.
ROW_SUM_BOUND = 1e8

# A score within NEAR_TIE * max(1, |best|) of the best one not yet placed
# counts as tied with it, and tied scores order by label (rank_order), so
# automorphic nodes rank identically despite rounding noise.
NEAR_TIE = 1e-9

# Rows per step when an n x n matrix is worked on a strip at a time (packing
# or reading a triangle of a LAPACK inverse; a residual takes half as many
# columns); bounds the temporaries to one strip of the matrix. Half a strip is
# also the largest block the blocked triangular inverse hands to dtrtri.
STRIP = 256
_STRICT_LOWER = np.tri(STRIP, k=-1, dtype=bool)

# Lanczos steps the enclosure of lambda_max may take, and the steps between
# two checks of its residual; the shift-invert steps that may follow them are
# capped at LANCZOS_STEPS too. Past both a refusal computes the dense eigenvalue.
LANCZOS_STEPS = 48
LANCZOS_CHECK = 8

# An edge list of ASCII digits and C whitespace, labels of at most
# DECIMAL_DIGITS digits (all below 2**63), is read as int64 values by numpy.
DECIMAL_DIGITS = 18
_DECIMAL_TEXT = b"0123456789 \t\n\r\x0b\x0c"
_LINE_BREAKS = bytes.maketrans(b"\r\x0b\x0c", b"\n\n\n")


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


def label_key(label: str) -> tuple[int, int, str, str]:
    """Natural sort key for node labels.

    Labels of decimal digits compare by numeric value and precede everything else;
    remaining labels compare lexicographically. Keeps "10" after "2" so
    tie-breaks on numerically named nodes match the obvious ordering. Values
    compare as digit strings, shorter first, so labels of any length sort
    without int() and its limit on digits.
    """
    if not label.isdecimal():
        return (1, 0, "", label)
    digits = label if label.isascii() else "".join(str(unicodedata.decimal(c)) for c in label)
    digits = digits.lstrip("0")
    return (0, len(digits), digits, label)


def _natural_order(names) -> list:
    """The distinct names sorted by label_key.

    The decimal names come first and the rest follow as plain text, so only
    decimal names are keyed. When those are ASCII digits with no leading
    zero ("0" itself allowed), label_key's order is by length and then as
    text, which two sorts give with no Python key per name; other decimal
    names take label_key.
    """
    decimal = list(filter(str.isdecimal, names))
    rest = sorted(itertools.filterfalse(str.isdecimal, names))
    if "".join(decimal).isascii():
        ordered = sorted(decimal)
        # A name led by "0" sorts first, after "0" itself.
        first = ordered[1:2] if ordered[:1] == ["0"] else ordered[:1]
        if not first or first[0][0] != "0":
            return sorted(ordered, key=len) + rest
    return sorted(decimal, key=label_key) + rest


def rank_order(values: np.ndarray, keys: tuple) -> np.ndarray:
    """Positions of values, best first.

    A run is the best value v not yet placed and every later value at or
    above v - NEAR_TIE * max(1, |v|); it counts as tied and is ordered by
    the key arrays, compared lexicographically.
    """
    order = np.lexsort(keys[::-1] + (-values,))
    v = values[order]
    floor = v - NEAR_TIE * np.maximum(1.0, np.abs(v))
    # Where a run would hold more than one value; only those runs are visited.
    starts = np.flatnonzero(v[1:] >= floor[:-1])
    rising = -v  # negation is exact, so searching -floor here is the test v >= floor
    at = 0
    while at < len(starts):
        start = starts[at]
        end = np.searchsorted(rising, -floor[start], side="right")
        run = order[start:end]
        order[start:end] = run[np.lexsort(tuple(k[run] for k in keys[::-1]))]
        at = np.searchsorted(starts, end)  # every value before the next start stands alone
    return order


@dataclass(frozen=True, eq=False, init=False)
class Network:
    """Undirected simple graph over string labels in natural order.

    Kept as its links: links = (rows, cols), the index pairs rows[t] <
    cols[t] in row-major order, read-only. Network(labels, adjacency) checks
    a dense 0/1 array and keeps only its links, not the array.
    """

    labels: tuple[str, ...]
    links: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, labels, adjacency):
        object.__setattr__(self, "labels", labels)
        a = np.asarray(adjacency)
        if a.dtype.kind not in "biuf":
            raise InputError(f"adjacency must be a numeric 0/1 array, got dtype {a.dtype}")
        a = a.astype(np.float64, copy=False)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InputError("duplicate node labels")
        if tuple(_natural_order(self.labels)) != self.labels:
            raise InputError("labels must be given in natural order")
        if a.shape != (n, n):
            raise InputError(f"adjacency shape {a.shape} does not match {n} labels")
        if not np.array_equal(a, a.T):
            raise InputError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise InputError("self-loops are not allowed")
        if not np.all((a == 0) | (a == 1)):
            raise InputError("adjacency entries must be 0 or 1")
        rows, cols = np.nonzero(a)
        upper = rows < cols
        self._set_links(rows[upper], cols[upper])

    def _set_links(self, rows: np.ndarray, cols: np.ndarray) -> None:
        rows.flags.writeable = cols.flags.writeable = False
        object.__setattr__(self, "links", (rows, cols))

    @classmethod
    def _of_keys(cls, labels: tuple, keys: np.ndarray) -> "Network":
        """The network on labels (distinct, in natural order) whose links are
        the sorted, distinct keys i * n + j, i < j."""
        net = object.__new__(cls)
        object.__setattr__(net, "labels", labels)
        net._set_links(*np.divmod(keys, max(len(labels), 1)))
        return net

    @classmethod
    def _of_links(cls, labels: tuple, rows: np.ndarray, cols: np.ndarray) -> "Network":
        """The network on labels (distinct, in natural order) linking each
        rows[t] to cols[t] != rows[t], in either order, repeats allowed."""
        n = len(labels)
        keys = np.minimum(rows, cols).astype(np.int64) * n + np.maximum(rows, cols)
        keys.sort()  # a fresh array; sorted, each repeat sits after its first
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return cls._of_keys(labels, keys[first])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.labels == other.labels and all(map(np.array_equal, self.links, other.links))

    def __hash__(self) -> int:
        return hash(self.labels)

    @staticmethod
    def from_edges(edges, isolated=()) -> "Network":
        """Build a Network from (label, label) pairs plus optional isolated nodes."""
        edges = list(edges)
        if any(len(e) != 2 for e in edges):
            raise InputError("edges must be (label, label) pairs")
        ends = list(itertools.chain.from_iterable(edges))
        labels, at = _label_indices(set(isolated).union(ends), ends)
        rows, cols = at[0::2], at[1::2]
        loops = np.flatnonzero(rows == cols)
        if loops.size:
            raise InputError(f"self-loop on node {edges[loops[0]][0]!r}")
        return Network._of_links(labels, rows, cols)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The links as sorted keys i * n + j, i < j."""
        rows, cols = self.links
        return rows.astype(np.int64) * self.n + cols

    def _linked(self, keys: np.ndarray) -> np.ndarray:
        """Whether each key i * n + j (i < j) is a link, by binary search."""
        ours = self._keys
        if not len(ours):
            return np.zeros(len(keys), dtype=bool)
        return ours[np.minimum(np.searchsorted(ours, keys), len(ours) - 1)] == keys

    def has_link(self, i: int, j: int) -> bool:
        """Whether nodes i and j are linked, O(log m); indices as numpy reads them."""
        i, j = sorted((range(self.n)[i], range(self.n)[j]))
        return bool(self._linked(np.array([i * self.n + j]))[0])

    def with_changes(self, changes) -> "Network":
        """This network with signed link changes (i, j, +1 create / -1 delete),
        each pair written as its value here plus sign, the last change of a
        pair winning; only the written pairs are checked, against the rules
        every Network keeps."""
        n, at = self.n, range(self.n)
        last = {}
        for i, j, sign in changes:
            i, j = sorted((at[i], at[j]))
            last[i * n + j] = sign
        keys = np.fromiter(last, dtype=np.int64, count=len(last))
        present = self._linked(keys)
        written = present + np.array(list(last.values()), dtype=np.float64)
        rows, cols = np.divmod(keys, max(n, 1))
        if np.any(written[rows == cols] != 0):
            raise InputError("self-loops are not allowed")
        if not np.all((written == 0) | (written == 1)):
            raise InputError("adjacency entries must be 0 or 1")
        kept = np.delete(self._keys, np.searchsorted(self._keys, keys[present & (written == 0)]))
        return Network._of_keys(self.labels, np.union1d(kept, keys[written == 1]))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def adjacency(self) -> np.ndarray:
        """The n x n float64 0/1 adjacency matrix, read-only.

        Built from the links on every read: each read costs O(n^2) time and
        memory. The library itself never reads it; it reads links, has_link
        and sparse_adjacency.
        """
        a = _link_system(self, 1.0, 0.0)
        a.flags.writeable = False
        return a

    @cached_property
    def sparse_adjacency(self):
        """The adjacency as a scipy CSR array, built from the links on first read and kept."""
        from scipy.sparse import csr_array  # only walk queries and congestion pay its import

        rows, cols = self.links
        starts = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.n))))
        upper = csr_array((np.ones(len(rows)), cols, starts), shape=(self.n, self.n))
        return (upper + upper.T).tocsr()

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise InputError(f"unknown node label {label!r}") from None

    def edges(self) -> list[tuple[str, str]]:
        """Edges as (min-label, max-label) pairs, ascending."""
        # Indices rank labels in natural order, so row-major order is label order.
        rows, cols = self.links
        return [(self.labels[i], self.labels[j]) for i, j in zip(rows.tolist(), cols.tolist())]


def _label_indices(names, ends: list) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct names in natural order, and the index of each of ends among them."""
    labels = tuple(_natural_order(names))
    index = dict(zip(labels, range(len(labels))))
    return labels, np.fromiter(map(index.__getitem__, ends), dtype=np.intp, count=len(ends))


def line_tokens(text: str) -> list[list[str]]:
    """The whitespace-separated tokens of each line of text (str.splitlines),
    with everything from a `#` on dropped; a blank line gives []."""
    lines = text.splitlines()
    if "#" not in text:
        return list(map(str.split, lines))
    return [raw.split("#", 1)[0].split() for raw in lines]


def parse_edge_list(text: str) -> Network:
    """Parse "u v" lines into a Network.

    `#` starts a comment; a line holding a single label declares an isolated
    node; duplicate edges collapse. Self-loops are rejected. The first bad
    line, a self-loop or one of three or more labels, is reported.
    """
    net = _decimal_edge_list(text)
    if net is not None:
        return net
    tokens = line_tokens(text)
    widths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    ends = list(itertools.chain.from_iterable(tokens))
    if not ends:
        raise InputError("empty edge list")
    labels, at = _label_indices(set(ends), ends)
    pairs = np.flatnonzero(widths == 2)
    first = (np.cumsum(widths) - widths)[pairs]
    rows, cols = at[first], at[first + 1]
    bad = np.union1d(pairs[rows == cols], np.flatnonzero(widths > 2))
    if bad.size:
        t = int(bad[0])
        if widths[t] == 2:
            raise GraphFormatError(f"self-loop on node {tokens[t][0]!r}", t + 1)
        raw = text.splitlines()[t]
        raise GraphFormatError(f"expected 'u v', got {raw.strip()!r}", t + 1)
    return Network._of_links(labels, rows, cols)


def _decimal_edge_list(text: str) -> Network | None:
    """parse_edge_list(text) read by numpy, for a text of decimal labels.

    The text qualifies when it holds only ASCII digits and C whitespace
    (what numpy's reader splits on), and each label has at most
    DECIMAL_DIGITS digits and no leading zero ("0" itself allowed); then
    str() of each label's value gives it back, and numeric order is natural
    order. Lines break where str.splitlines breaks them. None when the text
    does not qualify, is empty, holds a bad line or is not read one value
    per label: parse_edge_list's own reading decides those and words their
    errors.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _DECIMAL_TEXT):
        return None
    # Every byte str.splitlines breaks at as "\n"; a "\r\n" becomes two, but
    # only whether two labels share a line is read here.
    buf = np.frombuffer(raw.translate(_LINE_BREAKS), dtype=np.uint8)
    # Where a run of digits starts and ends; every other byte is whitespace.
    edges = np.flatnonzero(np.diff(buf >= ord("0"), prepend=False, append=False))
    starts, widths = edges[0::2], edges[1::2] - edges[0::2]
    if not starts.size or widths.max() > DECIMAL_DIGITS:
        return None
    if np.any((buf[starts] == ord("0")) & (widths > 1)):
        return None
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if len(values) != len(starts):  # a short read would drop labels silently
        return None
    paired = line[1:] == line[:-1]  # token t and t + 1 share a line
    if np.any(paired[1:] & paired[:-1]):
        return None
    first = np.flatnonzero(paired)
    names, at = np.unique(values, return_inverse=True)
    rows, cols = at[first], at[first + 1]
    if np.any(rows == cols):
        return None
    return Network._of_links(tuple(map(str, names.tolist())), rows, cols)


def load_network(path) -> Network:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc.strerror or exc}") from exc


def spectral_radius(net: Network) -> float:
    """Largest eigenvalue of the adjacency matrix.

    One LAPACK eigenvalue, exact to rounding. Certification never needs it;
    it words the rejections the enclosure cannot settle and answers direct
    queries.
    """
    n = net.n
    if not len(net.links[0]):
        return 0.0
    adjacency = _link_system(net, 1.0, 0.0)
    return float(eigh(adjacency, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


def _lambda_enclosure(net: Network) -> tuple[float, float, float]:
    """(lo, hi, ritz) with lo <= lambda_max(G) <= hi, from the links alone.

    A Lanczos run from the all-ones vector, fully reorthogonalized, whose
    products are two np.bincount calls over the links, O(m). Every
    LANCZOS_CHECK steps its Ritz vector x gives Collatz-Wielandt bounds,
    which hold for any nonnegative G whether or not Lanczos has converged:
    with tau = 1e-8 max x, G x_P >= lo x_P for x_P, x with its entries below
    tau set to 0, and G x~ <= hi x~ for x~ = max(x, tau) > 0. Each bound is
    widened by (maxdeg + 3) eps for the rounding of its sums and quotients.
    The run stops once hi - lo <= 1e-12 hi, or once its residual, carried on
    at its rate over the last LANCZOS_CHECK steps, would not close the
    bounds by LANCZOS_STEPS. A run that stops open (slow-gap graphs such as
    long paths) goes on by shift-invert iteration from its last Ritz vector
    (_shift_invert, at sigma = min(hi, maxdeg, Ritz value + residual)) when
    no node is isolated and that vector clears tau everywhere; graphs whose
    Perron vector is tiny somewhere (isolated nodes, tree-like tails,
    components of different lambda_max) skip it at the cost of that test.
    ritz is the Ritz value clamped into [lo, hi]; (0, inf, 0) when no bound
    was formed.
    """
    rows, cols = net.links
    n = net.n
    if not len(rows):
        return 0.0, 0.0, 0.0

    def product(x):
        y = np.bincount(rows, x[cols], n)
        y += np.bincount(cols, x[rows], n)
        return y

    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    widen = (int(degree.max()) + 3) * float(np.finfo(float).eps)
    basis = np.empty((LANCZOS_STEPS, n))
    alpha, beta = np.zeros(LANCZOS_STEPS), np.zeros(LANCZOS_STEPS)
    basis[0] = 1.0 / np.sqrt(n)
    lo, hi, ritz, last = 0.0, np.inf, 0.0, np.inf
    for j in range(LANCZOS_STEPS):
        k, v = j + 1, basis[j]
        w = product(v)
        if j:
            w -= beta[j - 1] * basis[j - 1]
        alpha[j] = w @ v
        w -= alpha[j] * v
        w -= basis[:k].T @ (basis[:k] @ w)
        beta[j] = np.sqrt(w @ w)
        ended = beta[j] <= 1e-14 * np.abs(alpha[:k]).max()  # an invariant subspace
        if not ended and k < LANCZOS_STEPS:
            basis[k] = w / beta[j]
            if k % LANCZOS_CHECK:
                continue
        values, vectors = eigh_tridiagonal(
            alpha[:k], beta[: k - 1], select="i", select_range=(k - 1, k - 1), check_finite=False
        )
        value, s = float(values[0]), vectors[:, 0]
        residual = 0.0 if ended else float(beta[j] * abs(s[-1]))
        x = s @ basis[:k]
        if x[np.argmax(np.abs(x))] < 0:
            x = -x
        tau = 1e-8 * x.max()
        # hi - lo >= max|r_i| / max x_i >= |r| / sqrt(n) for the residual r of
        # the unit Ritz vector, so no bounds can close before this.
        if residual <= 1e-12 * value * np.sqrt(n):
            kept = x >= tau
            lo = float((product(np.where(kept, x, 0.0))[kept] / x[kept]).min()) * (1.0 - widen)
            floored = np.maximum(x, tau)
            hi = float((product(floored) / floored).max()) * (1.0 + widen)
            ritz = min(max(value, lo), hi)
            if hi - lo <= 1e-12 * hi:
                return lo, hi, ritz
        target = 1e-13 * value
        if ended or residual > target and (
            residual >= last
            or residual * (residual / last) ** ((LANCZOS_STEPS - k) / LANCZOS_CHECK) > target
        ):
            break
        last = residual
    if degree.min() > 0 and x.min() >= tau:
        # [value - residual, value + residual] holds an eigenvalue, not always
        # the largest: the factorization decides whether sigma lies above lambda_max.
        sigma = min(hi, float(degree.max()), value + residual)
        closed = _shift_invert(net, product, x, sigma, widen)
        if closed is not None:
            return closed
    return lo, hi, ritz


def _shift_invert(net: Network, product, x: np.ndarray, sigma: float, widen: float):
    """(lo, hi, ritz) closed to hi - lo <= 1e-12 hi by iterating
    x <- (sigma I - G)^-1 x from x > 0, or None.

    A Cholesky factor of sigma I - G proves sigma > lambda_max, so sigma I - G
    is a nonsingular M-matrix whose inverse is entrywise nonnegative, and x
    stays positive: its Collatz-Wielandt quotients bound lambda_max with
    _lambda_enclosure's widening and need no floor. Each step is two
    triangular solves, O(n^2). None when the factorization fails, when an
    iterate is not positive, and when the gap, carried on at its rate over
    the last step, would not close by LANCZOS_STEPS steps. ritz is x's
    Rayleigh quotient clamped into [lo, hi].
    """
    try:
        system = _link_system(net, -1.0, sigma)
        low, _ = cho_factor(system.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    last = np.inf
    for k in range(1, LANCZOS_STEPS + 1):
        x = _vector_solve(low, x)
        if not x.min() > 0.0:
            return None
        x /= x.max()
        y = product(x)
        quotient = y / x
        lo = float(quotient.min()) * (1.0 - widen)
        hi = float(quotient.max()) * (1.0 + widen)
        gap, target = hi - lo, 1e-12 * hi
        if gap <= target:
            return lo, hi, min(max(float(x @ y) / float(x @ x), lo), hi)
        if gap >= last or gap * (gap / last) ** (LANCZOS_STEPS - k) > target:
            return None
        last = gap
    return None


def _vector_solve(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 x for a vector x and L the lower triangle of low: two
    triangular solves (trsv), not cho_solve's trsm, about twice as fast."""
    y = solve_triangular(low, x, lower=True, check_finite=False)
    return solve_triangular(low, y, lower=True, trans="T", overwrite_b=True, check_finite=False)


def spectral_refusal(net: Network, delta: float, scale: float = 1.0) -> SpectralConditionError:
    """The refusal of delta for a game whose bound is scale / lambda_max(G),
    worded with lambda_max(G) / scale.

    The enclosure's clamped Ritz value words it when the enclosure is within
    1e-12 and its two ends print the same text: the text is monotone in
    lambda_max, so every value between them, the dense eigenvalue too,
    prints that text. On slow-gap graphs the enclosure is closed by its
    shift-invert factorization, so the refusal makes no eigensolve there
    either. Otherwise (isolated nodes, components of different lambda_max,
    a stalled iteration) spectral_radius words it.
    """
    lo, hi, ritz = _lambda_enclosure(net)
    if hi < np.inf and hi - lo <= 1e-12 * hi and (
        str(SpectralConditionError(delta, lo / scale)) == str(SpectralConditionError(delta, hi / scale))
    ):
        return SpectralConditionError(delta, ritz / scale)
    return SpectralConditionError(delta, spectral_radius(net) / scale)


def is_positive_definite(matrix: np.ndarray) -> bool:
    """Whether a finite symmetric matrix has a Cholesky factor; overwrites matrix.

    Its transpose is the same matrix in Fortran order, which LAPACK factors
    in place rather than through a second n x n copy. Callers build matrix
    from links and finite scalars, so it is not scanned for infs and NaNs.
    """
    try:
        cho_factor(matrix.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def within_bound(net: Network, weight: float) -> bool:
    """The spectral certificate: weight * lambda_max(G) < 1 - margin.

    Exact for a finite weight >= 0.
    """
    return is_positive_definite(_link_system(net, -weight, 1.0 - SPECTRAL_MARGIN))


def _link_system(net: Network, link: float, diagonal: float) -> np.ndarray:
    """A new n x n array holding link at every link of net, diagonal on the
    diagonal and +0.0 elsewhere. Both must be finite: the array is then
    finite, and the factorizations of it skip their n^2 scan for infs and NaNs."""
    if not (math.isfinite(link) and math.isfinite(diagonal)):
        raise InputError(f"link system weights must be finite, got {link:g} and {diagonal:g}")
    rows, cols = net.links
    system = np.zeros((net.n, net.n))
    system[rows, cols] = system[cols, rows] = link
    system[np.diag_indices(net.n)] = diagonal
    return system


def certify_change(net: Network, weight: float, changes) -> None:
    """Raise SpectralConditionError unless certify accepts net, changed, at weight > 0.

    changes are signed link changes (i, j, +1 create / -1 delete), legal for
    net. The changed network is decided by certified_game, certify's own
    rule: a failed factor refuses, row sums below ROW_SUM_BOUND accept, and
    within_bound decides the sliver. A non-finite weight is refused.
    """
    changed = net.with_changes(changes)
    if certified_game(changed, weight) is None:
        raise spectral_refusal(changed, weight)


def _copy_strict_lower(dst: np.ndarray, src: np.ndarray) -> None:
    """dst's strict lower triangle := src's, strip by strip; the rest of dst is untouched.

    Row-major copies of the blocks left of each diagonal block, and a masked
    copy of the diagonal block, so no index arrays are built. With dst = a.T
    and src = a it mirrors a's strict lower triangle into its upper one, a
    strip of columns at a time, leaving a exactly symmetric.
    """
    n = len(dst)
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
        dst[lo:hi, :lo] = src[lo:hi, :lo]
        np.copyto(dst[lo:hi, lo:hi], src[lo:hi, lo:hi], where=_STRICT_LOWER[: hi - lo, : hi - lo])


def _inverse_blocks(low: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X11, X21, X22), the blocks of X = L^-1 split at h = n // 2, for L the
    lower triangle of square low, which is all that is read.

    The diagonal blocks are inverted recursively (_triangular_inverse) and
    X21 = -X22 L21 X11 is formed in place by two dtrmm, so nearly all of the
    n^3 / 3 flops run in BLAS-3; each block is a new Fortran-order array.
    """
    h = len(low) // 2
    x11, x22 = _triangular_inverse(low[:h, :h]), _triangular_inverse(low[h:, h:])
    x21 = dtrmm(1.0, x11, np.array(low[h:, :h], order="F"), side=1, lower=1, overwrite_b=1)
    return x11, dtrmm(-1.0, x22, x21, lower=1, overwrite_b=1), x22


def _triangular_inverse(low: np.ndarray) -> np.ndarray:
    """L^-1 for L the lower triangle of square low, a new Fortran-order array
    with a zero strict upper triangle: LAPACK dtrtri on at most STRIP // 2
    rows, and above that _inverse_blocks assembled."""
    m = len(low)
    if m > STRIP // 2:
        x11, x21, x22 = _inverse_blocks(low)
        out, h = np.zeros((m, m), order="F"), len(x11)
        out[:h, :h], out[h:, :h], out[h:, h:] = x11, x21, x22
        return out
    if not m:  # LAPACK rejects an empty matrix
        return np.zeros((0, 0), order="F")
    out, info = dtrtri(low, lower=True)  # a copy: low, its upper triangle too, is left as it was
    if info:  # pragma: no cover - a finished Cholesky factor has a positive diagonal
        raise InternalCheckError(f"dtrtri failed on a certified spec ({info})")
    np.copyto(out, 0.0, where=_STRICT_LOWER[:m, :m].T)
    return out


def _inverse_diagonal(low: np.ndarray) -> np.ndarray:
    """The diagonal of (L L^T)^-1 = X^T X, X = L^-1, for L the lower triangle
    of square low: the column sums of squares of _inverse_blocks' X11 and
    X21 and of its X22. X itself is never assembled, so the scratch is
    0.75 n^2 doubles, and low's upper triangle may hold anything."""
    x11, x21, x22 = _inverse_blocks(low)
    return np.concatenate((
        np.einsum("ki,ki->i", x11, x11) + np.einsum("ki,ki->i", x21, x21),
        np.einsum("ki,ki->i", x22, x22),
    ))


def _inverse_residual(g, delta: float, columns) -> tuple:
    """(max |(I - delta G) X - I| as evaluated, max |X|), NaN-preserving, for
    G the CSR array g and the square X whose columns lo:hi columns(lo, hi)
    returns in C order: O(nnz(G) n), half a strip of columns at a time, each
    block and its product freed before the next block is made."""
    n, width = g.shape[0], STRIP // 2
    residual, size = [0.0], [0.0]
    for lo in range(0, n, width):
        cols = columns(lo, min(lo + width, n))
        at = np.arange(cols.shape[1])
        size.append(np.maximum(cols.max(), -cols.min()))
        r = g @ cols
        r *= -delta
        r += cols
        r[lo + at, at] -= 1.0
        residual.append(np.maximum(r.max(), -r.min()))
        del cols, r
    return float(np.max(residual)), float(np.max(size))


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
        """The indices below n outside this set."""
        inside = self.members[: bisect.bisect_left(self.members, n)]
        out = object.__new__(NodeSet)  # sorted and distinct by construction: no re-check
        object.__setattr__(out, "members", tuple(np.delete(np.arange(n), inside).tolist()))
        return out

    def labels(self, net: Network) -> tuple[str, ...]:
        return tuple(net.labels[i] for i in self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A certified game: network, characteristics theta, synergy delta.

    Construct through certify(); direct construction skips the spectral check.
    The Cholesky factorization I - delta G = L L^T, which certify made and
    tested, is cached, read-only, and shared by every solve against this
    spec. Queries read what they need of M = (I - delta G)^-1 by solve on
    unit columns, M[:, idx] from one solve (forward and back) of |idx|
    columns, O(n^2 |idx|), or by one of two routes:

    - block(idx), M[idx][:, idx]: one forward solve Y = L^-1 E_idx and its
      Gram Y^T Y, O(n^2 |idx|) at half the cost of that solve, exactly
      symmetric.
    - the held M: the first of influence(), influence_rows and
      influence_less to run on a game inverts the factor by LAPACK dpotri,
      about 2n^3/3 flops, and keeps M in space the factor already owns: M's
      strict upper triangle in the factor array's, which no LAPACK routine
      reads with L, and its diagonal as a vector. One reader (_held_read)
      copies M from there in row strips: whole rows for influence_rows,
      and for influence() (all of M, O(n^2)) and influence_less (M without
      some nodes, less a symmetric update) only the lower half, which is
      then mirrored, so those two are exactly symmetric. Beside it the
      held M carries, once the first walk query has asked for them, the
      largest entry of its evaluated residual (I - delta G) M - I and its
      largest entry, O(nnz(G) n) for both, from which walk queries bound
      their own residuals.

    These round differently, so the solved M[idx][:, idx], block(idx)
    and influence()[idx][:, idx] can differ in the last bit; each agrees
    bit for bit only with itself. solve and block read only L's
    lower triangle, never the held M, so their bits do not depend on what
    was asked before. self_loops, the diagonal of M, is the column sums of
    squares of L^-1, from a recursive blocked inverse (about n^3/3 flops,
    nearly all in dtrmm) whose blocks are summed without assembling L^-1.
    It and the centralities b_unit (theta = 1) and b (this theta) are cached
    and read-only. with_theta shares the factor, the held M (with its
    residual) and b_unit.
    """

    network: Network
    theta: np.ndarray = field(repr=False)
    delta: float

    @cached_property
    def _factor(self):
        # np.eye(n) - delta * G bit for bit (0.0 - delta * 0.0 is +0.0 off the
        # links), in one array factored in place.
        system = _link_system(self.network, 0.0 - self.delta, 1.0)
        low, lower = cho_factor(system.T, lower=True, overwrite_a=True, check_finite=False)
        low.flags.writeable = False
        return low, lower

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - delta G) x = rhs; rhs may be a vector or a matrix of columns.

        A vector takes two triangular solves (_vector_solve), a matrix
        cho_solve. A non-finite rhs raises ValueError. The factor is finite
        by construction, so it is not scanned again on every solve.
        """
        rhs = np.asarray_chkfinite(rhs)
        try:
            if rhs.ndim == 1:
                return _vector_solve(self._factor[0], rhs)
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
        """Weighted centralities (I - delta G)^-1 theta, the equilibrium; read-only.

        b_unit itself when theta is all ones: the same solve, with the same bits.
        An equilibrium that overflows is refused as bad input.
        """
        if self.theta_is_ones():
            return self.b_unit
        b = finite_equilibrium(self.solve(self.theta))
        b.flags.writeable = False
        return b

    def block(self, idx) -> np.ndarray:
        """M[idx][:, idx] for a sequence of node indices, as Y^T Y with Y = L^-1 E_idx.

        One forward triangular solve on the held factor's lower triangle and
        the Gram of its result: exactly symmetric, and half the work of solving
        the unit columns E_idx, from whose rows idx it can differ in the last bit.
        """
        idx = np.asarray(idx, dtype=np.intp)
        rhs = np.zeros((self.n, idx.size), order="F")
        rhs[idx, np.arange(idx.size)] = 1.0
        # The factor is finite by construction, so it is not scanned again.
        y = solve_triangular(self._factor[0], rhs, lower=True, overwrite_b=True, check_finite=False)
        return y.T @ y

    def _inverted_factor(self) -> np.ndarray:
        """LAPACK dpotri run on a copy of the lower factor L: M's lower triangle."""
        if not self.n:  # LAPACK rejects an empty matrix
            return np.zeros((0, 0))
        out, info = dpotri(self._factor[0], lower=True)
        if info:  # pragma: no cover - a finished Cholesky factor has a positive diagonal
            raise InternalCheckError(f"dpotri failed on a certified spec ({info})")
        return out

    @cached_property
    def _held(self) -> list:
        # Empty until _held_inverse packs M into the factor array, then [M's
        # diagonal], then [M's diagonal, _held_residual()] once that has run;
        # one list shared with every with_theta spec.
        return []

    def _held_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """(a C-order view whose strict lower triangle is M's, M's diagonal).

        The first call runs dpotri on the factor and packs M into the factor
        array: low.T is C order, and its strict lower triangle is low's
        strict upper one, which no solve or inverse of L reads.
        """
        low = self._factor[0]
        if not self._held:
            m = self._inverted_factor()  # Fortran order; its lower triangle is M's
            low.flags.writeable = True
            try:
                _copy_strict_lower(low.T, m)
            finally:
                low.flags.writeable = False
            diagonal = m.diagonal().copy()
            diagonal.flags.writeable = False
            self._held.append(diagonal)
        return low.T, self._held[0]

    def _held_read(self, runs, dst: np.ndarray, lower: bool = False) -> np.ndarray:
        """The rows of M at the runs [lo, hi) of sorted node indices, copied
        into dst (C order) and returned: across all n columns, or with lower
        only the lower triangle and diagonal of M at the runs' nodes, the
        rest of dst left as it was. The one reader of the held M: it copies
        row strips of the packed triangle, a strip of rows at a time across
        the diagonal, and reads M's upper half only for whole rows."""
        tri, diag = self._held_inverse()
        r = 0
        for r0, r1 in runs:
            c = 0
            for c0, c1 in runs if lower else [(0, self.n)]:
                block = dst[r : r + r1 - r0, c : c + c1 - c0]
                c += c1 - c0
                if c1 <= r0:  # a run of columns wholly left of these rows
                    block[...] = tri[r0:r1, c0:c1]
                    continue
                for lo in range(r0, r1, STRIP):
                    hi = min(lo + STRIP, r1)
                    strip, below = block[lo - r0 : hi - r0], _STRICT_LOWER[: hi - lo, : hi - lo]
                    strip[:, : lo - c0] = tri[lo:hi, c0:lo]
                    square = strip[:, lo - c0 : hi - c0]
                    np.copyto(square, tri[lo:hi, lo:hi], where=below)
                    if not lower:
                        np.copyto(square, tri[lo:hi, lo:hi].T, where=below.T)
                        strip[:, hi - c0 :] = tri[hi:c1, lo:hi].T
                    np.fill_diagonal(square, diag[lo:hi])
                break  # the run holding these rows is the last one read
            r += r1 - r0
        return dst

    def _held_residual(self) -> tuple[float, float]:
        """(max |(I - delta G) M - I| as evaluated, max |M|) over the held M,
        NaN-preserving; computed by the first call and kept in _held."""
        self._held_inverse()
        if len(self._held) == 1:
            n = self.n  # M[:, lo:hi] is read as M[lo:hi] (held exactly symmetric), transposed
            self._held.append(_inverse_residual(
                self.network.sparse_adjacency, self.delta,
                lambda lo, hi: self._held_read([(lo, hi)], np.empty((n, hi - lo)).T).T,
            ))
        return self._held[1]

    def influence(self) -> np.ndarray:
        """M = (I - delta G)^-1, exactly symmetric, in Fortran order; a fresh array each call.

        The lower half read from the held M and mirrored: M bit for bit.
        """
        self._held_inverse()  # frees dpotri's array before the result is made
        n = self.n
        m = self._held_read([(0, n)], np.empty((n, n)), lower=True)
        _copy_strict_lower(m.T, m)
        return m.T

    def influence_rows(self, members) -> np.ndarray:
        """The rows of M at the sorted indices members, a new C-order array
        read from the held M, with no LAPACK call."""
        rows = [(i, i + 1) for i in members]
        return self._held_read(rows, np.empty((len(members), self.n)))

    def influence_less(self, members, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """M without the rows and columns at the sorted indices members, less
        the symmetric part of left @ right.T, (left right^T + right left^T) / 2,
        in a new C-order array, exactly symmetric: the lower half of that block
        of the held M read over the runs of kept nodes, one dsyr2k on it in
        place, and the strict lower triangle mirrored, with no second array of
        its size. left and right have one row per kept node.
        """
        edges = [-1, *members, self.n]
        runs = [(lo + 1, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo + 1]
        kept = self.n - len(members)
        less = self._held_read(runs, np.empty((kept, kept)), lower=True)
        # less.T is Fortran order, so dsyr2k updates its upper triangle, less's lower, in place.
        if kept:
            dsyr2k(-0.5, left, right, beta=1.0, c=less.T, lower=0, overwrite_c=1)
        _copy_strict_lower(less.T, less)
        return less

    @cached_property
    def self_loops(self) -> np.ndarray:
        """The diagonal of M, read-only: M = L^-T L^-1, so m_ii = sum_k (L^-1)_ki^2."""
        loops = _inverse_diagonal(self._factor[0])
        loops.flags.writeable = False
        return loops

    @property
    def n(self) -> int:
        return self.network.n

    def with_theta(self, theta: np.ndarray) -> "GameSpec":
        theta = check_theta(theta, self.n)
        spec = GameSpec(self.network, theta, self.delta)
        # Same network and delta, so the factor, the held M and b_unit carry over.
        spec.__dict__["_factor"] = self._factor
        spec.__dict__["_held"] = self._held
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


def finite_equilibrium(x: np.ndarray) -> np.ndarray:
    """x, an equilibrium solved from finite theta; refused if the solve overflowed."""
    if not np.isfinite(x).all():
        raise InputError("theta is too large: the equilibrium overflows")
    return x


def _row_sums_clear(b_unit: np.ndarray) -> bool:
    """Whether centralities b_unit = M 1 of a positive-definite system prove the margin.

    A nonnegative M has lambda_max(M) <= max row sum; the positivity test
    sends rounding-level answers of a barely indefinite system to the exact
    test instead.
    """
    return bool(b_unit.min(initial=np.inf) > 0.0 and b_unit.max(initial=0.0) < ROW_SUM_BOUND)


def certified_game(net: Network, delta: float) -> GameSpec | None:
    """certify's decision for any weight delta >= 0, without the refusal.

    The unit-theta spec when delta * lambda_max < 1 - margin, certified from
    its own factor (weight 0 too: the identity game); None otherwise, and for
    a non-finite delta, with no eigenvalue computed.
    """
    if not np.isfinite(delta):
        return None
    spec = GameSpec(net, check_theta(np.ones(net.n), net.n), float(delta))
    try:
        spec._factor  # the solver's factor, made here once and kept
    except np.linalg.LinAlgError:
        return None
    return spec if _row_sums_clear(spec.b_unit) or within_bound(net, delta) else None


def certify(net: Network, delta: float, theta=None) -> GameSpec:
    """Certify delta * lambda_max(G) < 1 - margin and build the GameSpec.

    theta defaults to the all-ones vector. The certificate is the spec's own
    factor of I - delta G and its b_unit; only when max(b_unit) reaches
    ROW_SUM_BOUND does within_bound factor the margin system as well.
    """
    if not 0 < delta < np.inf:
        raise InputError(f"delta must be positive and finite, got {delta:g}")
    spec = certified_game(net, delta)
    if spec is None:
        raise spectral_refusal(net, delta)
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


def one_link_solve(delta: float, sign: float, b_i, b_j, m_ii, m_jj, m_ij):
    """y = (I - delta M_SS C_SS)^-1 b_S and its determinant den, C_SS = sign P on S = {i, j}.

    P is the 2 x 2 swap: sign +1 adds the link (i, j), -1 cuts it, and the
    aggregate moves by sign delta (b_i y_j + b_j y_i). Elementwise; past the
    bound, where den <= 0, y is nan and nothing is divided by den.
    """
    s = 1.0 - sign * delta * m_ij
    d_i, d_j = sign * delta * m_ii, sign * delta * m_jj
    den = s * s - d_i * d_j
    solvable = np.where(den > 0.0, den, np.nan)
    return (s * b_i + d_i * b_j) / solvable, (d_j * b_i + s * b_j) / solvable, den


def links_certified(delta: float, b, rows, cols, m_ii, m_jj, m_ij) -> np.ndarray:
    """Whether adding each absent link (rows[t], cols[t]) provably keeps a game certified.

    certify_local's two tests in closed form for all links at once, from the
    game's b_unit and M's entries m_ii, m_jj, m_ij per link. With S = {i, j},
    I - delta R^T C_SS R is positive definite exactly when delta (m_ij +
    sqrt(m_ii m_jj)) < 1; M >= 0 is symmetric, so column i sums to b_i, and
    the grown row sums are at most max(b) + delta (b_i |y_j| + b_j |y_i|).
    False leaves the link to certify's own rule.
    """
    # Links past the 2 x 2 test go no further; for the rest delta < 1, so
    # nothing below overflows.
    t = np.flatnonzero(delta * (m_ij + np.sqrt(m_ii * m_jj)) < 1.0)
    y_i, y_j, den = one_link_solve(delta, 1.0, b[rows[t]], b[cols[t]], m_ii[t], m_jj[t], m_ij[t])
    grown = b.max() + delta * (b[rows[t]] * np.abs(y_j) + b[cols[t]] * np.abs(y_i))
    fits = np.zeros(len(rows), dtype=bool)
    fits[t] = (den > 0.0) & (grown < ROW_SUM_BOUND)  # den: rounding at the bound
    return fits


def embed(values: np.ndarray, support: NodeSet, n: int) -> np.ndarray:
    """Scatter values on a support set into a full-length vector."""
    out = np.zeros(n)
    out[list(support.members)] = values
    return out
