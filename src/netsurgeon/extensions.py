"""Equilibria for three variant payoff models on the same network machinery.

Each variant reduces to one or two plain synergy games with transformed
weights, so solutions reuse the centrality solver and the intervention
calculus applies unchanged. Each plain game is a GameSpec: the one at the
largest weight is certified from its own factor as certify does, and a game
at a smaller weight is certified by it. Variants: two interdependent
activities with a cross-activity cost, congestion through distance-two
substitution, and local complementarity with uniform global substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .graphs import (
    GameSpec,
    InputError,
    InternalCheckError,
    Network,
    _lambda_enclosure,
    certified_game,
    check_theta,
    finite_equilibrium,
    is_positive_definite,
    spectral_refusal,
)

PD_FLOOR = 1e-9
# Largest gap allowed between the congestion chain and the direct solve.
SPLIT_TOL = 1e-9


def _stretched_game(net: Network, delta: float, scale: float) -> GameSpec:
    """The unit-theta plain game at weight delta / scale, certified, for
    delta >= 0; refused with the model's own bound scale / lambda_max."""
    if not 0 <= delta < np.inf:
        raise InputError(f"delta must be nonnegative and finite, got {delta:g}")
    game = certified_game(net, delta / scale)
    if game is None:
        raise spectral_refusal(net, delta, scale)
    return game


@dataclass(frozen=True, eq=False)
class MultiActivitySpec:
    """Two activities per player, complementary in links, costly to mix."""

    network: Network
    theta_a: np.ndarray = field(repr=False)
    theta_b: np.ndarray = field(repr=False)
    delta: float
    beta: float
    # The sum game at weight delta / (1 + beta), the difference game at delta / (1 - beta).
    games: tuple[GameSpec, GameSpec] = field(repr=False)


def certify_multi_activity(
    net: Network, delta: float, beta: float, theta_a, theta_b
) -> MultiActivitySpec:
    if not -1.0 < beta < 1.0:
        raise InputError(f"cross-activity cost must lie in (-1, 1), got {beta:g}")
    wide = _stretched_game(net, delta, 1.0 - abs(beta))
    # The game at the smaller weight is certified by wide's certificate.
    weight = delta / (1.0 + abs(beta))
    narrow = wide if weight == wide.delta else GameSpec(net, wide.theta, weight)
    ta = check_theta(theta_a, net.n, "theta_a")
    tb = check_theta(theta_b, net.n, "theta_b")
    if not np.isfinite(float(np.abs(ta).max(initial=0.0)) + float(np.abs(tb).max(initial=0.0))):
        raise InputError("theta_a and theta_b are too large: their sum overflows")
    games = (narrow, wide) if beta >= 0 else (wide, narrow)
    return MultiActivitySpec(net, ta, tb, float(delta), float(beta), games)


def multi_activity_equilibrium(spec: MultiActivitySpec) -> dict:
    """Both activity profiles, from the sum game and the difference game.

    Sums of the two activities play a game at weight delta/(1+beta);
    differences at delta/(1-beta). Averaging recovers each activity.
    """
    sum_game, diff_game = spec.games
    b_sum = finite_equilibrium(sum_game.solve(spec.theta_a + spec.theta_b))
    b_diff = finite_equilibrium(diff_game.solve(spec.theta_a - spec.theta_b))
    half_sum = 0.5 * b_sum / (1.0 + spec.beta)
    half_diff = 0.5 * b_diff / (1.0 - spec.beta)
    return {"activity_a": half_sum + half_diff, "activity_b": half_sum - half_diff}


@dataclass(frozen=True, eq=False)
class CongestionSpec:
    """Neighbors complement, two-step neighbors congest."""

    network: Network
    theta: np.ndarray = field(repr=False)
    delta: float
    gamma: float

    @cached_property
    def system(self) -> np.ndarray:
        """I - delta G + gamma G^2, read-only: built once, shared by the
        positive-definite test (when the quadratic leaves one to make), the
        solve and smallest_eigenvalue."""
        system = _congestion_system(self.network, self.delta, self.gamma)
        system.flags.writeable = False
        return system

    @cached_property
    def smallest_eigenvalue(self) -> float:
        return float(eigh(self.system, eigvals_only=True, subset_by_index=[0, 0])[0])


def _congestion_system(net: Network, delta: float, gamma: float) -> np.ndarray:
    """np.eye(n) - delta * G + gamma * G^2 bit for bit, from the links.

    G^2 counts common neighbours, integers exact in either product; the
    sparse one skips the n^3 multiply of the dense one. Each entry is
    gamma * k, then less delta at a link and plus 1 on the diagonal: the
    dense sum's two terms added in the other order, which rounds the same.
    """
    s = net.sparse_adjacency
    system = (s @ s).toarray()
    system *= gamma
    rows, cols = net.links
    system[rows, cols] -= delta
    system[cols, rows] -= delta
    system[np.diag_indices(net.n)] += 1.0
    return system


def certify_congestion(net: Network, delta: float, gamma: float, theta=None) -> CongestionSpec:
    if not (0 <= delta < np.inf and 0 <= gamma < np.inf):
        raise InputError(
            f"delta and gamma must be nonnegative and finite, got {delta:g}, {gamma:g}"
        )
    if theta is None:
        theta = np.ones(net.n)
    theta = check_theta(theta, net.n)
    # The largest entry of G^2 is the largest degree.
    degree = int(np.diff(net.sparse_adjacency.indptr).max(initial=0))
    if not np.isfinite(float(gamma) * degree):
        raise InputError(f"gamma {gamma:g} is too large: gamma G^2 overflows")
    spec = CongestionSpec(net, theta, float(delta), float(gamma))
    # Each row of |I - delta G + gamma G^2| sums to at most this.
    row_bound = 1.0 + spec.delta * degree + spec.gamma * degree * degree
    if _clears_floor(spec, row_bound):
        return spec
    shifted = spec.system.copy()  # the test factors in place
    shifted[np.diag_indices(net.n)] -= PD_FLOOR
    if not is_positive_definite(shifted):
        raise InputError(
            f"game system is not positive definite: smallest eigenvalue {_floor_text(spec, row_bound)}"
        )
    return spec


def _clears_floor(spec: CongestionSpec, row_bound: float) -> bool:
    """Whether the quadratic alone proves that the shifted system
    I - delta G + gamma G^2 - PD_FLOOR I, as formed, has a Cholesky factor.

    Its eigenvalues are q(mu) - PD_FLOOR over the eigenvalues mu of G, with
    q(mu) = 1 - delta mu + gamma mu^2 >= 1 - delta^2 / (4 gamma). Forming it
    moves them by at most 3u row_bound, and Cholesky succeeds once the
    smallest exceeds n (n + 1) u times the largest diagonal entry (Demmel;
    Higham, Accuracy and Stability, Thm 10.7), so a margin above
    (n + 2)^2 eps row_bound decides as the factorization would: complex roots
    of z^2 - delta z + gamma with room to spare. The rest is left to the
    factorization.
    """
    allowance = (spec.network.n + 2) ** 2 * float(np.finfo(float).eps) * row_bound
    return spec.gamma > 0 and 1.0 - PD_FLOOR - spec.delta * spec.delta / (4.0 * spec.gamma) > allowance


def _floor_text(spec: CongestionSpec, row_bound: float) -> str:
    """spec.smallest_eigenvalue as a refusal prints it (%.3g).

    With lo <= lambda_max(G) <= hi and delta >= 2 gamma hi, q falls over the
    whole spectrum of G, so the smallest eigenvalue is q(lambda_max), inside
    [q(hi), q(lo)]. Widened by n eps row_bound for forming the system and for
    the dense eigensolver's rounding, those ends word it when they print
    alike; otherwise the dense eigenvalue does.
    """
    lo, hi, _ = _lambda_enclosure(spec.network)
    delta, gamma = spec.delta, spec.gamma
    if delta >= 2.0 * gamma * hi:
        slack = spec.network.n * float(np.finfo(float).eps) * row_bound
        text = f"{1.0 - delta * hi + gamma * hi * hi - slack:.3g}"
        if text == f"{1.0 - delta * lo + gamma * lo * lo + slack:.3g}":
            return text
    return f"{spec.smallest_eigenvalue:.3g}"


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def congestion_equilibrium(spec: CongestionSpec) -> np.ndarray:
    """Solve the congestion game directly; cross-check it through two plain games.

    With real roots beta1 >= beta2 >= 0 of z^2 - delta z + gamma, the system
    is (I - beta1 G)(I - beta2 G), so x_c = game2.solve(game1.solve(theta))
    solves it too, game_k the plain game at weight beta_k; when
    certified_game accepts game1, its certificate covers game2. Near the
    bound both routes lose accuracy like u / (1 - beta1 lambda_max): with
    h_k = max row sum of (I - beta_k G)^-1, at least 1 / (1 - beta_k lambda_max),
    and y = game1.solve(theta), the chain carries about
    sqrt(n) u h2 (h1 |y| + |x_c|) and the direct solve sqrt(n) u h1 h2 |x|.
    The two are compared at SPLIT_TOL only where that sum is below it, so a
    disagreement marks a fault, not rounding. Complex roots skip the check.
    """
    try:
        # Finite: certify_congestion checked delta, gamma and gamma G^2.
        factor = cho_factor(spec.system, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise InputError(
            "game system is not positive definite in floating point: its factorization failed"
        ) from None
    x = finite_equilibrium(cho_solve(factor, spec.theta))
    disc = spec.delta * spec.delta - 4.0 * spec.gamma
    if disc >= 0 and spec.delta > 0:
        # beta2 = gamma / beta1, so the small root suffers no cancellation.
        beta1 = 0.5 * (spec.delta + float(np.sqrt(disc)))
        game1 = certified_game(spec.network, beta1)
        if game1 is not None:
            game2 = GameSpec(spec.network, game1.theta, spec.gamma / beta1)
            y = game1.solve(spec.theta)
            unit = np.sqrt(spec.network.n) * np.finfo(float).eps * _sup(game2.b_unit)
            rounding = unit * _sup(game1.b_unit) * (_sup(y) + _sup(x))  # inf if y overflowed
            if rounding <= SPLIT_TOL:
                chain = game2.solve(y)
                gap = _sup(chain - x)
                if rounding + unit * _sup(chain) <= SPLIT_TOL and gap > SPLIT_TOL:
                    raise InternalCheckError(f"congestion split disagrees by {gap:.3g}")
    return x


@dataclass(frozen=True, eq=False)
class GlobalSubstitutionSpec:
    """Local link complementarity plus a uniform rivalry with everyone."""

    network: Network
    delta: float
    phi: float
    # The plain game at the stretched weight delta / (1 - phi).
    game: GameSpec = field(repr=False)


def certify_global_substitution(net: Network, delta: float, phi: float) -> GlobalSubstitutionSpec:
    if not 0 <= phi < 1:
        raise InputError(f"global substitution weight must lie in [0, 1), got {phi:g}")
    game = _stretched_game(net, delta, 1.0 - phi)
    return GlobalSubstitutionSpec(net, float(delta), float(phi), game)


def global_substitution_equilibrium(spec: GlobalSubstitutionSpec) -> np.ndarray:
    """Equilibrium with unit characteristics: a rescaled stretched-weight game.

    The stretched game's centralities b are at least 1 each, so the
    denominator 1 - phi + phi * sum(b) is at least 1 on a certified spec.
    """
    b = spec.game.b_unit
    den = 1.0 - spec.phi + spec.phi * float(b.sum())
    if den <= 1e-12:
        raise InternalCheckError("certified spec lost its positive denominator")
    return b / den
