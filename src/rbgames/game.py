"""Game model, stacked KKT complementarity system, deviation checks.

Players are ordered; player i's coupling matrix C has one block of rows
per opponent, stacked by ascending player index with i skipped.  The
Nash LCP of the convexified game pairs every variable with its
stationarity row and every constraint multiplier with its slack, over
each region as ``poly.encode_region`` rewrites it.  The certificate of
a mixed strategy, weights over pure strategies, comes from
``support_from_points``.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InfeasibleGame
from .ip import parametrized_objective, payoff, solve_ip
from .lcp import LCP
from .lp import LinearProgram, LPStatus, solve_lp
from .numerics import DEVIATION_EPS, FEAS_TOL, ZERO_TOL
from .poly import encode_region


class GameModel:
    """Ordered list of player programs with consistent coupling shapes."""

    def __init__(self, players):
        self.players = list(players)
        if not self.players:
            raise ValueError("a game needs at least one player")
        sizes = [p.nvars for p in self.players]
        total = sum(sizes)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        for i, p in enumerate(self.players):
            expect = total - sizes[i]
            if p.opp_vars != expect:
                raise ValueError(
                    f"player {i} ({p.name}): C has {p.opp_vars} rows, expected {expect} (sum of opponents' vars)"
                )

    @property
    def n_players(self):
        return len(self.players)

    def sizes(self):
        return [p.nvars for p in self.players]


def opponents_vector(game, barycenters, i):
    """Concatenation of all players' points except i, ascending index."""
    if len(barycenters) != game.n_players:
        raise ValueError("one point per player required")
    parts = [np.asarray(barycenters[j], dtype=float) for j in range(game.n_players) if j != i]
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(eq=False)
class PlayerStrategy:
    """Barycenter point plus an optional finite support behind it."""

    barycenter: np.ndarray
    support: list = None  # list of (weight, point)

    def __post_init__(self):
        self.barycenter = np.asarray(self.barycenter, dtype=float)
        if self.support is not None:
            self.support = [(float(w), np.asarray(p, dtype=float)) for w, p in self.support]


@dataclass(eq=False)
class StrategyProfile:
    strategies: list

    def barycenters(self):
        return [s.barycenter for s in self.strategies]


class EqStatus(Enum):
    PNE = "PNE"
    MNE = "MNE"
    NO_EQUILIBRIUM_FOUND = "NoEquilibriumFound"
    TIME_LIMIT = "TimeLimit"
    INFEASIBLE = "Infeasible"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(eq=False)
class SolveStats:
    iterations: int = 0
    cuts: int = 0
    branches: int = 0
    lcp_nodes: int = 0
    wall_ms: float = 0.0


@dataclass(eq=False)
class EquilibriumResult:
    status: EqStatus
    profile: StrategyProfile = None
    payoffs: list = None
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass(eq=False)
class LCPIndexMap:
    """Locates each player's strategy block inside the stacked z vector."""

    var_slices: list
    shifts: list

    def extract(self, z):
        return [np.asarray(z[s], dtype=float) + t for s, t in zip(self.var_slices, self.shifts)]


def build_nash_lcp(game, regions):
    """Stack every player's KKT system over its region into one LCP.

    z concatenates all players' region variables, then all multipliers.
    A solution's strategy blocks are simultaneous LP minimizers of each
    player's parametrized objective over its region.
    """
    n = game.n_players
    if len(regions) != n:
        raise ValueError("one region per player required")
    encs = [encode_region(r) for r in regions]
    for enc, p in zip(encs, game.players):
        if enc.m != p.nvars:
            raise ValueError("region dimension does not match the player")
    nv = sum(e.nvars for e in encs)
    nl = sum(e.h.size for e in encs)
    order = nv + nl
    M = np.zeros((order, order))
    q = np.zeros(order)
    voff = np.concatenate([[0], np.cumsum([e.nvars for e in encs])])
    loff = nv + np.concatenate([[0], np.cumsum([e.h.size for e in encs])])

    shifts_opp = []
    for i in range(n):
        shifts_opp.append(np.concatenate([encs[j].shift for j in range(n) if j != i]) if n > 1 else np.zeros(0))

    for i, (enc, p) in enumerate(zip(encs, game.players)):
        vs = slice(voff[i], voff[i] + enc.nvars)
        xs = slice(voff[i], voff[i] + enc.m)
        ls = slice(loff[i], loff[i] + enc.h.size)
        # stationarity: cost + C' x_opp + G' lambda, paired with v >= 0
        q[xs] = parametrized_objective(p, shifts_opp[i])
        Ct = p.C.to_dense().T
        col = 0
        for j in range(n):
            if j == i:
                continue
            mj = game.players[j].nvars
            xj = slice(voff[j], voff[j] + mj)
            M[xs, xj] += Ct[:, col : col + mj]
            col += mj
        M[vs, ls] = enc.G.T
        # multiplier rows: h - G v >= 0, paired with lambda >= 0
        M[ls, vs] = -enc.G
        q[ls] = enc.h

    index_map = LCPIndexMap(
        var_slices=[slice(voff[i], voff[i] + encs[i].m) for i in range(n)],
        shifts=[encs[i].shift for i in range(n)],
    )
    return LCP(M=M, q=q), index_map


@dataclass(eq=False)
class Deviation:
    player: int
    strategy: np.ndarray
    improvement: float


def deviation_check(game, profile, eps=DEVIATION_EPS, deadline=None):
    """Profitable deviations against a profile of barycenters.

    Solves one best-response IP per player; player i is reported iff its
    current payoff exceeds the best response by more than eps.  Raises
    InfeasibleGame when a player has no feasible strategy at all.
    """
    if isinstance(profile, StrategyProfile):
        points = profile.barycenters()
    else:
        points = [np.asarray(x, dtype=float) for x in profile]
    out = []
    for i, p in enumerate(game.players):
        opp = opponents_vector(game, points, i)
        best = solve_ip(p, opp, deadline=deadline)
        if best.status is LPStatus.INFEASIBLE:
            raise InfeasibleGame(f"player {i} ({p.name}) has an empty feasible set")
        if best.status is not LPStatus.OPTIMAL:
            raise InfeasibleGame(f"player {i} ({p.name}) has an unbounded best response")
        current = payoff(p, points[i], opp)
        gain = current - best.value
        if gain > eps:
            out.append(Deviation(player=i, strategy=best.x, improvement=float(gain)))
    return out


def profile_payoffs(game, profile):
    """Each player's objective value at a profile of barycenters."""
    if isinstance(profile, StrategyProfile):
        points = profile.barycenters()
    else:
        points = [np.asarray(x, dtype=float) for x in profile]
    return [payoff(p, points[i], opponents_vector(game, points, i)) for i, p in enumerate(game.players)]


def support_from_points(points, sigma):
    """Convex weights over a finite point set reproducing sigma.

    Returns a list of (weight, point) pairs or None when sigma is not in
    the convex hull of the points.  A basic LP solution keeps supports
    small (at most dim+1 atoms).
    """
    pts = np.asarray(points, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    K, m = pts.shape
    eps = FEAS_TOL
    # rows: |P' w - sigma| <= eps and sum w = 1
    A = np.vstack([pts.T, -pts.T, np.ones((1, K)), -np.ones((1, K))])
    b = np.concatenate([sigma + eps, -(sigma - eps), [1.0], [-1.0]])
    res = solve_lp(LinearProgram(np.zeros(K), A, b, np.zeros(K), np.ones(K)))
    if res.status is not LPStatus.OPTIMAL:
        return None
    w = res.x
    # drop slack-scale weights when the rest still reconstructs sigma
    keep = np.nonzero(w > 1e-6)[0]
    if keep.size:
        trial = w[keep] / w[keep].sum()
        if np.max(np.abs(pts[keep].T @ trial - sigma)) <= 10.0 * eps:
            return [(float(t), pts[k].copy()) for t, k in zip(trial, keep)]
    keep = np.nonzero(w > ZERO_TOL)[0]
    total = float(w[keep].sum())
    return [(float(w[k] / total), pts[k].copy()) for k in keep]
