"""Game model, stacked KKT complementarity system, deviation checks.

Players are ordered; player i's coupling matrix C has one block of rows
per opponent, stacked by ascending player index with i skipped.  The
Nash LCP of the convexified game (``build_nash_lcp``) writes each region
over the free coordinates of the bounding box of its first round, as
nonnegative variables below and above the lower corner; it pairs every
variable with its stationarity row, each box equality with a split
multiplier and each row the box does not imply with one multiplier.
It is built copositive-plus, so Lemke's method solves it.  A round only
adds rows, so each round's LCP borders the last one's.
One LP over a finite set of pure strategies, ``support_from_points``,
answers the separation question: it writes a mixed strategy as weights
over them, or returns a hyperplane that cuts the point off their hull.
"""

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import InfeasibleGame, NumericalFailure, UnsupportedGame
from .ip import best_response, parametrized_objective, payoff
from .lcp import LCP
from .lp import LinearProgram, LPStatus, solve_lp
from .numerics import DEVIATION_EPS, FEAS_TOL, ZERO_TOL

_ALPHA_MARGIN = 1e-3  # alpha is twice the least value that makes P nonnegative, plus this


class GameModel:
    """Ordered list of player programs with consistent coupling shapes."""

    def __init__(self, players):
        self.players = list(players)
        if not self.players:
            raise ValueError("a game needs at least one player")
        total = sum(p.nvars for p in self.players)
        for i, p in enumerate(self.players):
            expect = total - p.nvars
            if p.opp_vars != expect:
                raise ValueError(
                    f"player {i} ({p.name}): C has {p.opp_vars} rows, expected {expect} (sum of opponents' vars)"
                )

    @property
    def n_players(self):
        return len(self.players)


def opponents_vector(game, barycenters, i):
    """Concatenation of all players' points except i, ascending index."""
    if len(barycenters) != game.n_players:
        raise ValueError("one point per player required")
    parts = [np.asarray(barycenters[j], dtype=float) for j in range(game.n_players) if j != i]
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(eq=False, slots=True)
class PlayerStrategy:
    """Barycenter point plus an optional finite support behind it."""

    barycenter: np.ndarray
    support: list = None  # list of (weight, point)

    def __post_init__(self):
        self.barycenter = np.asarray(self.barycenter, dtype=float)
        if self.support is not None:
            self.support = [(float(w), np.asarray(p, dtype=float)) for w, p in self.support]


@dataclass(eq=False, slots=True)
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


@dataclass(eq=False, slots=True)
class SolveStats:
    """Counters of one solve.  ``reason`` says why a run ended without
    an equilibrium; it is None on PNE and MNE.  Under cut-and-play it
    is "ray" or "pivot cap" (Lemke), "round cap", "deviation" (found
    at certification), "deadline", or the message of the failure that
    stopped it.  Under full enumeration it is "deadline", the message of
    the exhausted profile cap or of the empty player's feasible set, or
    "enumeration found no equilibrium".  ``lcp_nodes`` counts Lemke
    pivots, those of failed warm attempts included; ``warm_rounds``
    counts the rounds whose Lemke started from the last round's basis,
    and ``cold_restarts`` those of them whose ``lcp.solve_lcp`` answer
    says ``restarted``: the warm attempt failed and Lemke fell back to
    the cold start."""

    iterations: int = 0
    cuts: int = 0
    lcp_nodes: int = 0
    warm_rounds: int = 0
    cold_restarts: int = 0
    wall_ms: float = 0.0
    reason: str = None


@dataclass(eq=False, slots=True)
class EquilibriumResult:
    """One answer of a solve.  It and the classes it holds keep slots,
    not a dict, as a caller may keep many answers."""

    status: EqStatus
    profile: StrategyProfile = None
    payoffs: list = None
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass(eq=False)
class LCPIndexMap:
    """Maps each player's block (y_i, ybar_i) of the stacked z vector to
    its strategy: lo_i, plus y_i on the free coordinates F_i.  ``highs``
    completes each box (lo_i, hi_i), kept from the game's first build,
    and ``rows`` counts each region's rows that the LCP has taken in."""

    var_slices: list
    lows: list
    highs: list
    free: list
    rows: list

    def extract(self, z):
        out = []
        for s, lo, F in zip(self.var_slices, self.lows, self.free):
            x = lo.copy()
            x[F] += z[s.start : s.start + F.size]
            out.append(x)
        return out


def build_nash_lcp(game, regions, last=None):
    """Stack every player's KKT system over its region into one LCP.

    Region i, with bounding box (lo_i, hi_i) and free coordinates
    F_i = {j : hi_ij > lo_ij}, is written over y_i, ybar_i >= 0 on F_i:
    the strategy is lo_i plus y_i on F_i, the box rows
    y_i + ybar_i = (hi_i - lo_i)_F are equalities E_i v_i = e_i with
    v_i = (y_i, ybar_i), and the region's rows A_i[:, F_i] y_i <=
    b_i - A_i lo_i are inequalities G_i v_i <= g_i.  Rows that the box
    already implies are left out: they do not change the set, and each
    would add one multiplier.  With z = (v, mu+, mu-, lam),

        M = [[P, -E', E', G'], [E, 0, 0, 0], [-E, 0, 0, 0], [-G, 0, 0, 0]],
        q = [(c + C' lo_-)_F, 0; -e; e; g],

    where the split multiplier mu+ - mu- prices E v = e, lam prices
    G v <= g, lo_- stacks the opponents' lo, and block (y_i, y_j) of P
    is C_ij' restricted to F_i x F_j, plus alpha in every entry of P.
    The all-ones vector is E_j'1, so 1'v_j is constant on region j: the
    alpha term only shifts player i's box multipliers and leaves every
    best response as it was.  alpha is sized so that P is entrywise
    positive.  Every off-diagonal block of M is skew, so z'Mz = v'Pv,
    which is positive for z >= 0 unless v = 0, and then (M + M')z = 0:
    M is copositive-plus.  Each round's convexified game has an
    equilibrium, so the LCP is feasible, and Lemke's method ends at a
    solution.  A solution's strategy blocks are simultaneous LP
    minimizers of each player's parametrized objective over its region.

    The rows of G, and so lam, go in the order they were taken in: the
    rows of the first build player by player, then each later build's
    new rows player by player, each player's in its region's row order.
    Without ``last`` the LCP is built whole on each region's bounding
    box.  Given ``last``, the previous round's (LCP, LCPIndexMap), it is
    that one bordered by the regions' new rows: the old (M, q) is its
    leading principal block, and P, alpha, E and e are unchanged.  A
    region only gains rows, so its first box still contains it, and
    with the region's rows still gives exactly the region.
    """
    if len(regions) != game.n_players:
        raise ValueError("one region per player required")
    for region, p in zip(regions, game.players):
        if region.dim != p.nvars:
            raise ValueError("region dimension does not match the player")
    if last is None:
        last = _box_lcp(game, [region.bounding_box() for region in regions])
    return _border(*last, regions)


def _box_lcp(game, boxes):
    """The Nash LCP over the boxes alone, z = (v, mu+, mu-): no region
    row taken in yet."""
    lows = [lo for lo, _ in boxes]
    free = [np.nonzero(hi > lo)[0] for lo, hi in boxes]
    voff = np.concatenate([[0], np.cumsum([2 * F.size for F in free])])
    eoff = voff // 2
    nv, ne = int(voff[-1]), int(eoff[-1])
    M = np.zeros((nv + 2 * ne, nv + 2 * ne))
    q = np.zeros(nv + 2 * ne)
    # the box row of each entry of v, as y_i and then ybar_i run over F_i
    v = np.arange(nv)
    box = nv + np.concatenate([eoff[i] + np.arange(F.size) for i, F in enumerate(free) for _ in range(2)])
    M[v, box] = -1.0
    M[box, v] = 1.0
    M[v, box + ne] = 1.0
    M[box + ne, v] = -1.0
    span = np.concatenate([(hi - lo)[F] for (lo, hi), F in zip(boxes, free)])
    q[nv : nv + ne] = -span
    q[nv + ne :] = span
    P = M[:nv, :nv]
    for i, (p, F) in enumerate(zip(game.players, free)):
        y = slice(voff[i], voff[i] + F.size)
        Ct = p.C.to_dense().T
        CtF = Ct[F]
        col = 0
        for j, lo in enumerate(lows):
            if j == i:
                continue
            P[y, voff[j] : voff[j] + free[j].size] = CtF[:, col + free[j]]
            col += lo.size
        q[y] = (p.c + Ct @ opponents_vector(game, lows, i))[F]
    # alpha > -min P makes P entrywise positive
    P += 2.0 * -float(np.min(P, initial=0.0)) + _ALPHA_MARGIN
    blocks = [slice(voff[i], voff[i + 1]) for i in range(game.n_players)]
    return LCP(M=M, q=q), LCPIndexMap(var_slices=blocks, lows=lows, highs=[hi for _, hi in boxes], free=free,
                                      rows=[0] * game.n_players)


def _border(problem, index_map, regions):
    """``problem`` bordered by the region rows that ``index_map`` has not
    taken in, each player's that the box does not imply, player by
    player: (LCP, LCPIndexMap)."""
    n = problem.order
    ineqs = []
    for region, lo, hi, F, seen in zip(regions, index_map.lows, index_map.highs, index_map.free, index_map.rows):
        A, b = region.A[seen:], region.b[seen:]
        kept = np.maximum(A * lo, A * hi).sum(axis=1) > b
        A = A[kept]
        ineqs.append((A[:, F], b[kept] - A @ lo))
    q = np.concatenate([problem.q] + [g for _, g in ineqs])
    M = np.zeros((q.size, q.size))
    M[:n, :n] = problem.M
    at = n
    for s, F, (G, g) in zip(index_map.var_slices, index_map.free, ineqs):
        y = slice(s.start, s.start + F.size)
        lam = slice(at, at + g.size)
        M[y, lam] = G.T
        M[lam, y] = -G
        at = lam.stop
    return LCP(M=M, q=q), replace(index_map, rows=[region.nrows for region in regions])


@dataclass(eq=False)
class Deviation:
    player: int
    strategy: np.ndarray
    improvement: float


def deviation_check(game, profile, eps=DEVIATION_EPS, deadline=None, lattices=None):
    """Profitable deviations against a profile of barycenters.

    Player i is reported iff its current payoff exceeds its best
    response (``ip.best_response``) by more than eps.  ``lattices`` may
    give, per player, its enumerated integer points or None; a list of
    another length raises ValueError.  Raises
    InfeasibleGame when a player has no feasible strategy at all, and
    UnsupportedGame naming a player whose best response is unbounded.
    """
    if isinstance(profile, StrategyProfile):
        points = profile.barycenters()
    else:
        points = [np.asarray(x, dtype=float) for x in profile]
    lattices = [None] * game.n_players if lattices is None else lattices
    if len(lattices) != game.n_players:
        raise ValueError("one lattice (or None) per player required")
    out = []
    for i, (p, pts) in enumerate(zip(game.players, lattices)):
        opp = opponents_vector(game, points, i)
        best = best_response(p, parametrized_objective(p, opp), pts, deadline)
        if best.status is LPStatus.INFEASIBLE:
            raise InfeasibleGame(f"player {i} ({p.name}) has an empty feasible set")
        if best.status is not LPStatus.OPTIMAL:
            raise UnsupportedGame(f"player {i} ({p.name}) has an unbounded best response")
        gain = payoff(p, points[i], opp) - best.value
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


def support_from_points(points, sigma, deadline=None):
    """Write sigma as convex weights over a finite point set, or cut it
    off their hull.

    The LP  min sum(s+ + s-)  s.t.  P'w + s+ - s- = sigma,  sum w = 1,
    w, s >= 0, its m + 1 rows stated as equalities, gives the L1
    distance from sigma to the hull of the points p_k.  At a distance of
    at most FEAS_TOL it returns (support, None): the (weight, point)
    pairs of the weights above ZERO_TOL, renormalized, at most dim + 1
    of them as the solution is basic.  Farther out it returns
    (None, pi), with pi the negated row duals u of the sigma rows: the
    columns of s+ and s- bound |u_j| <= 1 and, by LP duality,
    pi.sigma - max_k pi.p_k is that distance, so the cut
    pi x <= max_k pi.p_k removes sigma.  Raises NumericalFailure when
    the LP ends other than Optimal.  ``deadline`` bounds the LP.
    """
    pts = np.asarray(points, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    K, m = pts.shape
    eye = np.eye(m)
    rows = np.vstack([np.hstack([pts.T, eye, -eye]), np.concatenate([np.ones(K), np.zeros(2 * m)])])
    n = K + 2 * m
    lp = LinearProgram(np.concatenate([np.zeros(K), np.ones(2 * m)]), rows, np.append(sigma, 1.0),
                       np.zeros(n), np.full(n, np.inf), eq=np.ones(m + 1, dtype=bool))
    res = solve_lp(lp, deadline=deadline)
    if res.status is not LPStatus.OPTIMAL:
        raise NumericalFailure(f"separation LP ended {res.status.value}")
    if res.value <= FEAS_TOL:
        w = res.x[:K]
        keep = np.nonzero(w > ZERO_TOL)[0]
        total = float(w[keep].sum())
        return [(float(w[k] / total), pts[k].copy()) for k in keep], None
    return None, -res.row_duals[:m]
