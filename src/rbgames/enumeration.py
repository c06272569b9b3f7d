"""Equilibria by brute force over finite pure-strategy sets.

Pure profiles are scanned with an exact (zero-tolerance) deviation
check.  For two-player games the mixed equilibria of the induced
normal-form game are recovered by support enumeration: for every pair
of supports, solve the indifference system and keep solutions that
verify as equilibria.
"""

import itertools
import time

import numpy as np

from .errors import BudgetExhausted, InfeasibleGame
from .game import (EqStatus, EquilibriumResult, PlayerStrategy, SolveStats,
                   StrategyProfile, opponents_vector, payoff, profile_payoffs)
from .ip import parametrized_objective
from .numerics import FEAS_TOL

PROFILE_CAP = 1 << 20
_VERIFY_TOL = 1e-9


def lattice_points(program, cap=PROFILE_CAP):
    """All integer-feasible points of a purely integer program.

    Returns an (K, m) array, or None when some variable is continuous
    or the bounding lattice exceeds ``cap``.
    """
    m = program.nvars
    if tuple(program.integers) != tuple(range(m)):
        return None
    spans = [np.arange(int(np.ceil(program.lb[j])), int(np.floor(program.ub[j])) + 1) for j in range(m)]
    total = 1
    for s in spans:
        if s.size == 0:
            return np.zeros((0, m))
        total *= s.size
        if total > cap:
            return None
    grid = np.stack(np.meshgrid(*spans, indexing="ij"), axis=-1).reshape(-1, m).astype(float)
    A = program._dense_A
    if A.size:
        keep = np.all(A @ grid.T <= program.b[:, None] + FEAS_TOL, axis=0)
        grid = grid[keep]
    return grid


def _cost_matrices(game, S1, S2):
    """Bilinear payoffs of each pure pair as (K1, K2) matrices."""
    p1, p2 = game.players
    e1 = S1 @ p1.c
    e2 = S2 @ p2.c
    cross1 = S2 @ p1.C.to_dense() @ S1.T  # (K2, K1)
    cross2 = S1 @ p2.C.to_dense() @ S2.T  # (K1, K2)
    cost1 = e1[:, None] + cross1.T
    cost2 = e2[None, :] + cross2
    return cost1, cost2


def _pure_result(game, points, stats):
    strategies = [PlayerStrategy(barycenter=pt, support=[(1.0, pt)]) for pt in points]
    profile = StrategyProfile(strategies)
    return EquilibriumResult(
        status=EqStatus.PNE,
        profile=profile,
        payoffs=profile_payoffs(game, profile),
        stats=stats,
    )


def _key(points):
    return tuple(round(float(v), 9) + 0.0 for pt in points for v in pt)


def full_enumeration(game, deadline=None, profile_cap=PROFILE_CAP):
    """Every pure equilibrium, plus every mixed one when n = 2.

    Raises BudgetExhausted when the profile count exceeds the cap and
    InfeasibleGame when some player has no pure strategy.
    """
    t0 = time.monotonic()
    sets = []
    for i, p in enumerate(game.players):
        if tuple(p.integers) != tuple(range(p.nvars)):
            raise ValueError(f"player {i} ({p.name}) has continuous variables; the strategy set is not finite")
        pts = lattice_points(p, cap=profile_cap)
        if pts is None:
            raise BudgetExhausted(f"player {i} ({p.name}) has more than {profile_cap} lattice points")
        if pts.shape[0] == 0:
            raise InfeasibleGame(f"player {i} ({p.name}) has an empty feasible set")
        sets.append(pts)
    total = 1
    for pts in sets:
        total *= pts.shape[0]
        if total > profile_cap:
            raise BudgetExhausted(f"profile count exceeds {profile_cap}")

    def stats(scanned):
        return SolveStats(iterations=scanned, wall_ms=(time.monotonic() - t0) * 1000.0)

    results = []
    seen = set()
    n = game.n_players

    if n == 2:
        S1, S2 = sets
        cost1, cost2 = _cost_matrices(game, S1, S2)
        best1 = cost1.min(axis=0)
        best2 = cost2.min(axis=1)
        for k1, k2 in np.argwhere((cost1 <= best1[None, :]) & (cost2 <= best2[:, None])):
            pts = [S1[k1], S2[k2]]
            seen.add(_key(pts))
            results.append(_pure_result(game, pts, stats(total)))
        results.extend(_mixed_two_player(game, S1, S2, cost1, cost2, seen, stats, deadline))
        return results

    for combo in itertools.product(*[range(pts.shape[0]) for pts in sets]):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("full enumeration timed out")
        pts = [sets[i][combo[i]] for i in range(n)]
        ok = True
        for i, p in enumerate(game.players):
            opp = opponents_vector(game, pts, i)
            cur = payoff(p, pts[i], opp)
            vals = sets[i] @ (p.c + p.C.rmatvec(opp))
            if cur > vals.min():
                ok = False
                break
        if ok:
            seen.add(_key(pts))
            results.append(_pure_result(game, pts, stats(total)))
    return results


def _mixed_two_player(game, S1, S2, cost1, cost2, seen, stats, deadline):
    """Support enumeration over the induced bimatrix game."""
    K1, K2 = cost1.shape
    out = []
    scanned = 0
    for I in _supports(K1):
        for J in _supports(K2):
            if len(I) == 1 and len(J) == 1:
                continue  # pure pairs are handled by the exact scan
            if deadline is not None and scanned % 256 == 0 and time.monotonic() > deadline:
                raise BudgetExhausted("support enumeration timed out")
            scanned += 1
            y = _indifference(cost1[np.ix_(I, J)])
            if y is None:
                continue
            x = _indifference(cost2[np.ix_(I, J)].T)
            if x is None:
                continue
            # off-support strategies must not beat the support value
            v1 = float(cost1[np.ix_(I, J)][0] @ y)
            v2 = float(cost2[np.ix_(I, J)].T[0] @ x)
            if np.any(cost1[:, J] @ y < v1 - _VERIFY_TOL):
                continue
            if np.any(cost2.T[:, I] @ x < v2 - _VERIFY_TOL):
                continue
            pts = [x @ S1[list(I)], y @ S2[list(J)]]
            key = _key(pts)
            if key in seen:
                continue
            seen.add(key)
            sup1 = [(float(w), S1[i].copy()) for w, i in zip(x, I) if w > 1e-9]
            sup2 = [(float(w), S2[j].copy()) for w, j in zip(y, J) if w > 1e-9]
            profile = StrategyProfile(
                [PlayerStrategy(pts[0], sup1), PlayerStrategy(pts[1], sup2)]
            )
            out.append(
                EquilibriumResult(
                    status=EqStatus.MNE,
                    profile=profile,
                    payoffs=profile_payoffs(game, profile),
                    stats=stats(scanned),
                )
            )
    return out


def _supports(K):
    for size in range(1, K + 1):
        yield from itertools.combinations(range(K), size)


def _indifference(block):
    """Opponent weights making every row of ``block`` equally costly.

    block[s, t] is the cost of own support strategy s against opponent
    support strategy t.  Solves for nonnegative weights summing to one;
    returns None when no verified solution exists.
    """
    a, b = block.shape
    # unknowns: b weights and the common value v
    A = np.zeros((a + 1, b + 1))
    A[:a, :b] = block
    A[:a, b] = -1.0
    A[a, :b] = 1.0
    rhs = np.zeros(a + 1)
    rhs[a] = 1.0
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    if np.max(np.abs(A @ sol - rhs)) > _VERIFY_TOL:
        return None
    y = sol[:b]
    if np.any(y < -_VERIFY_TOL):
        return None
    y = np.clip(y, 0.0, None)
    s = y.sum()
    if s <= 0:
        return None
    return y / s


def degenerate_bimatrix(game, margin=1e-6):
    """Detect best-response ties in the induced two-player finite game.

    A pure strategy with two or more tied best responses, or an
    equilibrium whose tied-best-response count exceeds its support
    size, signals an infinite equilibrium component.  Enumeration
    cannot list such components pointwise, so callers comparing solver
    outputs should skip games flagged here.
    """
    if game.n_players != 2:
        raise ValueError("degeneracy test covers two-player games only")
    sets = [lattice_points(p) for p in game.players]
    if any(s is None or s.shape[0] == 0 for s in sets):
        raise ValueError("players must have finite nonempty pure-strategy sets")
    S1, S2 = sets
    cost1, cost2 = _cost_matrices(game, S1, S2)
    for j in range(cost1.shape[1]):
        col = cost1[:, j]
        if int(np.sum(col <= col.min() + margin)) > 1:
            return True
    for i in range(cost2.shape[0]):
        row = cost2[i]
        if int(np.sum(row <= row.min() + margin)) > 1:
            return True
    p1, p2 = game.players
    for eq in full_enumeration(game):
        s1, s2 = eq.profile.strategies
        if len(s1.support) != len(s2.support):
            return True
        vals1 = S1 @ parametrized_objective(p1, opponents_vector(game, [s1.barycenter, s2.barycenter], 0))
        vals2 = S2 @ parametrized_objective(p2, opponents_vector(game, [s1.barycenter, s2.barycenter], 1))
        if int(np.sum(vals1 <= vals1.min() + margin)) > len(s1.support):
            return True
        if int(np.sum(vals2 <= vals2.min() + margin)) > len(s2.support):
            return True
    return False
