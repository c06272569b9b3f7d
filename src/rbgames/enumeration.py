"""Equilibria by brute force over finite pure-strategy sets.

Pure profiles are scanned with an exact (zero-tolerance) deviation
check.  For two-player games the mixed equilibria of the induced
normal-form game are recovered by support enumeration (Avis, Rosenberg,
Savani & von Stengel, 2010), batched.  Support pairs (I, J) are scanned
in (size, lexicographic) order of I, then of J, in blocks of at most
``_BATCH_FLOATS`` pairs.

A block first drops the pairs that conditional dominance (Porter,
Nudelman & Shoham, 2008) rules out: some own row i in I is beaten by
another row r on every column of J by more than a margin m, for player
1 on ``cost1`` and for player 2 on ``cost2.T`` with J and I swapped.
Such a pair fails the "no cheaper row" test of ``_indifference``
whatever its weights, so the prune changes no result, and a pruned pair
still counts as scanned.  The margin covers that test's tolerances.
Let t = ``_VERIFY_TOL``, M = max|cost| and n the opponent's strategy
count.  A pair that reaches the test has raw weights y on J with
|cost_s y - v| <= t for every s in I and |sum y - 1| <= t, and each
y_j >= -t.  Clipping adds d >= 0 with sum d <= n t, and the clipped
total is at least 1 - t, so the normalized weights w give
    |cost_i w - cost_i0 w| <= (2 + 2 M n) t / (1 - t)
for the first support row i0, against which the test measures.  With
r beating i by more than m on every column of J, cost_r w < cost_i w - m,
so the pair is rejected (cost_r w < cost_i0 w - t) once
m >= t + (2 + 2 M n) t / (1 - t).  ``_margin`` takes m = 4 t (1 + M n),
whose slack of about t (1 + 2 M n) exceeds the round-off of these sums.

Each kept pair's indifference system is written in the full
(K1+1) x (K2+1) frame, zero outside I and J, so its minimum-norm
least-squares solution is the pair's own, and one stacked
pseudo-inverse solves up to ``_BATCH`` pairs.  Player 1's tests (a
consistent solution, nonnegative weights, no cheaper row) run on the
batch first; only the pairs that pass them solve player 2's system.
The survivors are then replayed in scan order.
"""

import itertools
import math
import time

import numpy as np

from .errors import BudgetExhausted, InfeasibleGame, UnsupportedGame
from .game import (EqStatus, EquilibriumResult, PlayerStrategy, SolveStats,
                   StrategyProfile, opponents_vector, payoff, profile_payoffs)
from .numerics import FEAS_TOL, ZERO_TOL

PROFILE_CAP = 1 << 20
_VERIFY_TOL = 1e-9
_BATCH = 512  # support pairs per stacked solve
_BATCH_FLOATS = 1 << 16  # and at most this many floats in a batch's frames; pairs per prune block
_TIE_MARGIN = 1e-6  # costs this close count as tied in degenerate_bimatrix


def lattice_points(program, cap=PROFILE_CAP):
    """All integer-feasible points of a purely integer program.

    Returns an (K, m) array, or None when some variable is continuous
    or the bounding lattice exceeds ``cap``.
    """
    if tuple(program.integers) != tuple(range(program.nvars)):
        return None
    return box_lattice(program.lb, program.ub, program.A.to_dense(), program.b, cap)


def box_lattice(lb, ub, A, b, cap=PROFILE_CAP):
    """Integer points x with lb <= x <= ub and A x <= b (within FEAS_TOL).

    Returns them as the rows of a C-ordered (K, m) array in
    lexicographic (``meshgrid``'s "ij") order, or None when the box
    holds more than ``cap`` integer points.
    """
    lo = np.ceil(lb).astype(np.int64)
    sizes = (np.floor(ub).astype(np.int64) - lo + 1).tolist()
    total = 1
    for size in sizes:
        if size <= 0:
            return np.zeros((0, lo.size))
        total *= size
        if total > cap:
            return None
    grid = (np.indices(sizes).reshape(lo.size, -1) + lo[:, None]).T.astype(float, order="C")
    if A.size:
        grid = grid[np.all(A @ grid.T <= b[:, None] + FEAS_TOL, axis=0)]
    return grid


def _cost_matrices(S1, S2, c1, C1, c2, C2):
    """Bilinear payoffs of each pure pair as (K1, K2) matrices.

    ``c`` is a player's linear cost and ``C`` its dense coupling, one
    row per opponent variable.
    """
    cross1 = S2 @ C1 @ S1.T  # (K2, K1)
    cross2 = S1 @ C2 @ S2.T  # (K1, K2)
    return (S1 @ c1)[:, None] + cross1.T, (S2 @ c2)[None, :] + cross2


def _key(points):
    return tuple(round(float(v), 9) + 0.0 for pt in points for v in pt)


def _check_deadline(deadline, what):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExhausted(f"{what} timed out")


def _lattices(game, deadline):
    """Every player's lattice points; raises as ``full_enumeration`` documents."""
    sets = []
    for i, p in enumerate(game.players):
        if tuple(p.integers) != tuple(range(p.nvars)):
            raise UnsupportedGame(f"player {i} ({p.name}) has continuous variables; the strategy set is not finite")
        pts = lattice_points(p, cap=PROFILE_CAP)
        if pts is None:
            raise BudgetExhausted(f"player {i} ({p.name}) has more than {PROFILE_CAP} lattice points")
        if pts.shape[0] == 0:
            raise InfeasibleGame(f"player {i} ({p.name}) has an empty feasible set")
        sets.append(pts)
        _check_deadline(deadline, "full enumeration")
    if math.prod(pts.shape[0] for pts in sets) > PROFILE_CAP:
        raise BudgetExhausted(f"profile count exceeds {PROFILE_CAP}")
    return sets


def full_enumeration(game, deadline=None):
    """Every pure equilibrium, plus every mixed one when n = 2.

    Raises BudgetExhausted when the profile count exceeds the cap or the
    deadline passes, InfeasibleGame when some player has no pure
    strategy, and UnsupportedGame when some player has a continuous
    variable.
    """
    t0 = time.monotonic()
    sets = _lattices(game, deadline)
    if game.n_players == 2:
        (S1, S2), (p1, p2) = sets, game.players
        costs = _cost_matrices(S1, S2, p1.c, p1.C.to_dense(), p2.c, p2.C.to_dense())
        results = []
        for pure, pts, sups, iterations in _two_player(S1, S2, *costs, deadline):
            supports = [[(w, S[a].copy()) for a, w in zip(*sup)] for S, sup in zip(sets, sups)]
            results.append(_result(game, pure, pts, supports, iterations, t0))
        return results

    total = math.prod(pts.shape[0] for pts in sets)
    results = []
    for combo in itertools.product(*[range(pts.shape[0]) for pts in sets]):
        _check_deadline(deadline, "full enumeration")
        pts = [sets[i][k] for i, k in enumerate(combo)]
        ok = True
        for i, p in enumerate(game.players):
            opp = opponents_vector(game, pts, i)
            cur = payoff(p, pts[i], opp)
            vals = sets[i] @ (p.c + p.C.rmatvec(opp))
            if cur > vals.min():
                ok = False
                break
        if ok:
            results.append(_result(game, True, pts, [[(1.0, pt)] for pt in pts], total, t0))
    return results


def _result(game, pure, points, supports, iterations, t0):
    profile = StrategyProfile([PlayerStrategy(pt, sup) for pt, sup in zip(points, supports)])
    return EquilibriumResult(
        status=EqStatus.PNE if pure else EqStatus.MNE,
        profile=profile,
        payoffs=profile_payoffs(game, profile),
        stats=SolveStats(iterations=iterations, wall_ms=(time.monotonic() - t0) * 1000.0),
    )


def _two_player(S1, S2, cost1, cost2, deadline):
    """Pure, then mixed, equilibria of the bimatrix game, found lazily.

    Yields (pure, points, supports, iterations): the two barycenters,
    each player's support as (indices into its lattice, weights above
    ``ZERO_TOL``), and the pairs scanned: every pure pair for a pure
    equilibrium, the mixed support pairs up to and including its own
    for a mixed one.
    """
    _check_deadline(deadline, "full enumeration")
    seen = set()
    best1 = cost1.min(axis=0)
    best2 = cost2.min(axis=1)
    one = np.ones(1)
    for k1, k2 in np.argwhere((cost1 <= best1[None, :]) & (cost2 <= best2[:, None])):
        pts = [S1[k1], S2[k2]]
        seen.add(_key(pts))
        yield True, pts, ((k1[None], one), (k2[None], one)), cost1.size
    yield from _mixed_two_player(S1, S2, cost1, cost2, seen, deadline)


def _mixed_two_player(S1, S2, cost1, cost2, seen, deadline):
    """Batched two-stage support enumeration, replayed in scan order."""
    K1, K2 = cost1.shape
    batch = max(1, min(_BATCH, _BATCH_FLOATS // ((K1 + 1) * (K2 + 1))))
    for I, J, scanned in _pair_batches(cost1, cost2, batch, deadline):
        _check_deadline(deadline, "support enumeration")
        y, ok = _indifference(cost1, I, J)
        stage1 = np.flatnonzero(ok)
        x, ok = _indifference(cost2.T, J[stage1], I[stage1])
        for k, xk in zip(stage1[ok], x[ok]):
            i, j = np.flatnonzero(I[k]), np.flatnonzero(J[k])
            xi, yj = xk[i], y[k, j]
            pts = [xi @ S1[i], yj @ S2[j]]
            key = _key(pts)
            if key in seen:
                continue
            seen.add(key)
            on1, on2 = xi > ZERO_TOL, yj > ZERO_TOL
            yield False, pts, ((i[on1], xi[on1]), (j[on2], yj[on2])), int(scanned[k])


def _support_masks(K, chunk):
    """Masks of the nonempty subsets of range(K), ``chunk`` rows at a time.

    Subsets come in (size, lexicographic) order.
    """
    supports = itertools.chain.from_iterable(itertools.combinations(range(K), size) for size in range(1, K + 1))
    while block := list(itertools.islice(supports, chunk)):
        masks = np.zeros((len(block), K), dtype=bool)
        for row, support in zip(masks, block):
            row[list(support)] = True
        yield masks


def _pair_batches(cost1, cost2, batch, deadline):
    """The mixed support pairs that the dominance prune keeps, in scan order.

    Yields (I, J, scanned) for at most ``batch`` pairs at a time: their
    masks and each one's 1-based position among the mixed pairs of the
    scan (I major, J minor; pure pairs are left to the exact scan).
    Pairs are generated and pruned in blocks of at most
    ``_BATCH_FLOATS``, with the deadline checked once per block.
    """
    K1, K2 = cost1.shape
    # a side with more than 64 strategies has over 2**64 supports, which
    # no scan finishes, so its masks need not fit the prune's words
    prune = max(K1, K2) <= 64

    def side(masks, beaten):
        """A block of supports: masks, bits and the opponent rows it prunes."""
        if not prune:
            none = np.zeros(masks.shape[0], dtype=np.uint64)
            return masks, none, none
        bits = _bits(masks)
        return masks, bits, _dominated(beaten, bits)

    beaten1 = _beaten(cost1) if prune else None
    beaten2 = _beaten(cost2.T) if prune else None
    n2 = 2**K2 - 1
    if n2 <= _BATCH_FLOATS:
        every = side(next(_support_masks(K2, n2)), beaten1)
        blocks = ((side(rows, beaten2), every) for rows in _support_masks(K1, _BATCH_FLOATS // n2))
    else:
        blocks = (
            (side(row, beaten2), side(cols, beaten1))
            for row in _support_masks(K1, 1)
            for cols in _support_masks(K2, _BATCH_FLOATS)
        )
    scanned = 0
    for (rows, bits1, prunes2), (cols, bits2, prunes1) in blocks:
        _check_deadline(deadline, "support enumeration")
        keep = (rows.sum(axis=1) > 1)[:, None] | (cols.sum(axis=1) > 1)[None, :]
        position = scanned + np.cumsum(keep)
        scanned += np.count_nonzero(keep)
        keep &= (bits1[:, None] & prunes1[None, :]) == 0
        keep &= (prunes2[:, None] & bits2[None, :]) == 0
        a, b = np.nonzero(keep)
        position = position[keep.ravel()]
        for lo in range(0, a.size, batch):
            hi = lo + batch
            yield rows[a[lo:hi]], cols[b[lo:hi]], position[lo:hi]


def _margin(cost):
    """How far a row must beat another on every column to prune (module docstring)."""
    return 4.0 * _VERIFY_TOL * (1.0 + cost.shape[1] * float(np.max(np.abs(cost))))


def _bits(masks):
    """Each mask row (at most 64 entries) packed into one uint64."""
    return masks @ (np.uint64(1) << np.arange(masks.shape[-1], dtype=np.uint64))


def _beaten(cost):
    """beaten[i, r]: bits of the columns on which row r costs less than row i by more than the margin."""
    return _bits(cost[None, :, :] < cost[:, None, :] - _margin(cost))


def _dominated(beaten, opp_bits):
    """Bits of the own rows that some row beats on every column of each opponent support.

    Works in chunks of at most ``_BATCH_FLOATS`` (support, i, r) words.
    """
    K = beaten.shape[0]
    chunk = max(1, _BATCH_FLOATS // (K * K))
    out = np.empty(opp_bits.shape, dtype=np.uint64)
    for lo in range(0, opp_bits.size, chunk):
        s = opp_bits[lo : lo + chunk, None, None]
        out[lo : lo + chunk] = _bits(np.any((beaten & s) == s, axis=2))
    return out


def _indifference(cost, own, opp):
    """Opponent weights that make each own support indifferent, batched.

    cost[s, t] is the cost of own strategy s against opponent strategy
    t; row k of the masks ``own`` and ``opp`` is one support pair.  Its
    system asks for weights on opp[k] summing to one that make every
    own[k] row equally costly, solved by least squares in the full
    frame with ``lstsq``'s default cutoff for the pair's own shape.
    Returns (weights, ok): ok[k] holds when that solution is consistent
    and nonnegative and no own strategy costs less against it.
    """
    n, a = own.shape
    b = opp.shape[1]
    A = np.zeros((n, a + 1, b + 1))
    A[:, :a, :b] = np.where(own[:, :, None] & opp[:, None, :], cost, 0.0)
    A[:, :a, b] = np.where(own, -1.0, 0.0)
    A[:, a, :b] = opp
    rcond = (np.maximum(own.sum(axis=1), opp.sum(axis=1)) + 1) * np.finfo(float).eps
    sol = np.linalg.pinv(A, rcond=rcond)[:, :, a]
    resid = (A @ sol[:, :, None])[:, :, 0]
    resid[:, a] -= 1.0
    ok = np.all(np.isfinite(sol), axis=1) & (np.max(np.abs(resid), axis=1) <= _VERIFY_TOL)
    w = np.where(opp, sol[:, :b], 0.0)
    ok &= ~np.any(w < -_VERIFY_TOL, axis=1)
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=1)
    ok &= total > 0
    w = w / np.where(ok, total, 1.0)[:, None]
    # no own strategy may beat the value of the first support row
    vals = w @ cost.T
    value = vals[np.arange(n), np.argmax(own, axis=1)]
    ok &= ~np.any(vals < value[:, None] - _VERIFY_TOL, axis=1)
    return w, ok


def degenerate_bimatrix(game):
    """Detect best-response ties in the induced two-player finite game.

    A pure strategy with two or more tied best responses, or an
    equilibrium whose tied-best-response count exceeds its support
    size, signals an infinite equilibrium component.  Enumeration
    cannot list such components pointwise, so callers comparing solver
    outputs should skip games flagged here.
    """
    if game.n_players != 2:
        raise ValueError("degeneracy test covers two-player games only")
    try:
        S1, S2 = _lattices(game, None)
    except (BudgetExhausted, InfeasibleGame) as exc:
        raise ValueError("players must have finite nonempty pure-strategy sets") from exc
    p1, p2 = game.players
    return degenerate_arrays(S1, S2, p1.c, p1.C.to_dense(), p2.c, p2.C.to_dense())


def degenerate_arrays(S1, S2, c1, C1, c2, C2):
    """``degenerate_bimatrix`` on arrays, for a scan that builds no game.

    ``S`` is a player's lattice, or None past ``PROFILE_CAP``; ``c`` is
    its linear cost and ``C`` its dense coupling, one row per opponent
    variable.  Raises ValueError past ``PROFILE_CAP`` pure profiles.
    """
    if S1 is None or S2 is None or S1.shape[0] * S2.shape[0] > PROFILE_CAP:
        raise ValueError(f"the pure profiles must number at most {PROFILE_CAP}")
    cost1, cost2 = _cost_matrices(S1, S2, c1, C1, c2, C2)
    if np.any(np.sum(cost1 <= cost1.min(axis=0) + _TIE_MARGIN, axis=0) > 1):
        return True
    if np.any(np.sum(cost2 <= cost2.min(axis=1, keepdims=True) + _TIE_MARGIN, axis=1) > 1):
        return True
    for _, (x, y), (sup1, sup2), _ in _two_player(S1, S2, cost1, cost2, None):
        n1, n2 = sup1[0].size, sup2[0].size
        if n1 != n2:
            return True
        vals1 = S1 @ (c1 + C1.T @ y)
        vals2 = S2 @ (c2 + C2.T @ x)
        if int(np.sum(vals1 <= vals1.min() + _TIE_MARGIN)) > n1:
            return True
        if int(np.sum(vals2 <= vals2.min() + _TIE_MARGIN)) > n2:
            return True
    return False
