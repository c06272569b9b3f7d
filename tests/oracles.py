"""Independent reference implementations used to cross-check the solvers."""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

import rbgames.cutplay as cutplay
from rbgames import (LCP, LinearProgram, LPStatus, PlayerStrategy, cover_cuts, full_enumeration, knapsack_rows,
                     opponents_vector, parametrized_objective, payoff, solve_lp)
from rbgames.cutplay import Cuts, Member
from rbgames.enumeration import PROFILE_CAP
from rbgames.errors import NumericalFailure
from rbgames.game import _ALPHA_MARGIN
from rbgames.numerics import FEAS_TOL, INT_TOL, ZERO_TOL


def scipy_lp(c, A, b, lb, ub, eq=None):
    """Reference LP solve; returns (status, value, x).  ``eq`` marks the
    rows of A x <= b that hold with equality.  HiGHS's presolve may call
    an unbounded LP infeasible, so an infeasible verdict is checked on
    the zero objective."""
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None) for lo, hi in zip(lb, ub)]
    eq = np.zeros(len(b), dtype=bool) if eq is None else np.asarray(eq, dtype=bool)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    b = np.asarray(b, dtype=float)
    le = ~eq
    rows = dict(A_ub=A[le] if le.any() else None, b_ub=b[le] if le.any() else None,
                A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None)
    res = linprog(c, **rows, bounds=bounds, method="highs")
    if res.status == 2:
        if linprog(np.zeros(len(c)), **rows, bounds=bounds, method="highs").status == 0:
            return "unbounded", None, None
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    assert res.status == 0, res.message
    return "optimal", res.fun, res.x


def box_vertices(lb, ub):
    """All corner points of a finite box."""
    spans = [(lo, hi) for lo, hi in zip(lb, ub)]
    return np.array(list(itertools.product(*spans)), dtype=float)


def polyhedron_vertices(poly, decimals=9):
    """Vertices of a low-dimensional polyhedron by brute force.

    Intersects every choice of dim facets (rows plus box faces), keeps
    feasible intersection points, and dedupes.  Only meant for dim <= 3.
    """
    dim = poly.dim
    rows = [np.asarray(r, dtype=float) for r in poly.A]
    rhs = list(poly.b)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        if np.isfinite(poly.ub[j]):
            rows.append(e.copy())
            rhs.append(float(poly.ub[j]))
        if np.isfinite(poly.lb[j]):
            rows.append(-e)
            rhs.append(float(-poly.lb[j]))
    rows = np.array(rows)
    rhs = np.array(rhs)
    verts = []
    for combo in itertools.combinations(range(len(rows)), dim):
        A = rows[list(combo)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, rhs[list(combo)])
        if np.all(rows @ x <= rhs + 1e-8):
            verts.append(tuple(np.round(x, decimals) + 0.0))
    return np.array(sorted(set(verts)), dtype=float)


def in_convex_hull_of(points, x, eps=1e-8):
    """Membership in conv(points) via a scipy LP over the weights."""
    pts = np.asarray(points, dtype=float)
    K = pts.shape[0]
    A_eq = np.vstack([pts.T, np.ones((1, K))])
    b_eq = np.concatenate([np.asarray(x, dtype=float), [1.0]])
    res = linprog(np.zeros(K), A_eq=A_eq, b_eq=b_eq, bounds=[(0, 1)] * K, method="highs")
    if res.status == 0:
        return True
    # retry with a small tolerance band to dodge exact-arithmetic edges
    n = A_eq.shape[0]
    A_ub = np.vstack([A_eq, -A_eq])
    b_ub = np.concatenate([b_eq + eps, -(b_eq - eps)])
    res = linprog(np.zeros(K), A_ub=A_ub, b_ub=b_ub, bounds=[(0, 1)] * K, method="highs")
    return res.status == 0


@dataclass(eq=False)
class RegionEncoding:
    """A polyhedron as x = lo + L v over v = (y, ybar) >= 0 with the box
    rows E v = e and the piece rows G v <= g; L selects y and E is [I, I]."""

    lo: np.ndarray
    L: np.ndarray
    E: np.ndarray
    e: np.ndarray
    G: np.ndarray
    g: np.ndarray

    @property
    def nvars(self):
        return self.E.shape[1]


def encode_region_reference(region):
    """Reference encoding of a bounded Polyhedron over the free
    coordinates F = {hi > lo} of its box (lo, hi), with explicit
    selection matrices; rows the box implies are left out."""
    lo, hi = region.bounding_box()
    free = np.nonzero(hi > lo)[0]
    f = free.size
    implied = np.maximum(region.A * lo, region.A * hi).sum(axis=1) <= region.b
    A = region.A[~implied]
    L = np.zeros((region.dim, 2 * f))
    L[free, np.arange(f)] = 1.0
    E = np.hstack([np.eye(f), np.eye(f)])
    G = np.hstack([A[:, free], np.zeros((A.shape[0], f))])
    return RegionEncoding(lo=lo, L=L, E=E, e=(hi - lo)[free], G=G, g=region.b[~implied] - A @ lo)


def nash_lcp_reference(game, regions):
    """Reference Nash LCP from the explicit encodings: returns (M, q,
    extract), with z = (v, mu+, mu-, lam),
    M = [[P, -E', E', G'], [E, 0, 0, 0], [-E, 0, 0, 0], [-G, 0, 0, 0]],
    q = [L'(c + C' lo_-); -e; e; g], block (i, j) of P is
    L_i' C_ij' L_j plus alpha, and extract(z) gives lo_i + L_i v_i."""
    encs = [encode_region_reference(r) for r in regions]
    offsets = np.vstack([[0, 0, 0], np.cumsum([(enc.nvars, enc.e.size, enc.g.size) for enc in encs], axis=0)])
    voff, eoff, goff = offsets.T
    nv, ne, ng = (int(total) for total in offsets[-1])
    blocks = [slice(voff[i], voff[i + 1]) for i in range(len(encs))]
    M = np.zeros((nv + 2 * ne + ng, nv + 2 * ne + ng))
    q = np.zeros(nv + 2 * ne + ng)
    P = M[:nv, :nv]
    lows = [enc.lo for enc in encs]
    for i, (enc, p, vs) in enumerate(zip(encs, game.players, blocks)):
        Ct = p.C.to_dense().T
        col = 0
        for j, other in enumerate(encs):
            if j == i:
                continue
            P[vs, blocks[j]] = enc.L.T @ Ct[:, col : col + other.lo.size] @ other.L
            col += other.lo.size
        q[vs] = enc.L.T @ (p.c + Ct @ opponents_vector(game, lows, i))
        for sign, off in ((1.0, nv), (-1.0, nv + ne)):
            es = slice(off + eoff[i], off + eoff[i + 1])
            M[vs, es] = -sign * enc.E.T
            M[es, vs] = sign * enc.E
            q[es] = -sign * enc.e
        gs = slice(nv + 2 * ne + goff[i], nv + 2 * ne + goff[i + 1])
        M[vs, gs] = enc.G.T
        M[gs, vs] = -enc.G
        q[gs] = enc.g
    P += 2.0 * -float(np.min(P, initial=0.0)) + _ALPHA_MARGIN

    def extract(z):
        return [enc.lo + enc.L @ np.asarray(z[s], dtype=float) for s, enc in zip(blocks, encs)]

    return M, q, extract


def encoding_holds(enc, x):
    """(member, v): some v >= 0 has E v = e, G v <= g and lo + L v = x,
    for an encoding of ``encode_region_reference``, by a scipy LP."""
    A_eq = np.vstack([enc.E, enc.L])
    b_eq = np.concatenate([enc.e, np.asarray(x, dtype=float) - enc.lo])
    res = linprog(np.zeros(enc.nvars), A_ub=enc.G if enc.G.size else None, b_ub=enc.g if enc.G.size else None,
                  A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * enc.nvars, method="highs")
    return res.status == 0, res.x


def lift_holds(lift, x):
    """(member, w): some w >= 0 has H w <= h and L w = x, for the lifted
    hull (H, h, L) of ``poly._lift``, by a scipy LP."""
    H, h, L = lift
    res = linprog(np.zeros(L.shape[1]), A_ub=H, b_ub=h, A_eq=L, b_eq=np.asarray(x, dtype=float),
                  bounds=[(0, None)] * L.shape[1], method="highs")
    return res.status == 0, res.x


def brute_force_lcp(M, q, tol=1e-9):
    """All LCP solutions found by enumerating complementarity patterns."""
    n = len(q)
    sols = []
    for pattern in itertools.product([0, 1], repeat=n):
        basic = np.array(pattern, dtype=bool)
        z = np.zeros(n)
        idx = np.nonzero(basic)[0]
        if idx.size:
            sub = M[np.ix_(idx, idx)]
            if abs(np.linalg.det(sub)) < 1e-12:
                continue
            zb = np.linalg.solve(sub, -q[idx])
            if np.any(zb < -tol):
                continue
            z[idx] = np.clip(zb, 0.0, None)
        w = M @ z + q
        if np.any(w < -tol):
            continue
        sols.append((z, w))
    return sols


def lattice_points(program, cap=PROFILE_CAP):
    """The meshgrid enumeration that ``enumeration.lattice_points`` replaced.

    All integer-feasible points of a purely integer program as a (K, m)
    array, or None when some variable is continuous or the bounding
    lattice exceeds ``cap``.
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
    A = program.A.to_dense()
    if A.size:
        keep = np.all(A @ grid.T <= program.b[:, None] + FEAS_TOL, axis=0)
        grid = grid[keep]
    return grid


def cost_matrices(game, S1, S2):
    """Bilinear payoffs of each pure pair as (K1, K2) matrices, from the game."""
    p1, p2 = game.players
    e1 = S1 @ p1.c
    e2 = S2 @ p2.c
    cross1 = S2 @ p1.C.to_dense() @ S1.T  # (K2, K1)
    cross2 = S1 @ p2.C.to_dense() @ S2.T  # (K1, K2)
    return e1[:, None] + cross1.T, e2[None, :] + cross2


def degenerate_bimatrix_reference(game, tie_margin=1e-6):
    """The game-level degeneracy test that ``degenerate_bimatrix`` wraps now.

    A tied best response to some pure strategy, or an equilibrium
    (from ``full_enumeration``, as full results) whose supports differ
    in size or whose tied best responses outnumber its support, flags
    the game.
    """
    S1, S2 = [lattice_points(p) for p in game.players]
    cost1, cost2 = cost_matrices(game, S1, S2)
    if np.any(np.sum(cost1 <= cost1.min(axis=0) + tie_margin, axis=0) > 1):
        return True
    if np.any(np.sum(cost2 <= cost2.min(axis=1, keepdims=True) + tie_margin, axis=1) > 1):
        return True
    p1, p2 = game.players
    for eq in full_enumeration(game):
        s1, s2 = eq.profile.strategies
        if len(s1.support) != len(s2.support):
            return True
        vals1 = S1 @ parametrized_objective(p1, opponents_vector(game, [s1.barycenter, s2.barycenter], 0))
        vals2 = S2 @ parametrized_objective(p2, opponents_vector(game, [s1.barycenter, s2.barycenter], 1))
        if int(np.sum(vals1 <= vals1.min() + tie_margin)) > len(s1.support):
            return True
        if int(np.sum(vals2 <= vals2.min() + tie_margin)) > len(s2.support):
            return True
    return False


def best_pure_response(game, i, opponents):
    """Brute-force best response over a player's lattice points."""
    pts = lattice_points(game.players[i])
    vals = np.array([payoff(game.players[i], pt, opponents) for pt in pts])
    return pts[int(np.argmin(vals))], float(vals.min())


def is_pure_equilibrium(game, points, eps=0.0):
    """Exhaustive deviation test for a pure profile."""
    for i in range(game.n_players):
        opp = opponents_vector(game, points, i)
        cur = payoff(game.players[i], points[i], opp)
        _, best = best_pure_response(game, i, opp)
        if cur - best > eps:
            return False
    return True


def _indifference(block, tol=1e-9):
    """Opponent weights making every row of ``block`` equally costly, or None."""
    a, b = block.shape
    A = np.zeros((a + 1, b + 1))
    A[:a, :b] = block
    A[:a, b] = -1.0
    A[a, :b] = 1.0
    rhs = np.zeros(a + 1)
    rhs[a] = 1.0
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    if not np.all(np.isfinite(sol)) or np.max(np.abs(A @ sol - rhs)) > tol:
        return None
    y = sol[:b]
    if np.any(y < -tol):
        return None
    y = np.clip(y, 0.0, None)
    return y / y.sum() if y.sum() > 0 else None


def support_enumeration_loop(game, tol=1e-9):
    """Two-player equilibria by support enumeration, one pair at a time.

    Pure pairs come from an exact scan; then every support pair (I, J)
    with a mixed side, in (size, lexicographic) order of I, then of J,
    gets its own ``lstsq`` indifference solves and off-support checks.
    Returns (status, barycenters, supports, payoffs, iterations) tuples
    in the order found; iterations counts the mixed pairs scanned up to
    and including the found one.
    """
    S1, S2 = [lattice_points(p) for p in game.players]
    cost1, cost2 = cost_matrices(game, S1, S2)

    def record(status, pts, sups, scanned):
        key = tuple(round(float(v), 9) + 0.0 for pt in pts for v in pt)
        if key in seen:
            return
        seen.add(key)
        pays = [payoff(p, pts[i], opponents_vector(game, pts, i)) for i, p in enumerate(game.players)]
        out.append((status, pts, sups, pays, scanned))

    out, seen = [], set()
    for k1, k2 in np.argwhere((cost1 <= cost1.min(axis=0)) & (cost2 <= cost2.min(axis=1)[:, None])):
        record("PNE", [S1[k1], S2[k2]], [[(1.0, S1[k1])], [(1.0, S2[k2])]], cost1.size)
    supports = [[c for size in range(1, K + 1) for c in itertools.combinations(range(K), size)] for K in cost1.shape]
    scanned = 0
    for I in supports[0]:
        for J in supports[1]:
            if len(I) == 1 and len(J) == 1:
                continue
            scanned += 1
            block1, block2 = cost1[np.ix_(I, J)], cost2[np.ix_(I, J)].T
            y = _indifference(block1, tol)
            x = None if y is None else _indifference(block2, tol)
            if x is None:
                continue
            if np.any(cost1[:, J] @ y < block1[0] @ y - tol) or np.any(cost2.T[:, I] @ x < block2[0] @ x - tol):
                continue
            sups = [[(float(w), S1[i]) for w, i in zip(x, I) if w > 1e-9],
                    [(float(w), S2[j]) for w, j in zip(y, J) if w > 1e-9]]
            record("MNE", [x @ S1[list(I)], y @ S2[list(J)]], sups, scanned)
    return out


def lemke_row_loop(M, q, max_iter, cover):
    """Lexicographic Lemke on a full tableau, one Python row at a time.

    The textbook form of the solver's pivoting: tableau [I | -M | -d | q]
    for the covering vector d = ``cover``, whose first n columns hold the
    basis inverse, with the solver's tie rules and tolerances.  z0 enters
    in the row of the least q_i / d_i, the last such row on a tie, which
    is the lexicographic minimum of [q | I] / d_i.  Returns ("solution",
    z, pivots), ("ray", None, pivots) or ("cap", None, max_iter).
    """
    n = len(q)
    if np.all(q >= 0.0):
        return "solution", np.zeros(n), 0
    T = np.hstack([np.eye(n), -M, -np.reshape(cover, (-1, 1)), q.reshape(-1, 1)])
    basis = list(range(n))
    entering = 2 * n
    start = [q[i] / cover[i] for i in range(n)]
    least = min(start)
    r = z0_row = max(i for i in range(n) if start[i] <= least + 1e-9 * (1.0 + abs(least)))
    for pivots in range(1, max_iter + 1):
        T[r] /= T[r, entering]
        for i in range(n):
            if i != r:
                T[i] -= T[i, entering] * T[r]
        leaving, basis[r] = basis[r], entering
        if leaving == 2 * n:
            z = np.zeros(n)
            for i, var in enumerate(basis):
                if n <= var < 2 * n:
                    z[var - n] = max(T[i, -1], 0.0)
            return "solution", z, pivots
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rows = [i for i in range(n) if col[i] > 1e-9 * np.max(np.abs(col))]
        if not rows:
            return "ray", None, pivots
        ratio = {i: max(T[i, -1], 0.0) / col[i] for i in rows}
        least = min(ratio.values())
        rows = [i for i in rows if ratio[i] <= least + 1e-9 * (1.0 + least)]
        if len(rows) > 1 and z0_row in rows:
            r = z0_row
            continue
        for j in range(n):
            if len(rows) == 1:
                break
            lex = {i: T[i, j] / col[i] for i in rows}
            least = min(lex.values())
            rows = [i for i in rows if lex[i] <= least + 1e-9 * (1.0 + abs(least))]
        r = rows[0]
    return "cap", None, max_iter


def branch_and_bound_cold(program, opponents, node_limit=200000):
    """``solve_ip`` with every node LP solved cold by ``solve_lp``.

    The same most-fractional branching, best-bound selection and
    pruning as the solver, but each child is a fresh LinearProgram with
    its tightened bounds.  Returns (status, value, x, nodes), the last
    three None when the status is not Optimal.
    """
    cost = parametrized_objective(program, opponents)
    A, b = program.A.to_dense(), program.b
    ints = np.array(program.integers, dtype=np.int64)
    root = (program.lb.copy(), program.ub.copy())
    res = solve_lp(LinearProgram(cost, A, b, *root))
    if res.status is not LPStatus.OPTIMAL:
        return res.status, None, None, None
    heap = [(res.value, 0, root, res.x)]
    best_x, best_val, nodes, counter = None, np.inf, 1, 0
    while heap:
        bound, _, (lo, hi), x = heapq.heappop(heap)
        if bound >= best_val - 1e-9:
            continue
        frac = np.abs(x[ints] - np.round(x[ints])) if ints.size else np.zeros(0)
        if not ints.size or frac.max() <= 1e-6:
            cand = x.copy()
            if ints.size:
                cand[ints] = np.round(cand[ints])
                np.clip(cand, program.lb, program.ub, out=cand)
            if bool(np.all(A @ cand <= b + 1e-7)):
                val = float(cost @ cand)
                if val < best_val - 1e-9:
                    best_val, best_x = val, cand
                continue
            if not ints.size:
                continue
        j = int(ints[np.argmax(frac)])
        assert nodes < node_limit
        for lo_j, hi_j in ((lo[j], math.floor(x[j])), (math.ceil(x[j]), hi[j])):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[j], child_hi[j] = max(lo[j], lo_j), min(hi[j], hi_j)
            if child_lo[j] > child_hi[j]:
                continue
            child = solve_lp(LinearProgram(cost, A, b, child_lo, child_hi))
            nodes += 1
            if child.status is LPStatus.INFEASIBLE:
                continue
            assert child.status is LPStatus.OPTIMAL
            if child.value < best_val - 1e-9:
                counter += 1
                heapq.heappush(heap, (child.value, counter, (child_lo, child_hi), child.x))
    if best_x is None:
        return LPStatus.INFEASIBLE, None, None, None
    return LPStatus.OPTIMAL, best_val, best_x, nodes


class BasisReference:
    """``lcp._Basis`` as it was before its values and directions moved
    into 2n buffers; the reference ``lemke_reference`` pivots on.

    A basis of Lemke's system  w - M z - z0 d = q, for the covering
    vector d = ``cover``, and its inverse.

    Variables are numbered w_j = j, z_j = n + j and z0 = 2n.  A basic w_j
    is the unit column e_j, so B is the identity outside one square block:
    the k rows R whose w is nonbasic, met by the k other basic columns C
    (z's and z0; z0 enters first and keeps slot 0 of C until it leaves).
    The explicit inverse kept is that block's, Y = B[R, C]; it starts
    empty, and k stays well below the order n on the Nash LCPs.  B^{-1} a
    is Y^{-1} a[R] on C and a - B[:, C] d_C on the basic w.  Each pivot
    updates Y^{-1} by a rank-1 step, bordered when a w leaves for a z and
    cut down when a z leaves for a w.  Y^{-1} and B[:, C] live in buffers
    that grow by 32 rows when full.
    """

    def __init__(self, problem, cover):
        self.M, self.q, self.cover = problem.M, problem.q, cover
        n = self.n = problem.order
        self.k = 0
        self.rows = np.zeros(n, dtype=np.int64)  # R, in the order of Y's rows
        self.vars = np.zeros(n, dtype=np.int64)  # C, in the order of Y's columns
        self.xc = np.zeros(n)  # values of C
        self.xw = self.q.copy()  # values of the basic w, 0 on R
        self._inv = np.zeros((0, 0))  # Y^{-1}: rows follow C, columns R
        self._cols = np.zeros((0, n))  # B[:, C], one row per variable of C

    @property
    def inv(self):
        return self._inv[: self.k, : self.k]

    @property
    def cols(self):
        return self._cols[: self.k]

    def column(self, var):
        n = self.n
        if var < n:
            a = np.zeros(n)
            a[var] = 1.0
            return a
        return -self.M[:, var - n] if var < 2 * n else -self.cover

    def solve(self, a):
        """B^{-1} a as (on C, on every w), refined once against B."""
        inv, cols, R = self.inv, self.cols, self.rows[: self.k]
        aR = a[R]
        dc = inv @ aR
        g = dc @ cols
        fix = inv @ (aR - g[R])
        dc += fix
        dw = a - g - fix @ cols
        dw[R] = 0.0
        return dc, dw

    def refine(self):
        """Recompute the basic values B^{-1} q, with one refinement step."""
        self.xc[: self.k], self.xw = self.solve(self.q)

    def inverse_row(self, i):
        """Row of B^{-1} for C[i] when i < k, else for the basic w_(i - k)."""
        out = np.zeros(self.n)
        R = self.rows[: self.k]
        if i < self.k:
            out[R] = self.inv[i]
        else:
            out[i - self.k] = 1.0
            out[R] -= self.cols[:, i - self.k] @ self.inv
        return out

    def pivot(self, var, a, dc, dw, slot, row):
        """Enter var, with column a and B^{-1} a = (dc, dw).

        C[slot] leaves, or the basic w_row when slot < 0.
        """
        k = self.k
        step = self.xc[slot] / dc[slot] if slot >= 0 else self.xw[row] / dw[row]
        self.xc[:k] -= step * dc
        self.xw -= step * dw
        inv = self.inv
        if var < self.n:
            at = int(np.nonzero(self.rows[:k] == var)[0][0])
            if slot >= 0:
                # Y loses the row of var and the column of C[slot]; the
                # last row and column fill the gaps
                rank1_reference(inv, dc / dc[slot], inv[slot].copy())
                last = k - 1
                inv[slot] = inv[last]
                inv[:last, at] = inv[:last, last]
                self.rows[at] = self.rows[last]
                self.vars[slot], self.xc[slot] = self.vars[last], self.xc[last]
                self._cols[slot] = self._cols[last]
                self.k = last
            else:
                # row `row` of B takes the place of row var in Y
                change = self.cols[:, row] @ inv
                change[at] -= 1.0
                rank1_reference(inv, -dc / dw[row], change)
                self.rows[at] = row
            self.xw[var] = step
        elif slot >= 0:
            inv[slot] /= dc[slot]
            dc = dc.copy()
            dc[slot] = 0.0
            rank1_reference(inv, dc, inv[slot])
            self.vars[slot], self.xc[slot] = var, step
            self._cols[slot] = a
        else:
            # Y gains row `row` and the column of var, bordered by the
            # Schur complement dw[row]
            if k == self._inv.shape[0]:
                grown = np.zeros((k + 32, k + 32))
                grown[:k, :k] = inv
                self._inv, inv = grown, grown[:k, :k]
                self._cols = np.vstack([self._cols, np.zeros((32, self.n))])
            s = dw[row]
            change = self.cols[:, row] @ inv
            rank1_reference(inv, -dc / s, change)
            big = self._inv
            big[:k, k] = -dc / s
            big[k, :k] = -change / s
            big[k, k] = 1.0 / s
            self.rows[k], self.vars[k], self.xc[k] = row, var, step
            self._cols[k] = a
            self.k = k + 1
        if slot < 0:
            self.xw[row] = 0.0


def rank1_reference(A, u, v):
    """A -= outer(u, v) in place, a block of rows at a time.

    A full-size outer product would double the memory of a large A.
    """
    if A.size <= (1 << 16):
        A -= np.outer(u, v)
        return
    block = (1 << 16) // v.size
    for lo in range(0, A.shape[0], block):
        A[lo : lo + block] -= np.outer(u[lo : lo + block], v)


def lemke_reference(problem, cover):
    """The solver's Lemke loop on ``BasisReference`` and ``leaving_reference``,
    with covering vector ``cover``.

    The rank-1 updated block inverse of the solver, as it was before its
    values and directions moved into 2n buffers: two arrays per vector,
    ``np.concatenate`` in every ratio test and ``np.outer`` in every
    update.  z0 enters in the last row of the least q_i / d_i.  Returns
    (z, pivots, basic), z None when Lemke ends on a ray or at its cap of
    200 + 30 n pivots, and basic the sorted variables of the final basis
    (None with z).
    """
    n = problem.order
    if np.all(problem.q >= 0.0):
        return np.zeros(n), 0, np.arange(n)
    basis = BasisReference(problem, cover)
    start = problem.q / cover
    least = start.min()
    row = int(np.nonzero(start <= least + 1e-9 * (1.0 + abs(least)))[0][-1])
    var, slot = 2 * n, -1
    a = basis.column(var)
    dc, dw = np.zeros(0), a.copy()
    cap = 200 + 30 * n
    for pivots in range(1, cap + 1):
        leaving = int(basis.vars[slot]) if slot >= 0 else row
        basis.pivot(var, a, dc, dw, slot, row)
        if leaving == 2 * n:
            basis.refine()
            z = np.zeros(n)
            var, x = basis.vars[: basis.k], basis.xc[: basis.k]
            is_z = (var >= n) & (var < 2 * n)
            z[var[is_z] - n] = np.maximum(x[is_z], 0.0)
            basic = np.setdiff1d(np.arange(n), basis.rows[: basis.k])
            return z, pivots, np.union1d(basic, var)
        if pivots % 16 == 0:
            basis.refine()
        var = leaving + n if leaving < n else leaving - n
        a = basis.column(var)
        dc, dw = basis.solve(a)
        slot, row = leaving_reference(basis, dc, dw)
        if slot < 0 and row < 0:
            return None, pivots, None
    return None, cap, None


def leaving_reference(basis, dc, dw):
    """(slot, -1) or (-1, row) of the lexicographic minimum ratio; (-1, -1) on a ray.

    Ties in x_i / d_i go to z0 when it is among them, else to the least
    row of B^{-1} / d_i in lexicographic order, which is unique because
    B^{-1} is nonsingular.
    """
    k = basis.k
    d = np.concatenate((dc, dw))
    cand = (d > 1e-9 * np.abs(d).max()).nonzero()[0]
    if not cand.size:
        return -1, -1
    ratios = np.maximum(np.concatenate((basis.xc[:k], basis.xw))[cand], 0.0) / d[cand]
    least = ratios.min()
    cand = cand[ratios <= least + 1e-9 * (1.0 + least)]
    if cand.size > 1:
        if cand[0] == 0:  # z0's slot
            return 0, -1
        lex = np.array([basis.inverse_row(i) for i in cand]) / d[cand, None]
        keep = np.ones(cand.size, dtype=bool)
        # columns on which all tied rows agree decide nothing
        for col in lex[:, np.ptp(lex, axis=0) > 1e-9].T:
            least = col[keep].min()
            keep &= col <= least + 1e-9 * (1.0 + abs(least))
            if np.count_nonzero(keep) == 1:
                break
        cand = cand[keep]
    i = int(cand[0])
    return (i, -1) if i < k else (-1, i - k)


def leaving_full_block_reference(basis, d):
    """``lcp._leaving`` as it was when its tie-break read the full n-row
    lexicographic block of B^{-1}; returns (row, j).

    ``row`` is the row of the lexicographic minimum ratio for direction d,
    -1 on a ray.  Ties in x_r / d_r go to z0's row when it is among them,
    else to the least row of B^{-1} / d_r in lexicographic order.  ``j``
    is the column of B^{-1} that left one tied row, or None when no
    column had to: no tie, z0's row, or a tie that no column breaks.
    """
    cand = (d > 1e-9 * np.maximum.reduce(np.abs(d))).nonzero()[0]
    if not cand.size:
        return -1, None
    ratios = np.maximum(basis.x[cand], 0.0) / d[cand]
    least = np.minimum.reduce(ratios)
    cand = cand[ratios <= least + 1e-9 * (1.0 + least)]
    decider = None
    if cand.size > 1:
        if basis.z0 in cand:
            return basis.z0, None
        lex = basis.invT[:, cand][basis.slot].T / d[cand, None]
        keep = range(cand.size)
        # columns on which all tied rows agree decide nothing; the rest
        # are compared as Python floats, the same doubles numpy would use
        decisive = lex.max(axis=0) - lex.min(axis=0) > 1e-9
        for j, col in zip(decisive.nonzero()[0].tolist(), lex[:, decisive].T.tolist()):
            least = min([col[k] for k in keep])
            bound = least + 1e-9 * (1.0 + abs(least))
            keep = [k for k in keep if col[k] <= bound]
            if len(keep) == 1:
                decider = j
                break
        cand = cand[keep]
    return int(cand[0]), decider


def box_support_lp(points, sigma):
    """Convex weights over a finite point set reproducing sigma within
    FEAS_TOL in each coordinate, or None: the feasibility LP that the
    oracle ran before its L1-distance LP decided Member.

    Returns (weight, point) pairs.  Weights above 1e-6 are kept alone,
    renormalized, when they still reproduce sigma within 10 FEAS_TOL;
    otherwise every weight above ZERO_TOL is kept.
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


def separating_direction(points, sigma):
    """Direction pi of the cut pi x <= max_k pi.p_k from the row duals
    of the L1-distance LP, solved on its own: the oracle's second LP
    before one LP gave both verdicts.

    The LP is  min sum(s+ + s-)  s.t.  P'w + s+ - s- = sigma,  sum w = 1,
    w, s >= 0, each equality a pair of <= rows; pi is the difference of
    the row duals of its two sigma row blocks.
    """
    pts = np.asarray(points, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    K, m = pts.shape
    eye = np.eye(m)
    rows = np.vstack([np.hstack([pts.T, eye, -eye]), np.concatenate([np.ones(K), np.zeros(2 * m)])])
    n = K + 2 * m
    lp = LinearProgram(np.concatenate([np.zeros(K), np.ones(2 * m)]), np.vstack([rows, -rows]),
                       np.concatenate([sigma, [1.0], -sigma, [-1.0]]), np.zeros(n), np.full(n, np.inf))
    res = solve_lp(lp)
    if res.status is not LPStatus.OPTIMAL:
        raise NumericalFailure(f"separation LP ended {res.status.value}")
    y = res.row_duals
    return y[m + 1 : 2 * m + 1] - y[:m]


def separation_oracle_reference(state, sigma):
    """The separation oracle of an enumerated player in its two-LP form,
    the support LP always first.

    Pure member, then ``box_support_lp`` over every lattice point, then
    cover cuts on the region's rows, then the exact cut from
    ``separating_direction`` with its right-hand side the maximum over
    the lattice, each tried only when the one before found nothing.
    """
    p = state.program
    sigma = np.array(sigma, dtype=float)
    ints = np.array(p.integers, dtype=np.int64)

    snapped = sigma.copy()
    snapped[ints] = np.round(snapped[ints])
    integral = np.max(np.abs(sigma - snapped), initial=0.0) <= INT_TOL
    if integral and p.relaxation().contains(snapped):
        return Member(PlayerStrategy(snapped, [(1.0, snapped.copy())]), pure=True)

    pure = state.pure_points()
    support = box_support_lp(pure, sigma)
    if support is not None:
        return Member(PlayerStrategy(sigma, support))

    region = state.region()
    binary = np.zeros(p.nvars, dtype=bool)
    for j in ints:
        binary[j] = p.lb[j] == 0.0 and p.ub[j] == 1.0
    found = cover_cuts(knapsack_rows(region.A, region.b, binary), sigma)
    if found:
        return Cuts(found)
    pi = separating_direction(pure, sigma)
    return Cuts([(pi, float(np.max(pure @ pi)))])


class RoundSpy:
    """What a cut-and-play run shows through the two bindings that the
    benchmark's tracer wraps too, recorded while ``monkeypatch`` holds:

    - ``rounds``: (game, regions) for each round's Nash LCP, one region
      per player, the first round's relaxations included, by wrapping
      ``cutplay.build_nash_lcp``;
    - ``refined``: (state, pieces) for each ``cutplay.refine_region``
      call, the state and a copy of its pieces once the cuts are in.
    """

    def __init__(self, monkeypatch):
        self.rounds, self.refined = [], []
        build, refine = cutplay.build_nash_lcp, cutplay.refine_region

        def built(game, regions, last=None):
            self.rounds.append((game, list(regions)))
            return build(game, regions, last)

        def refined(state, action):
            refine(state, action)
            self.refined.append((state, list(state.pieces)))

        monkeypatch.setattr(cutplay, "build_nash_lcp", built)
        monkeypatch.setattr(cutplay, "refine_region", refined)


def murty_in_scale(n, c=0.01):
    """(M, q) whose row-scaled LCP (D^{-1} M D^{-1}, D^{-1} q), with
    D = diag(1 + |M| 1), is c times Murty's M = I + 2 (strict lower
    triangle) with q = -1, on which Lemke with covering vector 1 takes
    2^n pivots (Murty 1978).

    Row i of M = c D Mm D has L1 norm c d_i (d_i + 2 sum_{j<i} d_j), so
    d_i = 1 + that norm is the lesser root of a quadratic, solved row by
    row; it is real while c stays small against 1 / n.
    """
    d = np.zeros(n)
    for i in range(n):
        a = 1.0 - 2.0 * c * d[:i].sum()
        d[i] = (a - np.sqrt(a * a - 4.0 * c)) / (2.0 * c)
    murty = np.eye(n) + 2.0 * np.tril(np.ones((n, n)), -1)
    return c * d[:, None] * murty * d[None, :], -d


def knapsack_rows_loop(A, b, binary):
    """``cuts.knapsack_rows`` as a loop over the rows, one row's tests at
    a time: integral data to 1e-9, at least two nonzeros, all of them on
    binary variables and positive, and a coefficient sum above the
    right-hand side."""
    out = []
    for i in range(A.shape[0]):
        if not (np.all(np.abs(A[i] - np.round(A[i])) <= 1e-9) and abs(b[i] - np.round(b[i])) <= 1e-9):
            continue
        a, bi = np.round(A[i]), float(np.round(b[i]))
        sup = np.nonzero(a)[0]
        if sup.size < 2 or not np.all(binary[sup]) or np.any(a[sup] < 0) or a[sup].sum() <= bi:
            continue
        out.append((a, sup, bi))
    return out
