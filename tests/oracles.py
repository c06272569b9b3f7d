"""Independent reference implementations used to cross-check the solvers."""

import itertools

import numpy as np
from scipy.optimize import linprog

from rbgames import LCP, opponents_vector, payoff
from rbgames.enumeration import _cost_matrices, lattice_points


def scipy_lp(c, A, b, lb, ub):
    """Reference LP solve; returns (status, value, x)."""
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None) for lo, hi in zip(lb, ub)]
    res = linprog(c, A_ub=A if A.size else None, b_ub=b if A.size else None,
                  bounds=bounds, method="highs")
    if res.status == 2:
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


def encoding_holds(enc, x):
    """(member, v): some v >= 0 has E v = e and L v = x, by a scipy LP."""
    A_eq = np.vstack([enc.E, enc.L])
    b_eq = np.concatenate([enc.e, np.asarray(x, dtype=float)])
    res = linprog(np.zeros(enc.nvars), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * enc.nvars, method="highs")
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
    cost1, cost2 = _cost_matrices(game, S1, S2)

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


def lemke_row_loop(M, q, max_iter):
    """Lexicographic Lemke on a full tableau, one Python row at a time.

    The textbook form of the solver's pivoting: tableau [I | -M | -1 | q],
    whose first n columns hold the basis inverse, with the solver's
    tie rules and tolerances.  Returns ("solution", z, pivots), ("ray",
    None, pivots) or ("cap", None, max_iter).
    """
    n = len(q)
    if np.all(q >= 0.0):
        return "solution", np.zeros(n), 0
    T = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q.reshape(-1, 1)])
    basis = list(range(n))
    entering = 2 * n
    r = z0_row = max(i for i in range(n) if q[i] == q.min())
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
