"""Independent reference implementations used to cross-check the solvers."""

import itertools

import numpy as np
from scipy.optimize import linprog

from rbgames import LCP, opponents_vector, payoff
from rbgames.enumeration import lattice_points


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
