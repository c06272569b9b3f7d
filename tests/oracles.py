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
    """Lemke's method eliminating one tableau row at a time in Python.

    The straightforward form of the solver's complementary pivoting,
    kept as a reference for its vectorized elimination.  Returns
    ("solution", z, pivots), ("ray", None, pivots) or ("cap", None,
    max_iter), with the solver's tie-breaking and tolerances.
    """
    n = len(q)
    if np.all(q >= -1e-9):
        return "solution", np.zeros(n), 0
    piv_tol = 1e-10
    T = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q.reshape(-1, 1)])
    basis = list(range(n))
    r = int(np.argmin(q))
    entering = 2 * n
    for it in range(max_iter):
        piv = T[r, entering]
        if abs(piv) < piv_tol:
            return "ray", None, it
        T[r] /= piv
        for i in range(n):
            if i != r and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[r]
        leaving = basis[r]
        basis[r] = entering
        if leaving == 2 * n:
            break
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rhs = T[:, -1]
        ratios = np.full(n, np.inf)
        pos = col > piv_tol
        ratios[pos] = rhs[pos] / col[pos]
        if not np.isfinite(ratios.min()):
            return "ray", None, it
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-9)[0]
        z0_rows = [i for i in ties if basis[i] == 2 * n]
        r = int(z0_rows[0]) if z0_rows else int(ties[0])
    else:
        return "cap", None, max_iter
    z = np.zeros(n)
    rhs = T[:, -1]
    for i, var in enumerate(basis):
        if n <= var < 2 * n:
            z[var - n] = max(rhs[i], 0.0)
    return "solution", z, it + 1


def encode_hull_row_loop(hull):
    """The lifted-hull encoding assembled one Python row at a time.

    The straightforward form of ``encode_region`` on an ExtendedHull,
    kept as a reference for its block assembly.  Returns (G, h, shift).
    """
    m = hull.dim
    K = len(hull.pieces)
    LB = np.min(np.array([lo for lo, _ in hull.boxes]), axis=0)
    nvars = m + K * m + K
    copy0 = m
    theta0 = m + K * m
    rows, rhs = [], []
    for k, (piece, (lo, hi)) in enumerate(zip(hull.pieces, hull.boxes)):
        cs = slice(copy0 + k * m, copy0 + (k + 1) * m)
        for i in range(piece.nrows):
            row = np.zeros(nvars)
            row[cs] = piece.A[i]
            row[theta0 + k] = float(piece.A[i] @ lo - piece.b[i])
            rows.append(row)
            rhs.append(0.0)
        for j in range(m):
            row = np.zeros(nvars)
            row[copy0 + k * m + j] = 1.0
            row[theta0 + k] = -(hi[j] - lo[j])
            rows.append(row)
            rhs.append(0.0)
    for sign in (1.0, -1.0):
        base = np.zeros((m, nvars))
        base[:, :m] = np.eye(m)
        for k, (lo, _) in enumerate(hull.boxes):
            base[:, copy0 + k * m : copy0 + (k + 1) * m] = -np.eye(m)
            base[:, theta0 + k] = -lo
        for j in range(m):
            rows.append(sign * base[j])
            rhs.append(sign * -LB[j])
    row = np.zeros(nvars)
    row[theta0:] = 1.0
    rows.append(row.copy())
    rhs.append(1.0)
    rows.append(-row)
    rhs.append(-1.0)
    return np.array(rows), np.array(rhs), LB
