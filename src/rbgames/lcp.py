"""Linear complementarity:  0 <= z  perp  M z + q >= 0.

One path: a Lemke probe, then branching.  Lemke pivoting with the
all-ones covering vector is tried first because it is far cheaper when
it lands, but ray termination proves nothing.  Where it fails, branching
fixes complementarity pairs one index at a time (z_j = 0 or w_j = 0),
solving a bounded LP relaxation per node; it is complete, so an
exhausted tree certifies that no solution exists.  Both check the
deadline as they go (Lemke at every pivot, branching at every node and
at every pivot of a node's LP) and raise BudgetExhausted once it has
passed.

Branching screens each child node before its LP relaxation.  All nodes
share one system [-M | I] (z, w) = q, z, w >= 0, in which a fixing is
an upper bound of 0 on z_j or w_j, and one cost for which the slack
basis is dual feasible.  A child refactors its parent's basis under its
own bounds and runs a bounded dual simplex; dual feasibility carries
down the tree, so no primal phase is ever needed.  A child the dual
simplex proves infeasible is dropped without its LP; every other child
is solved cold as before, so the screen changes no verdict, vertex or
node count, only the time spent on dead ends.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, NumericalFailure
from .lp import _AT_LB, _BASIC, LinearProgram, LPStatus, _Simplex, solve_lp
from .numerics import COMPLEMENTARITY_TOL

_LEMKE_BLOCK = 32  # tableau rows per elimination step in Lemke

FIX_FREE = 0
FIX_Z_ZERO = 1
FIX_W_ZERO = 2


@dataclass(eq=False)
class LCP:
    M: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise ValueError("M must be square")
        if self.q.shape != (self.M.shape[0],):
            raise ValueError("q must match the order of M")
        if not (np.all(np.isfinite(self.M)) and np.all(np.isfinite(self.q))):
            raise ValueError("M and q must be finite")

    @property
    def order(self):
        return self.M.shape[0]


@dataclass(eq=False)
class LCPSolution:
    z: np.ndarray
    w: np.ndarray
    nodes: int = 0

    def residuals(self):
        """(min z, min w, z.w) for quick invariant checks."""
        zmin = float(self.z.min()) if self.z.size else 0.0
        wmin = float(self.w.min()) if self.w.size else 0.0
        return zmin, wmin, float(self.z @ self.w)


@dataclass(eq=False)
class NoSolution:
    """Outcome of an unsuccessful search; ``certified`` means the whole

    complementarity tree was exhausted, proving the LCP has no solution.
    """

    certified: bool
    nodes: int = 0


def solve_lcp_with_fixings(problem, fixings, deadline=None):
    """LP relaxation of the LCP under per-index fixings.

    Minimizes the sum of z_j + w_j over unfixed indexes subject to
    z >= 0, M z + q >= 0 and the fixings.  Returns an LCPSolution-shaped
    point (complementarity not guaranteed) or None when infeasible.
    That sum is nonnegative (the LP's cost in z is it minus sum_free q_j),
    so Unbounded can only come from lost precision and raises
    NumericalFailure.  Raises BudgetExhausted when ``deadline`` passes.
    """
    n = problem.order
    fixings = np.asarray(fixings, dtype=np.int64)
    if fixings.shape != (n,):
        raise ValueError("one fixing per index required")
    M, q = problem.M, problem.q
    # rows: -(M z) <= q  encodes w >= 0;  w_j = 0 adds the opposite row
    rows = [-M]
    rhs = [q]
    wzero = np.nonzero(fixings == FIX_W_ZERO)[0]
    if wzero.size:
        rows.append(M[wzero])
        rhs.append(-q[wzero])
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    ub[fixings == FIX_Z_ZERO] = 0.0
    free = fixings == FIX_FREE
    cost = free.astype(float) + M[free].sum(axis=0)
    res = solve_lp(LinearProgram(cost, A, b, lb, ub), deadline=deadline)
    if res.status is LPStatus.INFEASIBLE:
        return None
    if res.status is LPStatus.UNBOUNDED:
        raise NumericalFailure("node LP unbounded although its objective is bounded below")
    z = res.x
    return LCPSolution(z=z, w=M @ z + q)


def _pattern_solve(problem, basic, tol=1e-9):
    """Exact solution attempt for a guessed complementarity pattern.

    ``basic`` marks the indexes where w is pinned to zero; the rest get
    z = 0.  One linear solve either yields a verified solution or None.
    """
    M, q = problem.M, problem.q
    n = problem.order
    z = np.zeros(n)
    idx = np.nonzero(basic)[0]
    if idx.size:
        try:
            zb = np.linalg.solve(M[np.ix_(idx, idx)], -q[idx])
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(zb)) or np.any(zb < -tol):
            return None
        z[idx] = np.clip(zb, 0.0, None)
    w = M @ z + q
    if np.any(w < -tol):
        return None
    w[idx] = 0.0
    return LCPSolution(z=z, w=w)


class _NodeScreen:
    """Warm dual-simplex infeasibility test for branching nodes.

    A basis snapshot is a pair (basis indices, column statuses) of small
    integer vectors; no tableau outlives a node.  A child's bounds only
    tighten its parent's, so the parent's dual-feasible basis is a valid
    start for the child's dual simplex.
    """

    def __init__(self, problem):
        M, q = problem.M, problem.q
        n = self.n = problem.order
        self.A = np.hstack([-M, np.eye(n)])
        self.q = q
        self.lb = np.zeros(2 * n)
        # reduced costs of z at the slack basis are cost_z + M^T 1 >= 1
        self.cost = np.concatenate([1.0 + np.maximum(0.0, -M.sum(axis=0)), np.ones(n)])
        # ten times the node LP's feasibility tolerance: the screen only
        # claims what the node LP would also find
        self.feas_tol = 1e-7 * (1.0 + float(np.max(np.abs(q))))
        self.max_pivots = 100 + 2 * n

    def root(self):
        """Snapshot of the unfixed system's dual-simplex basis, or None."""
        n = self.n
        status = np.concatenate([np.full(n, _AT_LB, np.int8), np.full(n, _BASIC, np.int8)])
        infeasible, warm = self.check((np.arange(n, 2 * n), status), np.full(n, FIX_FREE, dtype=np.int64))
        return None if infeasible else warm

    def check(self, warm, fixings):
        """(proven infeasible, snapshot for the children) of one node.

        A singular basis or an overrun pivot budget proves nothing and
        hands the parent's snapshot on unchanged.
        """
        n = self.n
        ub = np.full(2 * n, np.inf)
        ub[:n][fixings == FIX_Z_ZERO] = 0.0
        ub[n:][fixings == FIX_W_ZERO] = 0.0
        try:
            sx = _Simplex.from_basis(self.A, self.q, self.lb, ub, *warm)
            status = sx.run_dual(self.cost, self.feas_tol, self.max_pivots)
        except NumericalFailure:
            return False, warm
        if status is LPStatus.INFEASIBLE:
            return True, None
        if status is None:
            return False, warm
        return False, (sx.basis, sx.status)


def _branching(problem, eps, node_limit, deadline):
    n = problem.order
    nodes = 0
    screen = None  # built when the first node branches
    stack = [(np.zeros(n, dtype=np.int64), None)]
    while stack:
        if nodes >= node_limit or (deadline is not None and time.monotonic() > deadline):
            raise BudgetExhausted("LCP branching budget exhausted", nodes=nodes)
        fixings, warm = stack.pop()
        nodes += 1
        if warm is not None:
            infeasible, warm = screen.check(warm, fixings)
            if infeasible:
                continue
        try:
            sol = solve_lcp_with_fixings(problem, fixings, deadline=deadline)
        except BudgetExhausted as exc:
            raise BudgetExhausted("LCP node LP ran past the deadline", nodes=nodes) from exc
        if sol is None:
            continue
        prod = np.abs(sol.z * sol.w)
        free = fixings == FIX_FREE
        prod[~free] = 0.0
        j = int(np.argmax(prod))
        if prod[j] <= eps:
            sol.nodes = nodes
            return sol
        # guess the pattern the relaxation is pointing at; one linear
        # solve often settles the node without deeper branching
        basic = (fixings == FIX_W_ZERO) | (free & (sol.z > np.maximum(sol.w, eps)))
        polished = _pattern_solve(problem, basic)
        if polished is not None:
            polished.nodes = nodes
            return polished
        if screen is None:
            screen = _NodeScreen(problem)
            warm = screen.root()
        # explore the side the relaxation already leans toward first
        hi = fixings.copy()
        hi[j] = FIX_W_ZERO
        lo = fixings.copy()
        lo[j] = FIX_Z_ZERO
        if sol.z[j] > sol.w[j]:
            stack.append((lo, warm))
            stack.append((hi, warm))
        else:
            stack.append((hi, warm))
            stack.append((lo, warm))
    return NoSolution(certified=True, nodes=nodes)


def _lemke(problem, eps, max_iter, deadline=None):
    n = problem.order
    M, q = problem.M, problem.q
    if np.all(q >= -eps):
        z = np.zeros(n)
        return LCPSolution(z=z, w=q.copy(), nodes=0)
    # tableau over columns [w | z | z0], basis starts as w
    piv_tol = 1e-10
    T = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q.reshape(-1, 1)])
    basis = list(range(n))
    r = int(np.argmin(q))
    entering = 2 * n  # z0

    for it in range(max_iter):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("Lemke ran past the deadline", nodes=it)
        piv = T[r, entering]
        if abs(piv) < piv_tol:
            return NoSolution(certified=False, nodes=it)
        T[r] /= piv
        # rank-1 elimination of the entering column from every other row,
        # a block of rows at a time: one full-size temporary per pivot
        # would raise peak memory by the tableau's size at large orders
        col = T[:, entering].copy()
        col[r] = 0.0
        for lo in range(0, n, _LEMKE_BLOCK):
            T[lo:lo + _LEMKE_BLOCK] -= np.outer(col[lo:lo + _LEMKE_BLOCK], T[r])
        leaving = basis[r]
        basis[r] = entering
        if leaving == 2 * n:
            break
        # complement of the leaving variable enters next
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rhs = T[:, -1]
        ratios = np.full(n, np.inf)
        pos = col > piv_tol
        ratios[pos] = rhs[pos] / col[pos]
        if not np.isfinite(ratios.min()):
            return NoSolution(certified=False, nodes=it)  # ray termination
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-9)[0]
        # drive z0 out as soon as it blocks; otherwise lowest row index
        z0_rows = [i for i in ties if basis[i] == 2 * n]
        r = int(z0_rows[0]) if z0_rows else int(ties[0])
    else:
        raise BudgetExhausted("Lemke iteration cap hit", nodes=max_iter)

    z = np.zeros(n)
    rhs = T[:, -1]
    for i, var in enumerate(basis):
        if n <= var < 2 * n:
            z[var - n] = max(rhs[i], 0.0)
    return LCPSolution(z=z, w=M @ z + q, nodes=it + 1)


def _within_residuals(out, eps, order):
    zmin, wmin, gap = out.residuals()
    norm = 1.0 + float(np.max(np.abs(out.z), initial=0.0)) * float(np.max(np.abs(out.w), initial=0.0))
    return zmin >= -eps and wmin >= -eps and gap <= eps * max(norm, order)


def solve_lcp(problem, node_limit=100000, deadline=None):
    """Solve the LCP; returns LCPSolution or NoSolution.

    A Lemke probe runs first; where it ends on a ray, runs out of pivots
    or misses the residual tolerance, branching takes over, and its
    NoSolution is a certificate of emptiness.  ``nodes`` counts branching
    nodes, 0 when the probe lands.  Raises BudgetExhausted when the node
    limit or the deadline runs out.
    """
    eps = COMPLEMENTARITY_TOL
    try:
        probe = _lemke(problem, eps, 200 + 30 * problem.order, deadline)
    except BudgetExhausted:
        probe = None
    if isinstance(probe, LCPSolution) and _within_residuals(probe, eps, problem.order):
        probe.nodes = 0
        return probe
    out = _branching(problem, eps, node_limit, deadline)
    if isinstance(out, LCPSolution) and not _within_residuals(out, eps, problem.order):
        raise NumericalFailure("LCP residuals out of tolerance")
    return out
