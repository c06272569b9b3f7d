"""Linear complementarity:  0 <= z  perp  M z + q >= 0.

One path: Lemke's method with the all-ones covering vector and a
lexicographic ratio test.  On a feasible LCP whose M is copositive-plus,
that method ends at a solution (Lemke 1965; Cottle, Pang & Stone, *The
Linear Complementarity Problem*, 1992, ch. 4).  Every Nash LCP of
``game.build_nash_lcp`` is one: its off-diagonal blocks are skew, so
z'Mz = v'Pv for its strategy block P, which is entrywise positive.  On
other LCPs it may end on a secondary ray, which proves nothing.  A ray
and the pivot cap both give NoSolution.

The solver keeps an explicit inverse of the whole basis B of
w - M z - z0 1 = q (``_Basis``), kept by columns: each row of ``invT``
is one column of B^{-1}.  It starts as the identity and is never
factored.  The entering direction B^{-1} a is one row of ``invT`` for a
w and one product with it for a z.  A basic w_j's column of B^{-1} is
the unit vector at its row, so the pivot row of B^{-1} is nonzero only
on the k nonbasic w's and on a w basic in that row.  ``invT`` keeps the
columns of the nonbasic w's, the leaving w's included, as its first
rows, right under the basic values x: a pivot is one rank-1 step on
that block.  The lexicographic tie-break reads only those k rows, plus
the known unit column of each tied row that holds a w.
Only the basic values are refined: against B every 16 pivots and at the
end, where a residual costs products with M's columns only.  The
deadline is checked at every pivot.

``solve_lcp_with_fixings``, the LP relaxation of the LCP under
per-index fixings, is a separate helper; ``solve_lcp`` does not use it.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, NumericalFailure
from .lp import LinearProgram, LPStatus, solve_lp
from .numerics import COMPLEMENTARITY_TOL

_REFINE_EVERY = 16  # pivots between refinements of the basic values
_PIVOT_TOL = 1e-9  # relative to the largest entry of the entering column
_TIE_TOL = 1e-9

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
    """Lemke ended after ``nodes`` pivots; ``reason`` is "ray" or
    "pivot cap"."""

    nodes: int
    reason: str


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


class _Basis:
    """A basis of Lemke's system  w - M z - z0 1 = q, and its inverse.

    Variables are numbered w_j = j, z_j = n + j and z0 = 2n.  Row r of
    the system holds the basic variable ``basic[r]``, w_r at the start, so
    B starts as the identity.  The inverse is explicit and kept by
    columns: row i of ``invT`` is column ``order[i]`` of B^{-1}, and
    ``slot`` is the inverse permutation.  A basic w_j's column of B^{-1}
    is the unit vector at its row, so row r of B^{-1} is nonzero only on
    the k nonbasic w's and on a w basic in row r.  The columns of the
    nonbasic w's are kept in rows [0, k) of ``invT``.  The basic values
    ``x`` = B^{-1} q sit just above them, as row 0 of ``blk`` = [x; invT],
    so the rows a pivot rewrites are the one block ``blk[:k + 1]``.
    ``basic`` and ``slot`` are lists: the pivot path reads them one entry
    at a time.
    """

    def __init__(self, problem):
        self.M, self.q = problem.M, problem.q
        n = self.n = problem.order
        self.negMT = -np.ascontiguousarray(self.M.T)  # row j: z_j's column
        self.blk = np.eye(n + 1, n, -1)
        self.blk[0] = self.q
        self.x, self.invT = self.blk[0], self.blk[1:]
        self.basic = list(range(n))
        self.order = np.arange(n)
        self.slot = list(range(n))
        self.k = 0
        self.z0 = -1  # the row of z0 while it is basic

    def direction(self, var):
        """B^{-1} times the column of var."""
        n = self.n
        if var < n:
            return self.invT[self.slot[var]].copy()
        a = self.negMT[var - n] if var < 2 * n else -np.ones(n)
        return a[self.order] @ self.invT

    def pivot(self, var, d, r):
        """Enter var, whose direction B^{-1} a is ``d``, in row r; returns
        the variable that leaves."""
        n, k = self.n, self.k
        leaving = self.basic[r]
        if leaving < n:
            self._place(leaving, k, r)
            k += 1
        # [x; invT] <- [x; invT] - [x_r; p] (d - e_r)' / d_r, p the pivot
        # row of B^{-1}: zero outside the first k rows of invT
        dr = d[r]
        rows = self.blk[: k + 1]
        p = rows[:, r].copy()
        rows -= np.multiply.outer(p, d / dr)
        rows[:, r] = p / dr
        if var < n:
            k -= 1
            self._place(var, k, r)
        elif var == 2 * n:
            self.z0 = r
        self.k = k
        self.basic[r] = var
        return leaving

    def _place(self, j, i, r):
        """Keep column j of B^{-1}, now the unit vector at row r, in row i
        of invT; the column kept there moves to j's old row."""
        invT, order, slot = self.invT, self.order, self.slot
        s, c = slot[j], int(order[i])
        invT[s] = invT[i]
        order[s], slot[c] = c, s
        invT[i] = 0.0
        invT[i, r] = 1.0
        order[i], slot[j] = j, i

    def refine(self):
        """Recompute the basic values B^{-1} q, with one refinement step."""
        n, q, order = self.n, self.q, self.order
        basic = np.array(self.basic)
        x = q[order] @ self.invT
        # the residual q - B x, from B's unit, -M and covering columns
        z = np.zeros(n)
        is_z = (basic >= n) & (basic < 2 * n)
        z[basic[is_z] - n] = x[is_z]
        res = q + self.M @ z + x[basic == 2 * n].sum()
        is_w = basic < n
        res[basic[is_w]] -= x[is_w]
        self.x[:] = x + res[order] @ self.invT


def solve_lcp(problem, deadline=None):
    """Solve the LCP by lexicographic Lemke; LCPSolution or NoSolution.

    ``nodes`` counts Lemke pivots.  NoSolution comes from a secondary ray
    or the cap of 200 + 30 n pivots, and its ``reason`` says which.
    Raises BudgetExhausted, carrying the pivots spent, once the
    ``time.monotonic()`` value ``deadline`` has passed, and
    NumericalFailure when the end point misses the residual tolerance.
    """
    n = problem.order
    if np.all(problem.q >= 0.0):
        return LCPSolution(z=np.zeros(n), w=problem.q.copy())
    basis = _Basis(problem)
    # z0 enters and w leaves from the last row holding min q, which leaves
    # every row of [x | B^{-1}] lexicographically positive
    var, r = 2 * n, n - 1 - int(np.argmin(problem.q[::-1]))
    d = basis.direction(var)
    cap = 200 + 30 * n
    for pivots in range(1, cap + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("Lemke ran past the deadline", nodes=pivots - 1)
        leaving = basis.pivot(var, d, r)
        if leaving == 2 * n:
            basis.refine()
            return _solution(problem, basis, pivots)
        if pivots % _REFINE_EVERY == 0:
            basis.refine()
        # the complement of the leaving variable enters
        var = leaving + n if leaving < n else leaving - n
        d = basis.direction(var)
        r = _leaving(basis, d)
        if r < 0:
            return NoSolution(nodes=pivots, reason="ray")
    return NoSolution(nodes=cap, reason="pivot cap")


def _leaving(basis, d):
    """Row of the lexicographic minimum ratio for direction d; -1 on a ray.

    Ties in x_r / d_r go to z0's row when it is among them, else to the
    least row of B^{-1} / d_r in lexicographic order, which is unique
    because B^{-1} is nonsingular.  That order is read column by column,
    in index order j, over the tied rows, and a column on which all tied
    rows agree within the tolerance decides nothing.  Only the k
    nonbasic w's columns, ``invT[:k]``, need reading: a basic w_j's
    column of B^{-1} is the unit vector at its row, so on the tied rows
    it is 1/d_r at the row r holding w_j, when that row is tied, and
    exactly 0 elsewhere.  Such a column is decisive iff 1/d_r exceeds the
    tolerance, and then it drops exactly row r from the rows still kept:
    at least one other row is kept, at 0.
    """
    size = np.abs(d)
    cand = (d > _PIVOT_TOL * size[size.argmax()]).nonzero()[0]
    if cand.size < 2:
        return int(cand[0]) if cand.size else -1
    dc = d[cand]
    ratios = np.maximum(basis.x[cand], 0.0) / dc
    first = ratios.argmin()
    least = float(ratios[first])
    tied = (ratios <= least + _TIE_TOL * (1.0 + least)).nonzero()[0]
    if tied.size == 1:
        return int(cand[first])
    cand, dc = cand[tied], dc[tied]
    rows = cand.tolist()
    if basis.z0 in rows:
        return basis.z0
    lex = basis.invT[: basis.k, cand] / dc
    decisive = lex.max(axis=1) - lex.min(axis=1) > _TIE_TOL
    cols = dict(zip(basis.order[: basis.k][decisive].tolist(), lex[decisive].tolist()))
    for t, d_r in enumerate(dc.tolist()):
        j = basis.basic[rows[t]]
        if j < basis.n and 1.0 / d_r > _TIE_TOL:
            cols[j] = [0.0] * len(rows)
            cols[j][t] = 1.0 / d_r
    keep = range(len(rows))
    # the decisive columns in index order, compared as Python floats, the
    # same doubles numpy would use
    for j in sorted(cols):
        col = cols[j]
        least = min([col[t] for t in keep])
        bound = least + _TIE_TOL * (1.0 + abs(least))
        keep = [t for t in keep if col[t] <= bound]
        if len(keep) == 1:
            break
    return rows[keep[0]]


def _solution(problem, basis, pivots):
    n = problem.order
    z = np.zeros(n)
    var, x = np.array(basis.basic), basis.x
    is_z = (var >= n) & (var < 2 * n)
    z[var[is_z] - n] = np.maximum(x[is_z], 0.0)
    out = LCPSolution(z=z, w=problem.M @ z + problem.q, nodes=pivots)
    zmin, wmin, gap = out.residuals()
    eps = COMPLEMENTARITY_TOL
    norm = 1.0 + float(np.max(np.abs(out.z), initial=0.0)) * float(np.max(np.abs(out.w), initial=0.0))
    if zmin < -eps or wmin < -eps or gap > eps * max(norm, n):
        raise NumericalFailure("LCP residuals out of tolerance")
    return out
