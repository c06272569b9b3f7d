"""Linear complementarity:  0 <= z  perp  M z + q >= 0.

One path: Lemke's method with the all-ones covering vector and a
lexicographic ratio test.  On a feasible LCP whose M is copositive-plus,
that method ends at a solution (Lemke 1965; Cottle, Pang & Stone, *The
Linear Complementarity Problem*, 1992, ch. 4).  Every Nash LCP of
``game.build_nash_lcp`` is one: its off-diagonal blocks are skew, so
z'Mz = v'Pv for its strategy block P, which is entrywise positive.  On
other LCPs it may end on a secondary ray, which proves nothing.  A ray
and the pivot cap both give NoSolution.

The solver keeps an explicit inverse, not of the whole basis B but of
its one block that is not an identity (``_Basis``): it starts empty,
takes one rank-1 update per pivot and is never refactored.  Accuracy
comes from refinement against B itself, whose columns are unit vectors,
columns of -M and the covering vector, so a residual costs products
with M's columns only: every entering column gets one refinement step,
and so do the basic values every 16 pivots and at the end.  Nothing
factors a matrix of the LCP's order.  The basic values and the
entering direction each live in one buffer of length 2n (the block's
columns, then every w), which the ratio test reads whole.  The deadline
is checked at every pivot.

``solve_lcp_with_fixings``, the LP relaxation of the LCP under
per-index fixings, is a separate helper; ``solve_lcp`` does not use it.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, NumericalFailure
from .lp import LinearProgram, LPStatus, solve_lp
from .numerics import COMPLEMENTARITY_TOL

# a rank-1 update of the basis inverse goes in blocks of this many
# entries: a full-size outer product would double its memory
_BLOCK_ENTRIES = 1 << 16
_GROW = 32  # rows added to the buffers of the basis when full
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
    """Lemke ended on a ray or at its pivot cap after ``nodes`` pivots."""

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


class _Basis:
    """A basis of Lemke's system  w - M z - z0 1 = q, and its inverse.

    Variables are numbered w_j = j, z_j = n + j and z0 = 2n.  A basic w_j
    is the unit column e_j, so B is the identity outside one square block:
    the k rows R whose w is nonbasic, met by the k other basic columns C
    (z's and z0; z0 enters first and keeps slot 0 of C until it leaves).
    The explicit inverse kept is that block's, Y = B[R, C]; it starts
    empty, and k stays well below the order n on the Nash LCPs.  B^{-1} a
    is Y^{-1} a[R] on C and a - B[:, C] d_C on the basic w.  Each pivot
    updates Y^{-1} by a rank-1 step, bordered when a w leaves for a z and
    cut down when a z leaves for a w.  Y^{-1} and B[:, C] live in buffers
    that grow by _GROW rows when full.

    The basic values ``x`` and the entering column's direction ``d``
    each live in one buffer of length 2n: C's slots in [0, n), zero from
    k on, then every w in [n, 2n), zero on R.  A ratio test reads them
    whole.
    """

    def __init__(self, problem):
        self.M, self.q = problem.M, problem.q
        n = self.n = problem.order
        self.k = 0
        self.rows = np.zeros(n, dtype=np.int64)  # R, in the order of Y's rows
        self.vars = np.zeros(n, dtype=np.int64)  # C, in the order of Y's columns
        self.x = np.zeros(2 * n)
        self.x[n:] = self.q
        self.d = np.zeros(2 * n)
        self._inv = np.zeros((0, 0))  # Y^{-1}: rows follow C, columns R
        self._cols = np.zeros((0, n))  # B[:, C], one row per variable of C

    def column(self, var):
        n = self.n
        if var < n:
            a = np.zeros(n)
            a[var] = 1.0
            return a
        return -self.M[:, var - n] if var < 2 * n else -np.ones(n)

    def solve(self, a, out):
        """B^{-1} a, refined once against B, into the 2n buffer ``out``."""
        k, n = self.k, self.n
        inv, cols, R = self._inv[:k, :k], self._cols[:k], self.rows[:k]
        aR = a[R]
        dc = inv @ aR
        g = dc @ cols
        fix = inv @ (aR - g[R])
        np.add(dc, fix, out=out[:k])
        dw = out[n:]
        np.subtract(a, g, out=dw)
        dw -= fix @ cols
        dw[R] = 0.0

    def refine(self):
        """Recompute the basic values B^{-1} q, with one refinement step."""
        self.solve(self.q, self.x)

    def inverse_rows(self, cand):
        """Rows of B^{-1} for buffer positions: C[i] for i < n, else w_(i - n)."""
        k, n = self.k, self.n
        R, inv = self.rows[:k], self._inv[:k, :k]
        out = np.zeros((cand.size, n))
        for t, i in enumerate(cand):
            if i < n:
                out[t, R] = inv[i]
            else:
                out[t, i - n] = 1.0
                out[t, R] -= self._cols[:k, i - n] @ inv
        return out

    def pivot(self, var, a, slot, row):
        """Enter var, with column a and B^{-1} a in ``d``.

        C[slot] leaves, or the basic w_row when slot < 0.
        """
        k, n, x, d = self.k, self.n, self.x, self.d
        dc = d[:k]
        step = x[slot] / d[slot] if slot >= 0 else x[n + row] / d[n + row]
        x -= step * d
        inv = self._inv[:k, :k]
        if var < n:
            at = int((self.rows[:k] == var).argmax())
            if slot >= 0:
                # Y loses the row of var and the column of C[slot]; the
                # last row and column fill the gaps
                _rank1(inv, dc / dc[slot], inv[slot].copy())
                last = k - 1
                inv[slot] = inv[last]
                inv[:last, at] = inv[:last, last]
                self.rows[at] = self.rows[last]
                self.vars[slot], x[slot] = self.vars[last], x[last]
                self._cols[slot] = self._cols[last]
                x[last] = d[last] = 0.0
                self.k = last
            else:
                # row `row` of B takes the place of row var in Y
                change = self._cols[:k, row] @ inv
                change[at] -= 1.0
                _rank1(inv, -dc / d[n + row], change)
                self.rows[at] = row
            x[n + var] = step
        elif slot >= 0:
            inv[slot] /= dc[slot]
            dc = dc.copy()
            dc[slot] = 0.0
            _rank1(inv, dc, inv[slot])
            self.vars[slot], x[slot] = var, step
            self._cols[slot] = a
        else:
            # Y gains row `row` and the column of var, bordered by the
            # Schur complement d[n + row]
            if k == self._inv.shape[0]:
                grown = np.zeros((k + _GROW, k + _GROW))
                grown[:k, :k] = inv
                self._inv, inv = grown, grown[:k, :k]
                self._cols = np.vstack([self._cols, np.zeros((_GROW, n))])
            s = d[n + row]
            change = self._cols[:k, row] @ inv
            u = -dc / s
            _rank1(inv, u, change)
            big = self._inv
            big[:k, k] = u
            big[k, :k] = -change / s
            big[k, k] = 1.0 / s
            self.rows[k], self.vars[k], x[k] = row, var, step
            self._cols[k] = a
            self.k = k + 1
        if slot < 0:
            x[n + row] = 0.0


def _rank1(A, u, v):
    """A -= outer(u, v) in place, a block of rows at a time.

    A full-size outer product would double the memory of a large A.
    """
    if A.size <= _BLOCK_ENTRIES:
        A -= u[:, None] * v
        return
    block = _BLOCK_ENTRIES // v.size
    for lo in range(0, A.shape[0], block):
        A[lo : lo + block] -= u[lo : lo + block, None] * v


def solve_lcp(problem, deadline=None):
    """Solve the LCP by lexicographic Lemke; LCPSolution or NoSolution.

    ``nodes`` counts Lemke pivots.  NoSolution comes from a secondary ray
    or the cap of 200 + 30 n pivots.  Raises BudgetExhausted, carrying
    the pivots spent, once the ``time.monotonic()`` value ``deadline``
    has passed, and NumericalFailure when the end point misses the
    residual tolerance.
    """
    n = problem.order
    if np.all(problem.q >= 0.0):
        return LCPSolution(z=np.zeros(n), w=problem.q.copy())
    basis = _Basis(problem)
    # z0 enters and w leaves from the last row holding min q, which leaves
    # every row of [x | B^{-1}] lexicographically positive
    var, slot, row = 2 * n, -1, n - 1 - int(np.argmin(problem.q[::-1]))
    a = basis.column(var)
    basis.d[n:] = a
    cap = 200 + 30 * n
    for pivots in range(1, cap + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("Lemke ran past the deadline", nodes=pivots - 1)
        leaving = int(basis.vars[slot]) if slot >= 0 else row
        basis.pivot(var, a, slot, row)
        if leaving == 2 * n:
            basis.refine()
            return _solution(problem, basis, pivots)
        if pivots % _REFINE_EVERY == 0:
            basis.refine()
        # the complement of the leaving variable enters
        var = leaving + n if leaving < n else leaving - n
        a = basis.column(var)
        basis.solve(a, basis.d)
        slot, row = _leaving(basis)
        if slot < 0 and row < 0:
            return NoSolution(nodes=pivots)
    return NoSolution(nodes=cap)


def _leaving(basis):
    """(slot, -1) or (-1, row) of the lexicographic minimum ratio; (-1, -1) on a ray.

    Ties in x_i / d_i go to z0 when it is among them, else to the least
    row of B^{-1} / d_i in lexicographic order, which is unique because
    B^{-1} is nonsingular.
    """
    n, d = basis.n, basis.d
    cand = (d > _PIVOT_TOL * np.maximum.reduce(np.abs(d))).nonzero()[0]
    if not cand.size:
        return -1, -1
    ratios = np.maximum(basis.x[cand], 0.0) / d[cand]
    least = np.minimum.reduce(ratios)
    cand = cand[ratios <= least + _TIE_TOL * (1.0 + least)]
    if cand.size > 1:
        if cand[0] == 0:  # z0's slot
            return 0, -1
        lex = basis.inverse_rows(cand) / d[cand, None]
        keep = range(cand.size)
        # columns on which all tied rows agree decide nothing; the rest
        # are compared as Python floats, the same doubles numpy would use
        decisive = lex.max(axis=0) - lex.min(axis=0) > _TIE_TOL
        for col in lex[:, decisive].T.tolist():
            least = min([col[k] for k in keep])
            bound = least + _TIE_TOL * (1.0 + abs(least))
            keep = [k for k in keep if col[k] <= bound]
            if len(keep) == 1:
                break
        cand = cand[keep]
    i = int(cand[0])
    return (i, -1) if i < n else (-1, i - n)


def _solution(problem, basis, pivots):
    n = problem.order
    z = np.zeros(n)
    var, x = basis.vars[: basis.k], basis.x[: basis.k]
    is_z = (var >= n) & (var < 2 * n)
    z[var[is_z] - n] = np.maximum(x[is_z], 0.0)
    out = LCPSolution(z=z, w=problem.M @ z + problem.q, nodes=pivots)
    zmin, wmin, gap = out.residuals()
    eps = COMPLEMENTARITY_TOL
    norm = 1.0 + float(np.max(np.abs(out.z), initial=0.0)) * float(np.max(np.abs(out.w), initial=0.0))
    if zmin < -eps or wmin < -eps or gap > eps * max(norm, n):
        raise NumericalFailure("LCP residuals out of tolerance")
    return out
