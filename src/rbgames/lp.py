"""Bounded-variable revised simplex.

Solves  min c.x  subject to  A x <= b  (with equality on the rows that
``eq`` marks)  and  lb <= x <= ub,  where bounds may be infinite.  Every
row gets a slack variable, bounded below by 0 on a <= row and fixed at 0
on an equality row; a row that the start point misses gets a phase-1
artificial, and variable bounds are handled directly by the ratio test
instead of being expanded into rows.  Phase 1 minimizes the sum of the
artificials; phase 2 fixes each of them at 0.  One still basic then
leaves at the first, degenerate, pivot whose entering column has a
nonzero in its row.  On a redundant row none has, so it stays basic at
0, and its zero reduced cost makes that row's dual 0: a valid dual, as
a fixed column adds no dual constraint.  Dantzig pricing runs first;
after a pivot budget the solver falls back to Bland's rule, and if that
also stalls it raises NumericalFailure rather than returning a wrong
answer.

The solver keeps an explicit inverse of the m x m basis B (the revised
simplex of Dantzig & Orchard-Hays, 1954), as ``lcp._Basis`` does for
Lemke.  Each pivot prices from y = c_B B^{-1} and d = c - y A, takes the
entering column as B^{-1} a_e and updates B^{-1} by one rank-1 step.
``solve_lp`` starts from the slack basis, with an artificial in place of
the slack of each row phase 1 needs: the identity up to signs, which is
its own inverse.  B^{-1} and the basic values, with one refinement
step, are recomputed from the basis every 64 pivots, after phase 1 and
at the end.  An optimal result keeps its final simplex state: its row
duals are -y, read when first asked for, and ``cuts.gomory_cuts``
reads its tableau rows B^{-1}[r] A.
"""

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BudgetExhausted, NumericalFailure

_PIVOT_TOL = 1e-11  # the ratio test scales it by max(1, the column's largest entry)
_PRICE_TOL = 1e-9  # least reduced cost that makes a column eligible
_REFRESH_EVERY = 64

# nonbasic/basic markers
_BASIC = 0
_AT_LB = 1
_AT_UB = 2
_FREE = 3


class LPStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass(eq=False)
class LinearProgram:
    """min c.x  s.t.  A x <= b,  lb <= x <= ub;  ``eq`` marks the rows
    that hold with equality (none when it is None)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    eq: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if self.c.ndim != 1:
            raise ValueError("c must be a vector")
        n = self.c.size
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise ValueError(f"A must have shape (m, {n})")
        if self.b.shape != (self.A.shape[0],):
            raise ValueError("b length must match the row count of A")
        self.eq = np.zeros(self.b.size, dtype=bool) if self.eq is None else np.asarray(self.eq, dtype=bool)
        if self.eq.shape != self.b.shape:
            raise ValueError("eq must mark each row of A")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bounds must match the variable count")
        if not (np.isfinite(self.c).all() and np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("c, A, b must be finite")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("bounds must not be NaN")
        if (self.lb > self.ub).any():
            raise ValueError("lb must not exceed ub")

    @property
    def nvars(self):
        return self.c.size

    @property
    def nrows(self):
        return self.A.shape[0]


@dataclass(eq=False)
class LPResult:
    """Solver outcome.

    ``row_duals`` are the multipliers of the rows, nonnegative on the
    A x <= b rows and free on the equality rows; ``reduced_costs`` carry
    the bound multipliers (positive at an active lower bound, negative
    at an active upper bound).  Both are None unless the status is
    Optimal, and are computed from the final basis inverse when first
    read.
    """

    status: LPStatus
    x: np.ndarray = None
    value: float = None
    iterations: int = 0
    _state: object = field(default=None, repr=False)  # the final _Simplex of an Optimal solve

    @cached_property
    def _duals(self):
        return (None, None) if self._state is None else self._state.duals()

    @property
    def row_duals(self):
        return self._duals[0]

    @property
    def reduced_costs(self):
        return self._duals[1]

    def dual_value(self, lp):
        """Dual objective -y.b + sum of active-bound terms (weak duality).

        A reduced cost within the pricing tolerance of 0 is rounding
        noise, so it activates no bound, which may be infinite.
        """
        if self.status is not LPStatus.OPTIMAL:
            raise ValueError("dual value only defined for optimal results")
        d = self.reduced_costs
        val = -float(self.row_duals @ lp.b)
        at_lo = d > _PRICE_TOL
        at_up = d < -_PRICE_TOL
        val += float(np.sum(d[at_lo] * lp.lb[at_lo]))
        val += float(np.sum(d[at_up] * lp.ub[at_up]))
        return val


class _Simplex:
    """Basis state over the full column set (n structurals, then slacks).

    ``lp`` is the LinearProgram solved, ``c`` the phase-2 cost over every
    column and ``feas_tol`` the primal feasibility tolerance.  ``Binv``
    is the inverse of the basis matrix A[:, basis], whose row r belongs
    to the variable basic in row r.  ``fresh`` says that Binv and the
    basic values are what refresh() would compute for the current basis.
    """

    def __init__(self, lp, Acols, lb, ub, feas_tol):
        self.lp = lp
        self.A = Acols
        self.b = lp.b
        self.lb = lb
        self.ub = ub
        self.n = lp.nvars
        self.feas_tol = feas_tol
        self.m, self.N = Acols.shape
        self.c = None
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.status = np.zeros(self.N, dtype=np.int8)
        self.x = np.zeros(self.N)
        self.Binv = np.eye(self.m)
        self.pivots = 0
        self.fresh = False

    def refresh(self):
        """Re-invert the basis and recompute the basic values, with one
        refinement step."""
        if self.m:
            B = self.A[:, self.basis]
            try:
                self.Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                raise NumericalFailure("singular basis in simplex refresh")
            xn = self.x.copy()
            xn[self.basis] = 0.0
            rhs = self.b - self.A @ xn
            xb = self.Binv @ rhs
            self.x[self.basis] = xb + self.Binv @ (rhs - B @ xb)
        self.fresh = True

    def column(self, e):
        """B^{-1} a_e, the tableau column of column e."""
        return self.Binv @ self.A[:, e]

    def row(self, r):
        """B^{-1}[r] A, the tableau row of basis row r."""
        return self.Binv[r] @ self.A

    def duals(self):
        """(row duals, reduced costs of the structurals) at the current basis."""
        if self.m == 0:
            return np.zeros(0), self.lp.c.copy()
        y = self.c[self.basis] @ self.Binv
        return -y, self.lp.c - y @ self.lp.A

    def optimum(self):
        """The Optimal LPResult at the current basis; it keeps this state."""
        n, lp = self.n, self.lp
        x = self.x[:n].copy()
        if self.m:
            resid = lp.A @ x - lp.b
            worst = float(np.max(np.where(lp.eq, np.abs(resid), resid)))
            if worst > self.feas_tol * 10:
                raise NumericalFailure(f"optimal point violates rows by {worst:.3e}")
        np.clip(x, self.lb[:n], self.ub[:n], out=x)
        return LPResult(LPStatus.OPTIMAL, x=x, value=float(lp.c @ x), iterations=self.pivots, _state=self)

    def run(self, c, deadline=None):
        """Iterate to optimality for objective c.  Returns an LPStatus."""
        m, N = self.m, self.N
        soft = 400 + 20 * N
        hard = 4 * soft + 4000
        fixed = ~(self.ub - self.lb > 0)
        # no column becomes free during a run
        free = self.status == _FREE
        if not free.any():
            free = None
        while True:
            if self.pivots >= hard:
                raise NumericalFailure(f"simplex stalled after {self.pivots} pivots")
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhausted("simplex ran past the deadline")
            bland = self.pivots >= soft
            if m:
                d = c - (c[self.basis] @ self.Binv) @ self.A
                d[self.basis] = 0.0
            else:
                d = c.copy()
            # the cost decrease per unit move of each column off its
            # bound: |d| where d has the improving sign, else <= 0, and
            # 0 on a fixed column
            gain = np.where(self.status == _AT_UB, d, -d)
            if free is not None:
                gain[free] = np.abs(d[free])
            gain[fixed] = 0.0
            # Dantzig: the largest gain, lowest index on ties; Bland: the
            # lowest eligible index
            e = int((gain > _PRICE_TOL).argmax()) if bland else int(gain.argmax())
            if not gain[e] > _PRICE_TOL:
                return LPStatus.OPTIMAL
            if self.status[e] == _AT_UB or (self.status[e] == _FREE and d[e] > 0):
                direction = -1.0
            else:
                direction = 1.0

            col = self.column(e) if m else np.zeros(0)
            g = direction * col
            t_basic = np.inf
            r = -1
            if m:
                # a pivot must pass the tolerance relative to the
                # column's largest entry, as in Lemke's ratio test
                tol = _PIVOT_TOL * max(1.0, float(np.abs(g).max()))
                pos = g > tol
                bound = np.where(pos, self.lb[self.basis], self.ub[self.basis])
                lim = np.divide(self.x[self.basis] - bound, g, out=np.full(m, np.inf), where=pos | (g < -tol))
                lim[np.isnan(lim)] = np.inf
                np.maximum(lim, 0.0, out=lim)
                t_basic = lim.min()
                if t_basic < np.inf:
                    ties = (lim <= t_basic + 1e-12).nonzero()[0]
                    # smallest leaving column index keeps cycling at bay
                    r = int(ties[self.basis[ties].argmin()])
            # an infinite bound makes the span +inf, never NaN
            t_bound = self.ub[e] - self.lb[e]
            t = min(t_bound, t_basic)
            if t == np.inf:
                return LPStatus.UNBOUNDED

            self.x[e] += direction * t
            if m:
                self.x[self.basis] -= t * g
            if t_bound < t_basic - 1e-12:
                # entering variable runs to its other bound; basis unchanged
                self.status[e] = _AT_UB if direction > 0 else _AT_LB
                self.x[e] = self.ub[e] if direction > 0 else self.lb[e]
            else:
                leave = int(self.basis[r])
                if g[r] > 0:
                    self.status[leave] = _AT_LB
                    self.x[leave] = self.lb[leave]
                else:
                    self.status[leave] = _AT_UB
                    self.x[leave] = self.ub[leave]
                self.status[e] = _BASIC
                self.basis[r] = e
                self.pivot(r, col)
            self.pivots += 1
            self.fresh = False
            if self.pivots % _REFRESH_EVERY == 0:
                self.refresh()

    def pivot(self, r, col):
        """Rank-1 update of B^{-1} for the column whose B^{-1} a is
        ``col`` entering in row r, where |col[r]| exceeds the pivot
        tolerance."""
        Binv = self.Binv
        Binv[r] /= col[r]
        col = col.copy()
        col[r] = 0.0
        Binv -= np.multiply.outer(col, Binv[r])


def solve_lp(lp, deadline=None):
    """Solve a LinearProgram.

    Returns an LPResult with status Optimal, Infeasible or Unbounded.
    Raises NumericalFailure when the pivot budget runs out, and
    BudgetExhausted once the ``time.monotonic()`` value ``deadline`` has
    passed at a pivot.
    """
    n, m = lp.nvars, lp.nrows
    feas_tol = 1e-8 * (1.0 + (float(np.max(np.abs(lp.b))) if m else 0.0))

    # each structural starts at its finite lower bound, else its finite
    # upper bound, else free at 0
    has_lb, has_ub = np.isfinite(lp.lb), np.isfinite(lp.ub)
    x0 = np.where(has_lb, lp.lb, np.where(has_ub, lp.ub, 0.0))
    resid = lp.b - lp.A @ x0
    # the start point misses a row whose slack it would put below 0, or
    # an equality row's off 0; phase 1 gives each such row i an
    # artificial column sign_i e_i, basic in the place of its slack at
    # the value |resid_i|
    bad = np.nonzero((resid < 0) | (lp.eq & (resid > 0)))[0]
    sign = np.where(resid < 0, -1.0, 1.0)
    art = np.arange(n + m, n + m + bad.size)

    # columns: n structurals, m slacks (an equality row's fixed at 0),
    # then the artificials
    Acols = np.zeros((m, n + m + bad.size))
    Acols[:, :n] = lp.A
    Acols[np.arange(m), n + np.arange(m)] = 1.0
    Acols[bad, art] = sign[bad]
    lb = np.concatenate([lp.lb, np.zeros(m + bad.size)])
    ub = np.concatenate([lp.ub, np.where(lp.eq, 0.0, np.inf), np.full(bad.size, np.inf)])
    sx = _Simplex(lp, Acols, lb, ub, feas_tol)
    sx.status[:n] = np.where(has_lb, _AT_LB, np.where(has_ub, _AT_UB, _FREE))
    sx.status[n + bad] = _AT_LB
    sx.x[:n] = x0
    sx.basis[:] = np.arange(n, n + m)
    sx.basis[bad] = art
    # the start basis is diag(sign), its own inverse
    sx.Binv = np.diag(sign)
    sx.x[sx.basis] = sign * resid
    sx.fresh = True
    if bad.size:
        c1 = np.zeros(sx.N)
        c1[art] = 1.0
        if sx.run(c1, deadline=deadline) is not LPStatus.OPTIMAL:
            raise NumericalFailure("phase 1 reported unbounded")
        if not sx.fresh:
            sx.refresh()
        if float(np.sum(sx.x[art])) > feas_tol:
            return LPResult(LPStatus.INFEASIBLE, iterations=sx.pivots)
        # freeze the artificials at zero for phase 2, the basic ones too
        if sx.x[art].any():
            sx.fresh = False
        sx.lb[art] = 0.0
        sx.ub[art] = 0.0
        sx.x[art] = 0.0

    sx.c = np.zeros(sx.N)
    sx.c[:n] = lp.c
    status = sx.run(sx.c, deadline=deadline)
    if not sx.fresh:
        sx.refresh()
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, iterations=sx.pivots)
    return sx.optimum()
