"""Bounded-variable primal simplex.

Solves  min c.x  subject to  A x <= b  and  lb <= x <= ub,  where bounds
may be infinite.  Rows get slack variables, infeasible starting rows get
phase-1 artificials, and variable bounds are handled directly by the
ratio test instead of being expanded into rows.  Dantzig pricing runs
first; after a pivot budget the solver falls back to Bland's rule, and
if that also stalls it raises NumericalFailure rather than returning a
wrong answer.
"""

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetExhausted, NumericalFailure

_PIVOT_TOL = 1e-11
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
    """min c.x  s.t.  A x <= b,  lb <= x <= ub."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

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
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bounds must match the variable count")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("c, A, b must be finite")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lb > self.ub):
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

    ``row_duals`` are the nonnegative multipliers of the A x <= b rows;
    ``reduced_costs`` carry the bound multipliers (positive at an active
    lower bound, negative at an active upper bound).  Both are None
    unless the status is Optimal.
    """

    status: LPStatus
    x: np.ndarray = None
    value: float = None
    row_duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    iterations: int = 0

    def dual_value(self, lp):
        """Dual objective -y.b + sum of active-bound terms (weak duality)."""
        if self.status is not LPStatus.OPTIMAL:
            raise ValueError("dual value only defined for optimal results")
        d = self.reduced_costs
        val = -float(self.row_duals @ lp.b)
        at_lo = d > 0
        at_up = d < 0
        val += float(np.sum(d[at_lo] * lp.lb[at_lo]))
        val += float(np.sum(d[at_up] * lp.ub[at_up]))
        return val


class _Simplex:
    """Tableau state over the full column set (structurals then slacks)."""

    def __init__(self, Acols, b, lb, ub):
        self.A = Acols
        self.b = b
        self.lb = lb
        self.ub = ub
        self.m, self.N = Acols.shape
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.status = np.zeros(self.N, dtype=np.int8)
        self.x = np.zeros(self.N)
        self.T = np.zeros((self.m, self.N))
        self.pivots = 0

    def refresh(self):
        """Recompute tableau and basic values from the current basis."""
        if self.m == 0:
            return
        B = self.A[:, self.basis]
        try:
            self.T = np.linalg.solve(B, self.A)
            xn = self.x.copy()
            xn[self.basis] = 0.0
            self.x[self.basis] = np.linalg.solve(B, self.b - self.A @ xn)
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular basis in simplex refresh")

    def duals(self, c):
        if self.m == 0:
            return np.zeros(0)
        B = self.A[:, self.basis]
        try:
            return np.linalg.solve(B.T, c[self.basis])
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular basis when extracting duals")

    def run(self, c, deadline=None):
        """Iterate to optimality for objective c.  Returns an LPStatus."""
        m, N = self.m, self.N
        soft = 400 + 20 * N
        hard = 4 * soft + 4000
        movable = self.ub - self.lb > 0
        while True:
            if self.pivots >= hard:
                raise NumericalFailure(f"simplex stalled after {self.pivots} pivots")
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhausted("simplex ran past the deadline")
            bland = self.pivots >= soft
            d = self._reduced(c) if m else c.copy()
            elig = movable & (
                ((self.status == _AT_LB) & (d < -_PRICE_TOL))
                | ((self.status == _AT_UB) & (d > _PRICE_TOL))
                | ((self.status == _FREE) & (np.abs(d) > _PRICE_TOL))
            )
            if not elig.any():
                return LPStatus.OPTIMAL
            idx = np.nonzero(elig)[0]
            e = int(idx[0]) if bland else int(idx[np.argmax(np.abs(d[idx]))])
            if self.status[e] == _AT_UB or (self.status[e] == _FREE and d[e] > 0):
                direction = -1.0
            else:
                direction = 1.0

            g = direction * self.T[:, e] if m else np.zeros(0)
            t_basic = np.inf
            r = -1
            if m:
                xb = self.x[self.basis]
                lim = np.full(m, np.inf)
                pos = g > _PIVOT_TOL
                neg = g < -_PIVOT_TOL
                with np.errstate(invalid="ignore"):
                    lim[pos] = (xb[pos] - self.lb[self.basis[pos]]) / g[pos]
                    lim[neg] = (xb[neg] - self.ub[self.basis[neg]]) / g[neg]
                lim[np.isnan(lim)] = np.inf
                np.maximum(lim, 0.0, out=lim)
                t_basic = lim.min() if lim.size else np.inf
                if np.isfinite(t_basic):
                    ties = np.nonzero(lim <= t_basic + 1e-12)[0]
                    # smallest leaving column index keeps cycling at bay
                    r = int(ties[np.argmin(self.basis[ties])])
            span = self.ub[e] - self.lb[e]
            t_bound = span if np.isfinite(span) else np.inf
            t = min(t_bound, t_basic)
            if not np.isfinite(t):
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
                self.pivot(r, e)
            self.pivots += 1
            if self.pivots % _REFRESH_EVERY == 0:
                self.refresh()

    def _reduced(self, c):
        d = c - c[self.basis] @ self.T
        d[self.basis] = 0.0
        return d

    def pivot(self, r, e):
        piv = self.T[r, e]
        if abs(piv) < _PIVOT_TOL:
            self.refresh()
            piv = self.T[r, e]
            if abs(piv) < _PIVOT_TOL:
                raise NumericalFailure("degenerate pivot element")
        self.T[r] /= piv
        col = self.T[:, e].copy()
        col[r] = 0.0
        self.T -= np.outer(col, self.T[r])
        self.T[:, e] = 0.0
        self.T[r, e] = 1.0

    def pivot_out(self, r, forbidden):
        """Degenerate pivot to remove basis[r]; returns False if no column works."""
        row = self.T[r]
        best, best_mag = -1, _PIVOT_TOL * 10
        for j in range(self.N):
            if j in forbidden or self.status[j] == _BASIC:
                continue
            if self.ub[j] <= self.lb[j]:
                continue
            mag = abs(row[j])
            if mag > best_mag:
                best, best_mag = j, mag
        if best < 0:
            return False
        leave = int(self.basis[r])
        self.status[leave] = _AT_LB
        self.x[leave] = self.lb[leave]
        self.status[best] = _BASIC
        self.basis[r] = best
        self.pivot(r, best)
        return True


def solve_lp(lp, keep_tableau=False, deadline=None):
    """Solve a LinearProgram.

    Returns an LPResult with status Optimal, Infeasible or Unbounded.
    Raises NumericalFailure when the pivot budget runs out, and
    BudgetExhausted once the ``time.monotonic()`` value ``deadline`` has
    passed at a pivot.  With ``keep_tableau`` the result gains a
    ``tableau`` attribute exposing the final simplex state (used by the
    cut generator).
    """
    n, m = lp.nvars, lp.nrows
    feas_tol = 1e-8 * (1.0 + (float(np.max(np.abs(lp.b))) if m else 0.0))

    # columns: n structurals, then m slacks
    Acols = np.hstack([lp.A, np.eye(m)]) if m else np.zeros((0, n))
    lb = np.concatenate([lp.lb, np.zeros(m)])
    ub = np.concatenate([lp.ub, np.full(m, np.inf)])
    sx = _Simplex(Acols, lp.b.copy(), lb, ub)

    for j in range(n):
        if np.isfinite(lb[j]):
            sx.status[j] = _AT_LB
            sx.x[j] = lb[j]
        elif np.isfinite(ub[j]):
            sx.status[j] = _AT_UB
            sx.x[j] = ub[j]
        else:
            sx.status[j] = _FREE
            sx.x[j] = 0.0

    resid = lp.b - lp.A @ sx.x[:n] if m else np.zeros(0)
    bad = np.nonzero(resid < 0)[0]
    art = []
    if bad.size:
        # phase 1: one artificial per violated row, cost 1 each
        extra = np.zeros((m, bad.size))
        for k, i in enumerate(bad):
            extra[i, k] = -1.0
        sx.A = np.hstack([sx.A, extra])
        sx.lb = np.concatenate([sx.lb, np.zeros(bad.size)])
        sx.ub = np.concatenate([sx.ub, np.full(bad.size, np.inf)])
        sx.x = np.concatenate([sx.x, np.zeros(bad.size)])
        sx.status = np.concatenate([sx.status, np.zeros(bad.size, dtype=np.int8)])
        sx.N = sx.A.shape[1]
        art = list(range(n + m, sx.N))
        for i in range(m):
            if resid[i] >= 0:
                sx.basis[i] = n + i
                sx.status[n + i] = _BASIC
                sx.x[n + i] = resid[i]
            else:
                k = int(np.nonzero(bad == i)[0][0])
                j = n + m + k
                sx.basis[i] = j
                sx.status[j] = _BASIC
                sx.x[j] = -resid[i]
                sx.status[n + i] = _AT_LB
                sx.x[n + i] = 0.0
        sx.refresh()
        c1 = np.zeros(sx.N)
        c1[art] = 1.0
        if sx.run(c1, deadline=deadline) is not LPStatus.OPTIMAL:
            raise NumericalFailure("phase 1 reported unbounded")
        sx.refresh()
        if float(np.sum(sx.x[art])) > feas_tol:
            return LPResult(LPStatus.INFEASIBLE, iterations=sx.pivots)
        forbidden = set(art)
        for r in range(m):
            if sx.basis[r] in forbidden:
                sx.pivot_out(r, forbidden)
        # freeze artificials at zero for phase 2
        sx.lb[art] = 0.0
        sx.ub[art] = 0.0
        sx.x[art] = 0.0
    else:
        for i in range(m):
            sx.basis[i] = n + i
            sx.status[n + i] = _BASIC
            sx.x[n + i] = resid[i]
        sx.refresh()

    c2 = np.zeros(sx.N)
    c2[:n] = lp.c
    status = sx.run(c2, deadline=deadline)
    sx.refresh()
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, iterations=sx.pivots)

    x = sx.x[:n].copy()
    if m:
        worst = float(np.max(lp.A @ x - lp.b))
        if worst > feas_tol * 10:
            raise NumericalFailure(f"optimal point violates rows by {worst:.3e}")
    np.clip(x, lp.lb, lp.ub, out=x)
    y = sx.duals(c2)
    d = lp.c - lp.A.T @ y if m else lp.c.copy()
    result = LPResult(
        LPStatus.OPTIMAL,
        x=x,
        value=float(lp.c @ x),
        row_duals=-y,
        reduced_costs=d,
        iterations=sx.pivots,
    )
    if keep_tableau:
        result.tableau = _TableauView(sx, n, m)
    return result


class _TableauView:
    """Read-only peek at the final simplex state for cut generation."""

    def __init__(self, sx, n, m):
        self.basis = sx.basis.copy()
        self.status = sx.status[: n + m].copy()
        self.T = sx.T[:, : n + m].copy()
        self.x = sx.x[: n + m].copy()
        self.nstruct = n
        self.nrows = m
