"""Player programs and a small branch-and-bound integer solver.

A player minimizes  c.x + opp' C x  over a polyhedron with optional
integrality marks.  The opponent vector enters only the objective, so a
best response is a plain IP with the parametrized cost vector.

Branch and bound solves every node LP cold with ``lp.solve_lp``; an
open node keeps only its bounds and its LP point in the heap.
``best_response`` alone chooses between the player's enumerated lattice
and branch and bound; cut-and-play prices its cuts and certifies its
answer with it.
"""

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted
from .lp import LinearProgram, LPResult, LPStatus, solve_lp
from .numerics import FEAS_TOL, INT_TOL, PRUNE_TOL, SparseMatrix
from .poly import Polyhedron

_NODE_LIMIT = 200000  # branch-and-bound nodes before BudgetExhausted
_EXHAUSTED = "branch-and-bound budget exhausted"


@dataclass(eq=False)
class PlayerProgram:
    """One player's data: objective, coupling, constraints, bounds.

    C has one row per opponent variable (all opponents stacked in player
    order) and one column per own variable.  Integer variables must come
    with finite bounds.
    """

    name: str
    c: np.ndarray
    C: SparseMatrix
    A: SparseMatrix
    b: np.ndarray
    integers: tuple = ()
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim != 1 or self.c.size == 0:
            raise ValueError("c must be a nonempty vector")
        m = self.c.size
        if not np.all(np.isfinite(self.c)):
            raise ValueError("c must be finite")
        self.C, self.A = (M if isinstance(M, SparseMatrix) else SparseMatrix.from_dense(M) for M in (self.C, self.A))
        if self.C.ncols != m or self.A.ncols != m:
            raise ValueError(f"C and A must have {m} columns")
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.A.nrows,) or not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite with one entry per row of A")
        given = list(self.integers)
        ints = sorted(int(j) for j in given)
        if sorted(given) != ints:
            raise ValueError("integer indexes must be integral")
        if len(set(ints)) != len(ints):
            raise ValueError("duplicate integer index")
        if ints and (ints[0] < 0 or ints[-1] >= m):
            raise ValueError("integer index out of range")
        self.integers = tuple(ints)
        self.lb = np.zeros(m) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.ones(m) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.shape != (m,) or self.ub.shape != (m,):
            raise ValueError("bounds must match the variable count")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("bounds must not be NaN")  # NaN passes "lb > ub"
        if np.any(self.lb > self.ub):
            raise ValueError("lb must not exceed ub")
        for j in self.integers:
            if not (np.isfinite(self.lb[j]) and np.isfinite(self.ub[j])):
                raise ValueError(f"integer variable {j} needs finite bounds")

    @property
    def nvars(self):
        return self.c.size

    @property
    def opp_vars(self):
        return self.C.nrows

    def relaxation(self):
        """LP relaxation feasible set as a Polyhedron."""
        return Polyhedron(self.A.to_dense(), self.b, self.lb, self.ub)


def parametrized_objective(program, opponents):
    """Effective cost  c + C' opp  seen by the player at a fixed opponent point."""
    opponents = np.asarray(opponents, dtype=float)
    if opponents.shape != (program.opp_vars,):
        raise ValueError(f"expected opponent vector of length {program.opp_vars}")
    return program.c + program.C.rmatvec(opponents)


def payoff(program, own, opponents):
    """Objective value  c.x + opp' C x  at a strategy pair."""
    own = np.asarray(own, dtype=float)
    if own.shape != (program.nvars,):
        raise ValueError(f"expected own vector of length {program.nvars}")
    return float(parametrized_objective(program, opponents) @ own)


def best_response(program, cost, lattice=None, deadline=None):
    """Minimize ``cost`` over the player's integer points: an LPResult.

    Over ``lattice``, its enumerated points, the first minimizer, valued
    as ``cost @ x``, or Infeasible when there are none; without one,
    ``solve_ip`` under ``deadline``.
    """
    if lattice is None:
        return solve_ip(program, cost, deadline=deadline)
    if not len(lattice):
        return LPResult(LPStatus.INFEASIBLE)
    x = lattice[int(np.argmin(lattice @ cost))]
    return LPResult(LPStatus.OPTIMAL, x=x, value=float(cost @ x))


def solve_ip(program, cost=None, deadline=None):
    """Minimize ``cost`` (None: the player's ``c``) by branch and bound.

    Most-fractional branching with lowest-index ties, best-bound node
    selection; the optimum is proved to within ``PRUNE_TOL``.  Returns
    an LPResult (Optimal, Infeasible or Unbounded); raises
    BudgetExhausted when ``_NODE_LIMIT`` nodes are used up or the
    ``time.monotonic()`` value ``deadline`` passes, also inside a node
    LP.
    """
    cost = program.c if cost is None else np.asarray(cost, dtype=float)
    A, b = program.A.to_dense(), program.b
    ints = np.array(program.integers, dtype=np.int64)

    best_x, best_val = None, np.inf
    heap = []
    counter = 0
    root = (program.lb, program.ub)
    res = solve_lp(LinearProgram(cost, A, b, *root), deadline=deadline)
    if res.status is LPStatus.INFEASIBLE:
        return LPResult(LPStatus.INFEASIBLE)
    if res.status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED)
    heapq.heappush(heap, (res.value, counter, root, res.x))
    nodes = 1

    while heap:
        bound, _, (lo, hi), x = heapq.heappop(heap)
        if bound >= best_val - PRUNE_TOL:
            continue
        frac = np.abs(x[ints] - np.round(x[ints])) if ints.size else np.zeros(0)
        if not ints.size or frac.max() <= INT_TOL:
            cand = x.copy()
            if ints.size:
                cand[ints] = np.round(cand[ints])
                np.clip(cand, program.lb, program.ub, out=cand)
            if bool(np.all(A @ cand <= b + FEAS_TOL)):
                val = float(cost @ cand)
                if val < best_val - PRUNE_TOL:
                    best_val, best_x = val, cand
                continue
            # rounding broke a row; split on the most perturbed integer
            if not ints.size:
                continue
            j = int(ints[np.argmax(frac)])
        else:
            # most fractional first, lowest index on ties
            j = int(ints[np.argmax(frac)])
        if nodes >= _NODE_LIMIT or (deadline is not None and time.monotonic() > deadline):
            raise BudgetExhausted(_EXHAUSTED)
        xj = x[j]
        for lo_j, hi_j in ((lo[j], math.floor(xj)), (math.ceil(xj), hi[j])):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[j], child_hi[j] = max(lo[j], lo_j), min(hi[j], hi_j)
            if child_lo[j] > child_hi[j]:
                continue
            try:
                child = solve_lp(LinearProgram(cost, A, b, child_lo, child_hi), deadline=deadline)
            except BudgetExhausted:
                raise BudgetExhausted(_EXHAUSTED) from None
            nodes += 1
            if child.status is LPStatus.INFEASIBLE:
                continue
            if child.status is LPStatus.UNBOUNDED:
                return LPResult(LPStatus.UNBOUNDED)
            if child.value < best_val - PRUNE_TOL:
                counter += 1
                heapq.heappush(heap, (child.value, counter, (child_lo, child_hi), child.x))

    if best_x is None:
        return LPResult(LPStatus.INFEASIBLE)
    return LPResult(LPStatus.OPTIMAL, x=best_x, value=best_val, iterations=nodes)
