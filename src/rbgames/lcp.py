"""Linear complementarity:  0 <= z  perp  M z + q >= 0.

One path: Lemke's method with a covering vector and a lexicographic
ratio test, started from a complementary basis.  From the identity
basis, with any positive covering vector, that method ends at a
solution on a feasible LCP whose M is copositive-plus (Lemke 1965;
Cottle, Pang & Stone, *The Linear Complementarity Problem*, 1992,
ch. 4).  Every Nash LCP of ``game.build_nash_lcp`` is one: its
off-diagonal blocks are skew, so z'Mz = v'Pv for its strategy block P,
which is entrywise positive.  On other LCPs it may end on a secondary
ray, which proves nothing.  A ray and the pivot cap of the cold path
both give NoSolution.

Lemke runs on the row-scaled LCP (D^{-1} M D^{-1}, D^{-1} q) with
covering vector 1, where D = diag(d) and d = 1 + |M| 1, each row's L1
norm plus one; PATH scales an LCP before it pivots in the same spirit
(Dirkse & Ferris 1995).  That LCP is never formed: with w' = D^{-1} w
and z' = D z its system is D^{-1} times  w - M z - z0 d = q,  so the
solver pivots on (M, q) with covering vector d.  A basic variable's
scaled value is its value over its scale s, d_j for w_j and 1/d_j for
z_j; the ratios of a ratio test differ from the scaled ones by the
entering variable's scale alone, and the lexicographic order of the
rows of [x | B^{-1}] does not see the positive column scale D, so both
pick the scaled system's rows, up to where the tolerances fall.  M is
copositive-plus if and only if D^{-1} M D^{-1} is, so the cold
guarantee and the lexicographic argument hold as they are.  The rows
of the stacked Nash LCP differ widely: a stationarity row holds entries
near alpha in every column, a box row two entries of +-1; the scale
evens them out.

Both starts enter z0 along -s, s_r being the scale of the variable
basic in row r, in the row of the lexicographic minimum of
[x | B^{-1}] / s_r (``_lowest``).  That leaves every row of
[x | B^{-1}] lexicographically positive, and the lexicographic ratio
test keeps them so, so no basis repeats and the path is finite.  The
cold start is the identity, where s = d: z0 enters in the last row of
the least q_r / d_r.  The identity is the basis of the order-0 LCP,
``_Basis()``, bordered by the whole LCP, so ``_Basis.bordered`` builds
both starts.

A warm start (``solve_lcp``'s ``start``) solves an LCP whose (M, q)
borders a solved one: the old (M, q) is its leading principal block.
It starts from the old solution's basis B with the new rows' w basic,
whose inverse is the old one bordered, [[B^{-1}, 0], [-X B^{-1}, I]]
with X the new rows of B's columns; nothing is factored.  That basis
is complementary and fails only where the new rows' w is negative.
Its covering vector is B s, the scaled system's own warm rule (its
basis B' = D^{-1} B diag(s) with covering vector B' 1) read back, so
z0's direction is -s at the start, as on the identity, and the
lexicographic argument of the cold start goes through, read from
another starting basis (van den Elzen & Talman 1991 start Lemke from a
point in the same way).  B s is not positive once B holds a z (below), so a warm
path may end on a ray that proves nothing, and its length has no
useful bound: a warm attempt gets at most n pivots, and ``solve_lcp``
restarts cold when it ends on a ray or at that budget.  No other
covering vector mends this.  When M is copositive, no complementary
basis B with a basic z admits a c > 0 with t = B^{-1} c > 0: the point
h whose basic variables are t, and whose others are 0, solves
w^h - M z^h = c and is complementary, so
z^h'M z^h = z^h'(w^h - c) = -z^h'c < 0 with z^h >= 0 nonzero.  So B s
is never positive on a warm basis that holds a z, and no covering
vector carries the copositive-plus guarantee to a warm start.

The solver keeps an explicit inverse of the whole basis B of
w - M z - z0 d = q (``_Basis``), kept by columns: each row of ``invT``
is one column of B^{-1}.  It is never factored.  The entering
direction B^{-1} a is one row of ``invT`` for a w and one product with
it for a z.  A basic w_j's column of B^{-1} is the unit vector at its
row, so the pivot row of B^{-1} is nonzero only on the k nonbasic w's
and on a w basic in that row.  ``invT`` keeps the columns of the
nonbasic w's, the leaving w's included, as its first rows, right under
the basic values x: a pivot is one rank-1 step on that block.  The
lexicographic tie-break reads only those k rows, plus the known unit
column of each tied row that holds a w.  Only the basic values are
refined: against B every 16 pivots and at the end, where a residual
costs products with M's columns only.  The deadline is checked at
every pivot.

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
    """``basis`` is Lemke's final basis, from which ``solve_lcp`` can
    start on an LCP that borders this one; ``restarted`` says that a
    warm attempt failed and the cold path found it."""

    z: np.ndarray
    w: np.ndarray
    nodes: int = 0
    basis: object = None
    restarted: bool = False

    def residuals(self):
        """(min z, min w, z.w) for quick invariant checks."""
        zmin = float(self.z.min()) if self.z.size else 0.0
        wmin = float(self.w.min()) if self.w.size else 0.0
        return zmin, wmin, float(self.z @ self.w)


@dataclass(eq=False)
class NoSolution:
    """Lemke's cold path ended after ``nodes`` pivots in all; ``reason``
    is "ray" or "pivot cap", and ``restarted`` says that a warm attempt
    came first."""

    nodes: int
    reason: str
    restarted: bool = False


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
    # rows: -(M z) <= q  encodes w >= 0, an equality where w_j = 0
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    ub[fixings == FIX_Z_ZERO] = 0.0
    free = fixings == FIX_FREE
    cost = free.astype(float) + M[free].sum(axis=0)
    res = solve_lp(LinearProgram(cost, -M, q, lb, ub, eq=fixings == FIX_W_ZERO), deadline=deadline)
    if res.status is LPStatus.INFEASIBLE:
        return None
    if res.status is LPStatus.UNBOUNDED:
        raise NumericalFailure("node LP unbounded although its objective is bounded below")
    z = res.x
    return LCPSolution(z=z, w=M @ z + q)


class _Basis:
    """A basis of Lemke's system  w - M z - z0 d = q, and its inverse.

    Variables are numbered w_j = j, z_j = n + j and z0 = 2n.  Row r of
    the system holds the basic variable ``basic[r]``, and ``scale`` s_r
    is that variable's scale at the start: d_j for w_j, 1/d_j for z_j,
    with d = 1 + |M| 1.  The covering vector ``cover`` is B s at the
    start, so z0's direction is -s there.  ``bordered`` is the one
    constructor of a start: from ``_Basis()``, the empty basis of the
    order-0 LCP, it gives the cold one, which holds w_r in row r, so B
    is the identity and s = d is the covering vector; from a solved
    LCP's final basis, a warm one.  The inverse is explicit and kept by
    columns: row i of ``invT`` is column ``order[i]`` of B^{-1}, and
    ``slot`` is the inverse permutation.  A basic w_j's column of B^{-1}
    is the unit vector at its row, so row r of B^{-1} is nonzero only on
    the k nonbasic w's and on a w basic in row r.  The columns of the
    nonbasic w's are kept in rows [0, k) of ``invT``.  The basic values
    ``x`` = B^{-1} q sit just above them, as row 0 of ``blk`` =
    [x; invT], so the rows a pivot rewrites are the one block
    ``blk[:k + 1]``.  ``basic`` and ``slot`` are lists: the pivot path
    reads them one entry at a time.
    """

    def __init__(self):
        """The basis of the order-0 LCP, holding what ``bordered`` reads."""
        self.n = self.k = 0
        self.blk = np.zeros((1, 0))
        self.x, self.invT = self.blk[0], self.blk[1:]
        self.basic, self.slot = [], []
        self.order = np.arange(0)

    def bordered(self, problem):
        """This final basis, z0 nonbasic, carried to ``problem``, whose
        (M, q) borders its own: the new rows' w are basic in their rows.

        With X the new rows of B's columns (-M's new rows on the basic
        z's, 0 on the basic w's), the new basis is [[B, 0], [X, I]] and
        its inverse [[B^{-1}, 0], [-X B^{-1}, I]].  A basic w's column of
        B^{-1} is a unit vector at a row where X is 0, so only the k
        nonbasic w's rows of ``invT`` gain entries.  The basic values are
        x and the new rows' w at the old point, q_new - X x.  The scale
        is read from ``problem``'s d: s_r = d_j where w_j is basic in row
        r, 1/d_j where z_j is, and d_j on the new rows, which hold w_j.
        The covering vector is B s, so that z0's direction is -s.  From
        the empty basis all rows are new: blk = [q; I] and s = B s = d,
        the cold start.
        """
        n, m, k = self.n, problem.order, self.k
        out = _Basis.__new__(_Basis)
        out.M, out.q, out.n = problem.M, problem.q, m
        out.negMT = -np.ascontiguousarray(problem.M.T)
        basic = np.array(self.basic, dtype=np.int64)
        is_z = basic >= n
        zs = basic[is_z] - n
        X = np.zeros((m - n, n))
        X[:, is_z] = -problem.M[n:, zs]
        out.blk = np.zeros((m + 1, m))
        out.blk[: n + 1, :n] = self.blk
        out.blk[0, n:] = problem.q[n:] - X @ self.x
        out.blk[1 : k + 1, n:] = -(self.invT[:k] @ X.T)
        np.fill_diagonal(out.blk[n + 1 :, n:], 1.0)
        out.x, out.invT = out.blk[0], out.blk[1:]
        out.basic = [j + m - n if j >= n else j for j in self.basic] + list(range(n, m))
        out.order = np.arange(m)
        out.order[:n] = self.order
        out.slot = self.slot + list(range(n, m))
        out.k, out.z0 = k, -1  # z0: its row while it is basic
        # d, the diagonal of D: each row's L1 norm in M, plus one; s, with
        # basic % n the index j of each basic w_j or z_j (z0 is nonbasic);
        # and B s: the basic w's unit columns times d_j, -M's columns of
        # the basic z's over d_j
        d, ws = 1.0 + np.abs(problem.M).sum(axis=1), basic[~is_z]
        out.scale = d.copy()
        out.scale[:n] = np.where(is_z, 1.0 / d[basic % n], d[basic % n])
        out.cover = -problem.M[:, zs] @ (1.0 / d[zs])
        out.cover[ws] += d[ws]
        out.cover[n:] += d[n:]
        return out

    def direction(self, var):
        """B^{-1} times the column of var."""
        n = self.n
        if var < n:
            return self.invT[self.slot[var]].copy()
        a = self.negMT[var - n] if var < 2 * n else -self.cover
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
        res = q + self.M @ z + x[basic == 2 * n].sum() * self.cover
        is_w = basic < n
        res[basic[is_w]] -= x[is_w]
        self.x[:] = x + res[order] @ self.invT


def solve_lcp(problem, deadline=None, start=None):
    """Solve the LCP by lexicographic Lemke; LCPSolution or NoSolution.

    Lemke runs on the row-scaled LCP without forming it: covering
    vector d = 1 + |M| 1 cold from the empty basis bordered, which is
    the identity, or B s warm from ``start``, the solution of an LCP
    whose (M, q) is the leading principal block of this one's (see the
    module docstring).  Both starts enter z0 along -s by one rule,
    ``_lowest``.  A warm attempt gets n pivots; when it ends on a ray or
    at that budget it proves nothing, and Lemke restarts cold, with
    ``restarted`` set on the answer.  So NoSolution comes only from the
    cold path: a secondary ray or its pivot cap, 200 + 30 n, and its
    ``reason`` says which.  ``nodes`` counts the Lemke pivots of both
    attempts.  Raises BudgetExhausted, carrying the pivots spent, once
    the ``time.monotonic()`` value ``deadline`` has passed, and
    NumericalFailure when the end point misses the residual tolerance.
    """
    n, spent = problem.order, 0
    if start is not None:
        out = _attempt(problem, start.basis.bordered(problem), n, deadline)
        if isinstance(out, LCPSolution):
            return out
        spent = out.nodes
    out = _attempt(problem, _Basis().bordered(problem), 200 + 30 * n, deadline, spent)
    out.restarted = start is not None
    return out


def _attempt(problem, basis, cap, deadline, spent=0):
    """Lemke's path from ``basis``, at most ``cap`` pivots; LCPSolution
    or NoSolution.  Its ``nodes``, and a BudgetExhausted's, count the
    ``spent`` pivots of an earlier attempt too."""
    n, var = problem.order, 2 * problem.order
    if np.all(basis.x >= 0.0):
        return _solution(problem, basis, spent)
    # z0 enters along -s, in the row that leaves every row of [x | B^{-1}]
    # lexicographically positive
    r, d = _lowest(basis), -basis.scale
    for pivots in range(1, cap + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("Lemke ran past the deadline", nodes=spent + pivots - 1)
        leaving = basis.pivot(var, d, r)
        if leaving == 2 * n:
            basis.refine()
            return _solution(problem, basis, spent + pivots)
        if pivots % _REFINE_EVERY == 0:
            basis.refine()
        # the complement of the leaving variable enters
        var = leaving + n if leaving < n else leaving - n
        d = basis.direction(var)
        r = _leaving(basis, d)
        if r < 0:
            return NoSolution(nodes=spent + pivots, reason="ray")
    return NoSolution(nodes=spent + cap, reason="pivot cap")


def _lowest(basis):
    """Row of the lexicographic minimum of [x | B^{-1}] / s_r, where z0
    enters: the least x_r / s_r, ties broken by ``_lexmin``."""
    s = basis.scale
    x = basis.x / s
    least = float(x.min())
    tied = (x <= least + _TIE_TOL * (1.0 + abs(least))).nonzero()[0]
    return int(tied[0]) if tied.size == 1 else _lexmin(basis, tied, s[tied])


def _leaving(basis, d):
    """Row of the lexicographic minimum ratio for direction d; -1 on a ray.

    Ties in x_r / d_r go to z0's row when it is among them, else to the
    row that ``_lexmin`` picks.
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
    cand = cand[tied]
    if basis.z0 in cand.tolist():
        return basis.z0
    return _lexmin(basis, cand, dc[tied])


def _lexmin(basis, cand, dc):
    """The row r of ``cand`` whose row of B^{-1} / d_r, d_r > 0 from
    ``dc``, is least in lexicographic order; it is unique because
    B^{-1} is nonsingular.

    That order is read column by column, in index order j, over the rows
    of ``cand``, and a column on which they all agree within the
    tolerance decides nothing.  Only the k nonbasic w's columns,
    ``invT[:k]``, need reading: a basic w_j's column of B^{-1} is the
    unit vector at its row, so on these rows it is 1/d_r at the row r
    holding w_j, when that row is among them, and exactly 0 elsewhere.
    Such a column is decisive iff 1/d_r exceeds the tolerance, and then
    it drops exactly row r from the rows still kept: at least one other
    row is kept, at 0.
    """
    rows = cand.tolist()
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
    out = LCPSolution(z=z, w=problem.M @ z + problem.q, nodes=pivots, basis=basis)
    zmin, wmin, gap = out.residuals()
    eps = COMPLEMENTARITY_TOL
    norm = 1.0 + float(np.max(np.abs(out.z), initial=0.0)) * float(np.max(np.abs(out.w), initial=0.0))
    if zmin < -eps or wmin < -eps or gap > eps * max(norm, n):
        raise NumericalFailure("LCP residuals out of tolerance")
    return out
