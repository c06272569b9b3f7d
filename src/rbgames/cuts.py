"""Valid inequalities for the integer points of a player's region.

Two families: knapsack cover cuts from single <= rows over binary
variables (``knapsack_rows`` picks the rows, ``cover_cuts`` separates
on them), and Gomory fractional cuts read off an optimal simplex
tableau of the integer-data subsystem.  Every cut returned here keeps
all integer-feasible points and strictly separates the queried point.
"""

import numpy as np

from .lp import _AT_LB, _AT_UB, _BASIC, LinearProgram, LPStatus, solve_lp
from .numerics import FEAS_TOL

_FRAC_TOL = 1e-6


def _is_integral(arr, tol=1e-9):
    return bool(np.all(np.abs(arr - np.round(arr)) <= tol))


def knapsack_rows(A, b, binary):
    """The rows of A x <= b that cover separation can use, each as
    (a, support, bi): rounded coefficients, the indexes of their
    nonzeros and the rounded right-hand side.

    A row is eligible when its data is integral to 1e-9, every variable
    it touches is binary, it touches at least two, its coefficients are
    positive and their sum exceeds its right-hand side, so that it has
    a cover.  It is used rounded to those integers: sums of raw floats
    could miscount a cover by one ulp.  One array pass tests every row.
    """
    a, bi = A.round(), b.round()
    nz = a != 0.0
    ok = (abs(A - a).max(axis=1, initial=0.0) <= 1e-9) & (abs(b - bi) <= 1e-9) & (a.sum(axis=1) > bi)
    # two nonzeros or more, none negative, none off the binary variables
    ok &= (nz.sum(axis=1) >= 2) & (a.min(axis=1, initial=0.0) >= 0.0) & ~(nz @ ~binary)
    return [(a[i], nz[i].nonzero()[0], float(bi[i])) for i in ok.nonzero()[0].tolist()]


def cover_cuts(rows, sigma):
    """Greedy minimal-cover separation on each row of ``rows``, as
    ``knapsack_rows`` gives them.  Returns (pi, pi0) pairs with
    pi.sigma > pi0 + FEAS_TOL.
    """
    sigma = np.asarray(sigma, dtype=float)
    out = []
    for a, sup, bi in rows:
        # take items by descending sigma until the weights overflow b
        order = sup[np.argsort(-sigma[sup], kind="stable")]
        cover, weight = [], 0.0
        for j in order:
            cover.append(int(j))
            weight += a[j]
            if weight > bi:
                break
        if weight <= bi:
            continue
        # minimalize: drop items while the rest still overflows
        for j in sorted(cover, key=lambda t: sigma[t]):
            if weight - a[j] > bi:
                cover.remove(j)
                weight -= a[j]
        if sigma[cover].sum() > len(cover) - 1 + FEAS_TOL:
            pi = np.zeros(a.size)
            pi[cover] = 1.0
            out.append((pi, float(len(cover) - 1)))
    return out


def gomory_cuts(A, b, lb, ub, integers, cost, sigma, deadline=None):
    """Gomory fractional cuts violated by sigma.

    Requires a pure-integer system with integral data and bounds; rows
    that fail this are dropped from the subsystem before solving and the
    rest are rounded, which keeps the generated cuts valid for all
    integer points.  The LP is solved with the supplied cost (sigma's
    supporting objective), and cuts come from fractional basic rows of
    its optimal tableau, each row B^{-1}[r] A read off the final simplex
    state over the structural and slack columns (the frozen phase-1
    artificials are left out).  ``deadline`` bounds that LP.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    if len(integers) != n or not (_is_integral(lb) and _is_integral(ub)):
        return []
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        return []
    keep = [i for i in range(A.shape[0]) if _is_integral(A[i]) and _is_integral(b[i : i + 1])]
    if not keep:
        return []
    As, bs = np.round(A[keep]), np.round(b[keep])
    lp = LinearProgram(np.asarray(cost, dtype=float), As, bs, lb, ub)
    res = solve_lp(lp, deadline=deadline)
    if res.status is not LPStatus.OPTIMAL:
        return []
    sx = res._state
    cols = n + sx.m
    status, x = sx.status[:cols], sx.x[:cols]
    out = []
    for r in range(sx.m):
        bvar = int(sx.basis[r])
        if bvar >= n:
            continue  # slack basic; its row cannot cut a structural point
        val = x[bvar]
        f0 = val - np.floor(val)
        if f0 < _FRAC_TOL or f0 > 1 - _FRAC_TOL:
            continue
        tab = sx.row(r)
        pi = np.zeros(n)
        pi0 = -f0
        ok = True
        for j in range(cols):
            st = status[j]
            if st == _BASIC:
                continue
            t = tab[j]
            if st == _AT_LB:
                abar = t
            elif st == _AT_UB:
                abar = -t
            else:
                if abs(t) > 1e-9:
                    ok = False
                    break
                continue
            f = abar - np.floor(abar)
            if f <= 1e-9 or f >= 1 - 1e-9:
                continue
            gamma = -f if st == _AT_LB else f
            if j < n:
                pi[j] += gamma
                pi0 += gamma * (lb[j] if st == _AT_LB else ub[j])
            else:
                # slack of subsystem row j-n stands for b_row - A_row x
                row = j - n
                pi += -gamma * As[row]
                pi0 += -gamma * bs[row]
        if not ok:
            continue
        if float(pi @ sigma) > pi0 + FEAS_TOL:
            out.append((pi, float(pi0)))
    return out
