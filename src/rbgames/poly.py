"""Polyhedra and hulls of unions.

Every cut-and-play region is one bounded ``Polyhedron``; its rows and
its cached bounding box are all that ``game.build_nash_lcp`` reads.
The hull of a union of bounded polyhedra (``convex_hull``) is kept in
extended form, one scaled copy of each piece plus its convex multiplier
theta_k; membership (``hull_contains``) and decomposition
(``decompose``) solve one LP over that lifted form and serve library
callers.  No vertex or facet enumeration happens anywhere.
"""

import numpy as np

from .errors import EmptyUnion
from .lp import LinearProgram, LPStatus, solve_lp
from .numerics import FEAS_TOL, ZERO_TOL


class Polyhedron:
    """{ x : A x <= b, lb <= x <= ub } with possibly infinite bounds."""

    __slots__ = ("A", "b", "lb", "ub", "_box")

    def __init__(self, A, b, lb, ub):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.lb = np.asarray(lb, dtype=float)
        self.ub = np.asarray(ub, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be 2-d")
        n = self.A.shape[1]
        if self.b.shape != (self.A.shape[0],):
            raise ValueError("b must match the row count of A")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bounds must have one entry per column")
        if np.any(self.lb > self.ub):
            raise ValueError("lb must not exceed ub")
        self._box = None

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def nrows(self):
        return self.A.shape[0]

    def contains(self, x, eps=FEAS_TOL):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have dimension {self.dim}")
        if np.any(x < self.lb - eps) or np.any(x > self.ub + eps):
            return False
        return bool(np.all(self.A @ x <= self.b + eps)) if self.nrows else True

    def with_rows(self, rows, rhs):
        """New polyhedron with extra <= rows appended."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        return Polyhedron(np.vstack([self.A, rows]), np.concatenate([self.b, rhs]), self.lb, self.ub)

    def is_empty(self, deadline=None):
        """True when no point satisfies the rows and bounds.

        A finite lower corner that meets every row proves the set
        nonempty without an LP.  It is the point ``solve_lp`` starts
        from, and with ``b - A lb`` nonnegative (computed the same way)
        it needs no phase 1 and stops at once on the zero cost, so the
        answer is the LP's.
        """
        if np.all(np.isfinite(self.lb)) and not np.any(self.b - self.A @ self.lb < 0):
            return False
        res = solve_lp(LinearProgram(np.zeros(self.dim), self.A, self.b, self.lb, self.ub), deadline=deadline)
        return res.status is LPStatus.INFEASIBLE

    def bounding_box(self, deadline=None):
        """Componentwise (min, max) over the set; raises if unbounded.

        Finite declared bounds are taken as-is; coordinates with an
        infinite bound are tightened by an LP in that direction.
        """
        if self._box is not None:
            return self._box
        lo, hi = self.lb.copy(), self.ub.copy()
        for j in range(self.dim):
            for sign, arr in ((1.0, lo), (-1.0, hi)):
                if np.isfinite(arr[j]):
                    continue
                c = np.zeros(self.dim)
                c[j] = sign
                res = solve_lp(LinearProgram(c, self.A, self.b, self.lb, self.ub), deadline=deadline)
                if res.status is LPStatus.UNBOUNDED:
                    raise ValueError(f"polyhedron unbounded in coordinate {j}")
                if res.status is LPStatus.INFEASIBLE:
                    raise ValueError("cannot box an empty polyhedron")
                arr[j] = res.x[j]
        self._box = (lo, hi)
        return self._box

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, rows={self.nrows})"


class ExtendedHull:
    """Closure of the convex hull of a union of bounded polyhedra."""

    __slots__ = ("pieces", "boxes", "dim")

    def __init__(self, pieces, boxes):
        self.pieces = list(pieces)
        self.boxes = list(boxes)
        self.dim = self.pieces[0].dim

    def __repr__(self):
        return f"ExtendedHull(dim={self.dim}, pieces={len(self.pieces)})"


def convex_hull(pieces, deadline=None):
    """Build the hull of a union of pieces (Polyhedron or ExtendedHull).

    Empty pieces are dropped; nested hulls are flattened.  Every piece
    must be bounded.  Raises EmptyUnion when nothing remains.
    """
    flat = []
    for p in pieces:
        if isinstance(p, ExtendedHull):
            flat.extend(p.pieces)
        else:
            flat.append(p)
    if not flat:
        raise EmptyUnion("hull of an empty union")
    dim = flat[0].dim
    kept, boxes = [], []
    for p in flat:
        if p.dim != dim:
            raise ValueError("hull pieces must share a dimension")
        if p.is_empty(deadline):
            continue
        kept.append(p)
        boxes.append(p.bounding_box(deadline))
    if not kept:
        raise EmptyUnion("every piece of the union is empty")
    return ExtendedHull(kept, boxes)


def _lift(hull):
    """The hull as { L w : w >= 0, H w <= h }, with one block
    (u_k, theta_k) of w per piece.

    Piece k with rows A_k x <= b_k and box lo_k <= x <= hi_k gets the
    rows A_k u_k <= (b_k - A_k lo_k) theta_k and
    u_k <= (hi_k - lo_k) theta_k, two rows hold sum_k theta_k = 1, and
    x = sum_k (u_k + lo_k theta_k).  Returns (H, h, L).
    """
    m = hull.dim
    width = len(hull.pieces) * (m + 1)
    rows = []
    for k, (piece, (lo, hi)) in enumerate(zip(hull.pieces, hull.boxes)):
        block = np.zeros((piece.nrows + m, width))
        c = k * (m + 1)
        block[: piece.nrows, c : c + m] = piece.A
        block[: piece.nrows, c + m] = piece.A @ lo - piece.b
        block[piece.nrows :, c : c + m] = np.eye(m)
        block[piece.nrows :, c + m] = lo - hi
        rows.append(block)
    theta = np.zeros(width)
    theta[m :: m + 1] = 1.0
    H = np.vstack(rows + [theta, -theta])
    h = np.zeros(H.shape[0])
    h[-2:] = (1.0, -1.0)
    L = np.hstack([np.column_stack([np.eye(m), lo]) for lo, _ in hull.boxes])
    return H, h, L


def _member_solve(hull, x, eps, deadline=None):
    """Feasibility LP over the hull's lifted form with |L w - x| <= eps.

    Returns its LPResult, or None without an LP when x lies more than
    eps below every piece's box in some coordinate.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (hull.dim,):
        raise ValueError(f"point must have dimension {hull.dim}")
    if np.any(x + eps < np.min([lo for lo, _ in hull.boxes], axis=0)):
        return None
    H, h, L = _lift(hull)
    A = np.vstack([H, L, -L])
    b = np.concatenate([h, x + eps, eps - x])
    n = L.shape[1]
    return solve_lp(LinearProgram(np.zeros(n), A, b, np.zeros(n), np.full(n, np.inf)), deadline=deadline)


def hull_contains(hull, x, eps=FEAS_TOL):
    """Membership of x in the hull, up to eps in each coordinate."""
    res = _member_solve(hull, x, eps)
    return res is not None and res.status is LPStatus.OPTIMAL


def decompose(hull, x, deadline=None):
    """Write x as a convex combination of points of the pieces.

    Returns a list of (weight, point) pairs, one per piece with weight
    above the zero tolerance, weights renormalized to sum to one.
    Raises ValueError when x is not a member.  ``deadline`` bounds the LP.
    """
    res = _member_solve(hull, x, FEAS_TOL, deadline)
    if res is None or res.status is not LPStatus.OPTIMAL:
        raise ValueError("point is not in the hull")
    w = res.x.reshape(len(hull.pieces), hull.dim + 1)  # one row (u_k, theta_k) per piece
    theta = w[:, -1]
    keep = np.nonzero(theta > ZERO_TOL)[0]
    total = float(theta[keep].sum())
    return [(float(theta[k]) / total, w[k, :-1] / theta[k] + hull.boxes[k][0]) for k in keep]
