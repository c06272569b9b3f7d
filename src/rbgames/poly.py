"""Polyhedra and lifted convex hulls of unions.

The hull of a union of bounded polyhedra is kept in extended form: one
scaled copy of each piece plus its convex multiplier theta_k.
``encode_region`` writes it homogeneously, as equality rows over
nonnegative variables with the strategy a linear image of them, and a
single polyhedron as its one-piece case, the only one cut-and-play
encodes; membership (``hull_contains``) and decomposition
(``decompose``) serve library callers.  No vertex or facet enumeration
happens anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyUnion
from .lp import LinearProgram, LPStatus, solve_lp
from .numerics import FEAS_TOL, ZERO_TOL


class Polyhedron:
    """{ x : A x <= b, lb <= x <= ub } with possibly infinite bounds."""

    __slots__ = ("A", "b", "lb", "ub", "_box", "_encoding")

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
        self._encoding = None

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

    def with_bound(self, j, lo=None, hi=None):
        """New polyhedron with variable j's bounds tightened.

        Returns None when the tightened bounds cross (empty child).
        """
        lb, ub = self.lb.copy(), self.ub.copy()
        if lo is not None:
            lb[j] = max(lb[j], lo)
        if hi is not None:
            ub[j] = min(ub[j], hi)
        if lb[j] > ub[j]:
            return None
        return Polyhedron(self.A, self.b, lb, ub)

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

    __slots__ = ("pieces", "boxes", "dim", "_encoding")

    def __init__(self, pieces, boxes):
        self.pieces = list(pieces)
        self.boxes = list(boxes)
        self.dim = self.pieces[0].dim
        self._encoding = None

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


@dataclass(eq=False)
class RegionEncoding:
    """Region rewritten as { v >= 0 : E v = e } with strategy x = L v.

    ``blocks`` holds each piece's column slice, whose last column is the
    piece's multiplier theta_k.  ``k = E' nu`` is positive, so k'v = nu'e
    is the same at every point of the region.
    """

    E: np.ndarray
    e: np.ndarray
    L: np.ndarray
    k: np.ndarray
    blocks: list

    @property
    def nvars(self):
        return self.E.shape[1]

    @property
    def m(self):
        return self.L.shape[0]


def encode_region(region):
    """Rewrite a Polyhedron or ExtendedHull homogeneously over v >= 0.

    Piece k with rows A_k x <= b_k and box lo_k <= x <= hi_k gets the
    columns (y_k, ybar_k, s_k, theta_k) and the rows
    A_k y_k + s_k = (b_k - A_k lo_k) theta_k and
    y_k + ybar_k = (hi_k - lo_k) theta_k; one last row sets
    sum_k theta_k = 1, and x = sum_k (y_k + lo_k theta_k).  A Polyhedron
    is the one-piece case.  Coordinates with hi = lo get no y or ybar
    column and no box row, and rows that the box already implies get
    none either: neither changes the set, both shrink the Nash LCP.

    Regions are never changed once built, so the encoding is made once
    per region object and kept on it; callers must not write to it.
    """
    if not isinstance(region, (Polyhedron, ExtendedHull)):
        raise TypeError(f"cannot encode region of type {type(region).__name__}")
    if region._encoding is None:
        region._encoding = _encode(region)
    return region._encoding


def _encode(region):
    if isinstance(region, Polyhedron):
        pieces, boxes = [region], [region.bounding_box()]
    else:
        pieces, boxes = region.pieces, region.boxes
    m = pieces[0].dim
    parts = []
    for piece, (lo, hi) in zip(pieces, boxes):
        free = np.nonzero(hi > lo)[0]
        implied = np.maximum(piece.A * lo, piece.A * hi).sum(axis=1) <= piece.b
        A = piece.A[~implied]
        parts.append((A[:, free], piece.b[~implied] - A @ lo, free, lo, hi))
    nrows = sum(A.shape[0] + free.size for A, _, free, _, _ in parts) + 1
    ncols = sum(2 * free.size + A.shape[0] + 1 for A, _, free, _, _ in parts)
    E = np.zeros((nrows, ncols))
    L = np.zeros((m, ncols))
    nu = np.ones(nrows)
    blocks = []
    r = c = 0
    for A, rhs, free, lo, hi in parts:
        rows, f = A.shape[0], free.size
        ys, t = slice(c, c + f), c + 2 * f + rows
        E[r : r + rows, ys] = A
        E[r : r + rows, c + 2 * f : t] = np.eye(rows)
        E[r : r + rows, t] = -rhs
        E[r + rows : r + rows + f, ys] = np.eye(f)
        E[r + rows : r + rows + f, c + f : c + 2 * f] = np.eye(f)
        E[r + rows : r + rows + f, t] = -(hi - lo)[free]
        L[free, ys] = np.eye(f)
        L[:, t] = lo
        # small weights on the piece rows keep every column of E' nu
        # positive; the normalization row outweighs each theta column
        eps = 0.5 / (1.0 + float(np.max(np.abs(A), initial=0.0)) * rows)
        nu[r : r + rows] = eps
        nu[-1] += eps * float(np.abs(rhs).sum()) + float((hi - lo).sum())
        blocks.append(slice(c, t + 1))
        r += rows + f
        c = t + 1
    E[-1, [b.stop - 1 for b in blocks]] = 1.0
    e = np.zeros(nrows)
    e[-1] = 1.0
    return RegionEncoding(E=E, e=e, L=L, k=E.T @ nu, blocks=blocks)


def _member_solve(hull, x, eps, deadline=None):
    """Feasibility LP over the hull's encoding with |L v - x| <= eps.

    Returns (encoding, LPResult), or (encoding, None) without an LP when
    x lies more than eps below every piece's box in some coordinate.
    """
    enc = encode_region(hull)
    x = np.asarray(x, dtype=float)
    if x.shape != (enc.m,):
        raise ValueError(f"point must have dimension {enc.m}")
    if np.any(x + eps < np.min([lo for lo, _ in hull.boxes], axis=0)):
        return enc, None
    A = np.vstack([enc.E, -enc.E, enc.L, -enc.L])
    b = np.concatenate([enc.e, -enc.e, x + eps, eps - x])
    n = enc.nvars
    return enc, solve_lp(LinearProgram(np.zeros(n), A, b, np.zeros(n), np.full(n, np.inf)), deadline=deadline)


def hull_contains(hull, x, eps=FEAS_TOL):
    """Membership of x in the hull, up to eps in each coordinate."""
    _, res = _member_solve(hull, x, eps)
    return res is not None and res.status is LPStatus.OPTIMAL


def decompose(hull, x, deadline=None):
    """Write x as a convex combination of points of the pieces.

    Returns a list of (weight, point) pairs, one per piece with weight
    above the zero tolerance, weights renormalized to sum to one.
    Raises ValueError when x is not a member.  ``deadline`` bounds the LP.
    """
    enc, res = _member_solve(hull, x, FEAS_TOL, deadline)
    if res is None or res.status is not LPStatus.OPTIMAL:
        raise ValueError("point is not in the hull")
    v = res.x
    theta = np.array([v[b.stop - 1] for b in enc.blocks])
    keep = np.nonzero(theta > ZERO_TOL)[0]
    total = float(theta[keep].sum())
    return [(float(theta[k]) / total, enc.L[:, enc.blocks[k]] @ v[enc.blocks[k]] / theta[k]) for k in keep]
