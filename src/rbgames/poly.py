"""Polyhedra and lifted convex hulls of unions.

The hull of a union of bounded polyhedra is kept in extended form: one
scaled copy of each piece plus convex multipliers, encoded over
nonnegative shifted variables by ``encode_region``.  That one encoding
serves the Nash LCP, membership and decomposition; no vertex or facet
enumeration happens anywhere.
"""

from dataclasses import dataclass

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

    def is_empty(self):
        n = self.dim
        res = solve_lp(LinearProgram(np.zeros(n), self.A, self.b, self.lb, self.ub))
        return res.status is LPStatus.INFEASIBLE

    def bounding_box(self):
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
                res = solve_lp(LinearProgram(c, self.A, self.b, self.lb, self.ub))
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


def convex_hull(pieces):
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
        if p.is_empty():
            continue
        kept.append(p)
        boxes.append(p.bounding_box())
    if not kept:
        raise EmptyUnion("every piece of the union is empty")
    return ExtendedHull(kept, boxes)


@dataclass(eq=False)
class RegionEncoding:
    """Region rewritten as { v >= 0 : G v <= h } with x = v[:m] + shift."""

    G: np.ndarray
    h: np.ndarray
    shift: np.ndarray
    nvars: int
    m: int


def encode_region(region):
    """Rewrite a Polyhedron or ExtendedHull over nonnegative variables.

    For a hull the variable block is (x, one scaled copy y_k per piece,
    convex multipliers theta_k), where a point x_k of piece k with box
    corner lo_k enters as y_k = theta_k (x_k - lo_k).  The first m
    variables always carry the shifted strategy point.
    """
    if isinstance(region, Polyhedron):
        lo, hi = region.bounding_box()
        m = region.dim
        G = np.vstack([region.A, np.eye(m)])
        h = np.concatenate([region.b - region.A @ lo, hi - lo])
        return RegionEncoding(G=G, h=h, shift=lo, nvars=m, m=m)

    if not isinstance(region, ExtendedHull):
        raise TypeError(f"cannot encode region of type {type(region).__name__}")
    m, K = region.dim, len(region.pieces)
    LB = np.min(np.array([lo for lo, _ in region.boxes]), axis=0)
    theta0 = m + K * m
    link0 = sum(p.nrows for p in region.pieces) + K * m
    G = np.zeros((link0 + 2 * m + 2, theta0 + K))
    h = np.zeros(link0 + 2 * m + 2)
    # linking  v[:m] + LB = sum_k (y_k + lo_k theta_k), both directions
    link = G[link0 : link0 + m]
    link[:, :m] = np.eye(m)
    r = 0
    for k, (piece, (lo, hi)) in enumerate(zip(region.pieces, region.boxes)):
        ys = slice(m + k * m, m + (k + 1) * m)
        t = theta0 + k
        # piece rows scaled by theta_k:  A_k y_k + (A_k lo_k - b_k) theta_k <= 0
        G[r : r + piece.nrows, ys] = piece.A
        G[r : r + piece.nrows, t] = [float(a @ lo - b) for a, b in zip(piece.A, piece.b)]
        r += piece.nrows
        # box rows:  y_k <= (hi_k - lo_k) theta_k
        G[r : r + m, ys] = np.eye(m)
        G[r : r + m, t] = -(hi - lo)
        r += m
        link[:, ys] = -np.eye(m)
        link[:, t] = -lo
    G[link0 + m : link0 + 2 * m] = -link
    h[link0 : link0 + m] = -LB
    h[link0 + m : link0 + 2 * m] = LB
    # convexity  sum theta = 1, both directions
    G[-2, theta0:] = 1.0
    G[-1] = -G[-2]
    h[-2:] = (1.0, -1.0)
    return RegionEncoding(G=G, h=h, shift=LB, nvars=theta0 + K, m=m)


def _boxed_solve(hull, x, eps):
    """Feasibility LP over the hull's encoding with v[:m] = x - shift +- eps.

    Returns (encoding, LPResult), or (encoding, None) without an LP when
    x lies more than eps below every piece's box in some coordinate.
    """
    enc = encode_region(hull)
    x = np.asarray(x, dtype=float)
    if x.shape != (enc.m,):
        raise ValueError(f"point must have dimension {enc.m}")
    if np.any(x - enc.shift + eps < 0.0):
        return enc, None
    lb, ub = np.zeros(enc.nvars), np.full(enc.nvars, np.inf)
    lb[: enc.m] = np.maximum(x - enc.shift - eps, 0.0)
    ub[: enc.m] = x - enc.shift + eps
    return enc, solve_lp(LinearProgram(np.zeros(enc.nvars), enc.G, enc.h, lb, ub))


def hull_contains(hull, x, eps=FEAS_TOL):
    """Membership of x in the hull, up to eps in each coordinate."""
    _, res = _boxed_solve(hull, x, eps)
    return res is not None and res.status is LPStatus.OPTIMAL


def decompose(hull, x):
    """Write x as a convex combination of points of the pieces.

    Returns a list of (weight, point) pairs, one per piece with weight
    above the zero tolerance, weights renormalized to sum to one.
    Raises ValueError when x is not a member.
    """
    enc, res = _boxed_solve(hull, x, FEAS_TOL)
    if res is None or res.status is not LPStatus.OPTIMAL:
        raise ValueError("point is not in the hull")
    m, K = enc.m, len(hull.pieces)
    y, theta = res.x[m : m + K * m].reshape(K, m), res.x[m + K * m :]
    keep = np.nonzero(theta > ZERO_TOL)[0]
    total = float(theta[keep].sum())
    return [(float(theta[k]) / total, y[k] / theta[k] + hull.boxes[k][0]) for k in keep]
