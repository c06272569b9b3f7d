"""Numeric primitives: tolerances, triplet sparse matrices, seeded RNG.

All linear algebra in the package runs in float64.  Dense vectors and
matrices are plain numpy arrays; the only custom carrier is a canonical
triplet sparse matrix used for objective couplings and constraint rows.
"""

import numpy as np

# Numeric thresholds used throughout the solvers.
FEAS_TOL = 1e-7  # constraint violation allowed when testing membership
COMPLEMENTARITY_TOL = 1e-7  # per-pair slack allowed in z'(Mz+q)
ZERO_TOL = 1e-9  # magnitude below which a weight is treated as exactly zero
DEVIATION_EPS = 3e-4  # default payoff gain that counts as a profitable deviation


def seeded_rng(seed):
    """Deterministic generator: PCG64 stream fixed by the integer seed.

    Identical seeds produce identical streams on every platform, which is
    what makes the instance corpus reproducible.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


class SparseMatrix:
    """Immutable row-major triplet matrix.

    Invariants: at most one entry per (row, col), stored values are
    nonzero, and indexes lie inside the declared shape.  Construction
    sorts entries row-major and drops explicit zeros, so two matrices
    with the same content serialize identically.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals")

    def __init__(self, nrows, ncols, entries=()):
        nrows = int(nrows)
        ncols = int(ncols)
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        entries = list(entries)
        triplets = np.array(entries, dtype=float).reshape(len(entries), 3)
        rows = triplets[:, 0].astype(np.int64)
        cols = triplets[:, 1].astype(np.int64)
        vals = triplets[:, 2]
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("col index out of range")
            if not np.isfinite(vals).all():
                raise ValueError("entries must be finite")
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            keys = rows * ncols + cols
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate (row, col) entry")
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return int(self.vals.size)

    def entries(self):
        """Triplets as (row, col, value) tuples in canonical order."""
        return [(int(r), int(c), float(v)) for r, c, v in zip(self.rows, self.cols, self.vals)]

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2:
            raise ValueError("expected a 2-d array")
        r, c = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], zip(r, c, dense[r, c]))

    def to_dense(self):
        return triplet_dense(self.nrows, self.ncols, self.rows, self.cols, self.vals)

    def matvec(self, x):
        """M @ x for a dense vector x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise ValueError(f"expected vector of length {self.ncols}, got {x.shape}")
        out = np.zeros(self.nrows)
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out

    def rmatvec(self, y):
        """M.T @ y for a dense vector y."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.nrows,):
            raise ValueError(f"expected vector of length {self.nrows}, got {y.shape}")
        return triplet_rmatvec(self.ncols, self.rows, self.cols, self.vals, y)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def triplet_dense(nrows, ncols, rows, cols, vals):
    """The dense matrix of canonical triplets (see ``SparseMatrix``)."""
    out = np.zeros((nrows, ncols))
    out[rows, cols] = vals
    return out


def triplet_rmatvec(ncols, rows, cols, vals, y):
    """M.T @ y for canonical triplets of M, accumulated in triplet order."""
    out = np.zeros(ncols)
    np.add.at(out, cols, vals * y[rows])
    return out
