"""Numeric primitives: tolerances, the player matrix, seeded RNG.

All linear algebra in the package runs in float64.  Dense vectors and
matrices are plain numpy arrays.  A player's coupling and constraint
rows are ``SparseMatrix`` values: immutable wrappers of one read-only
dense array, which take (row, col, value) triplets at the document
boundary and give them back in row-major order.
"""

import numpy as np

# Numeric thresholds used throughout the solvers.
FEAS_TOL = 1e-7  # constraint violation allowed when testing membership
COMPLEMENTARITY_TOL = 1e-7  # per-pair slack allowed in z'(Mz+q)
ZERO_TOL = 1e-9  # magnitude below which a weight is treated as exactly zero
INT_TOL = 1e-6  # a value this close to an integer counts as integral
PRUNE_TOL = 1e-9  # an objective within this of the best known one is no better
DEVIATION_EPS = 3e-4  # default payoff gain that counts as a profitable deviation


def seeded_rng(seed):
    """Deterministic generator: PCG64 stream fixed by the integer seed.

    Identical seeds produce identical streams on every platform, which is
    what makes the instance corpus reproducible.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


class SparseMatrix:
    """Immutable matrix held as one read-only float64 array.

    Built from (row, col, value) triplets, whose indexes must be
    integral and inside the declared shape, whose values must be finite
    and which hold at most one nonzero per (row, col); or from a dense
    array, which is copied.  ``entries()`` lists the nonzeros row-major,
    so two matrices with the same content serialize identically.
    """

    __slots__ = ("_array",)

    def __init__(self, nrows, ncols, entries=()):
        nrows = int(nrows)
        ncols = int(ncols)
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        entries = list(entries)
        rows, cols, vals = np.array(entries, dtype=float).reshape(len(entries), 3).T
        array = np.zeros((nrows, ncols))
        if rows.size:
            if np.any(rows % 1 != 0) or np.any(cols % 1 != 0):
                raise ValueError("row and col indexes must be integers")
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("col index out of range")
            if not np.isfinite(vals).all():
                raise ValueError("entries must be finite")
            keep = vals != 0.0
            rows, cols, vals = rows[keep].astype(np.int64), cols[keep].astype(np.int64), vals[keep]
            array[rows, cols] = vals
            if np.count_nonzero(array) != vals.size:
                raise ValueError("duplicate (row, col) entry")
        self._hold(array)

    def _hold(self, array):
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @property
    def shape(self):
        return self._array.shape

    @property
    def nrows(self):
        return self._array.shape[0]

    @property
    def ncols(self):
        return self._array.shape[1]

    @property
    def nnz(self):
        return int(np.count_nonzero(self._array))

    def entries(self):
        """The nonzeros as (row, col, value) tuples, row-major."""
        r, c = np.nonzero(self._array)
        return [(int(i), int(j), float(v)) for i, j, v in zip(r, c, self._array[r, c])]

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=float) + 0.0  # a copy, with no -0.0
        if dense.ndim != 2:
            raise ValueError("expected a 2-d array")
        if not np.isfinite(dense).all():
            raise ValueError("entries must be finite")
        matrix = object.__new__(cls)
        matrix._hold(dense)
        return matrix

    def to_dense(self):
        """The matrix's own array: read-only and shared, never a copy."""
        return self._array

    def matvec(self, x):
        """M @ x for a dense vector x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise ValueError(f"expected vector of length {self.ncols}, got {x.shape}")
        return self._array @ x

    def rmatvec(self, y):
        """M.T @ y for a dense vector y."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.nrows,):
            raise ValueError(f"expected vector of length {self.nrows}, got {y.shape}")
        return self._array.T @ y

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._array, other._array)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
