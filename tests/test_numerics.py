import inspect

import numpy as np
import pytest

from rbgames import (
    COMPLEMENTARITY_TOL,
    DEVIATION_EPS,
    FEAS_TOL,
    ZERO_TOL,
    SolverOptions,
    SparseMatrix,
    deviation_check,
    seeded_rng,
)
from rbgames.cli import build_parser


def test_default_tolerances():
    assert FEAS_TOL == 1e-7
    assert COMPLEMENTARITY_TOL == 1e-7
    assert DEVIATION_EPS == 3e-4
    assert ZERO_TOL == 1e-9
    # one deviation default for the library, the check and the CLI
    assert SolverOptions().deviation_eps == DEVIATION_EPS
    assert inspect.signature(deviation_check).parameters["eps"].default == DEVIATION_EPS
    assert build_parser().parse_args(["--instance", "x.json"]).tolerance == DEVIATION_EPS


def test_seeded_rng_is_reproducible():
    a = seeded_rng(123).integers(0, 1000, size=20)
    b = seeded_rng(123).integers(0, 1000, size=20)
    c = seeded_rng(124).integers(0, 1000, size=20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sparse_matrix_basics():
    m = SparseMatrix(2, 3, [(1, 2, 5.0), (0, 0, 1.0), (0, 2, -2.0)])
    assert m.shape == (2, 3)
    assert m.nnz == 3
    # entries come back row-major regardless of construction order
    assert m.entries() == [(0, 0, 1.0), (0, 2, -2.0), (1, 2, 5.0)]
    dense = m.to_dense()
    assert np.array_equal(dense, np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 5.0]]))


def test_sparse_matrix_drops_explicit_zeros():
    m = SparseMatrix(2, 2, [(0, 0, 0.0), (1, 1, 3.0)])
    assert m.nnz == 1


def test_sparse_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])  # duplicate
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1.0)])  # row out of range
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, -1, 1.0)])  # col out of range
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, np.inf)])  # non-finite
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 1), (1, 0), (1, 1)])  # pairs, not triplets


def test_sparse_matrix_stores_integer_indexes_and_float_values():
    for entries in ([], [(1, 0, 2), (0, 1, -1.5)]):
        m = SparseMatrix(2, 2, entries)
        assert m.to_dense().dtype == np.float64
        assert [tuple(map(type, e)) for e in m.entries()] == [(int, int, float)] * len(entries)


def test_sparse_matrix_rejects_non_integral_indexes():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0.5, 1.9, 3.0)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(1, np.nan, 3.0)])
    # an integral float is an index like any other
    assert SparseMatrix(2, 2, [(1.0, 0.0, 3.0)]).entries() == [(1, 0, 3.0)]


def test_sparse_matrix_dense_array_is_read_only_and_shared():
    m = SparseMatrix(2, 2, [(0, 1, 2.0)])
    assert m.to_dense() is m.to_dense()
    with pytest.raises(ValueError):
        m.to_dense()[0, 0] = 1.0
    # from_dense copies, so its input stays the caller's
    dense = np.array([[1.0, 0.0], [-0.0, 4.0]])
    m = SparseMatrix.from_dense(dense)
    dense[0, 0] = 7.0
    assert m.entries() == [(0, 0, 1.0), (1, 1, 4.0)]
    assert dense.flags.writeable


def test_sparse_matrix_is_immutable():
    m = SparseMatrix(1, 1, [(0, 0, 2.0)])
    with pytest.raises(AttributeError):
        m.nrows = 5


def test_sparse_matvec_matches_dense():
    rng = seeded_rng(7)
    for _ in range(25):
        nr = int(rng.integers(1, 6))
        nc = int(rng.integers(1, 6))
        dense = np.round(rng.normal(size=(nr, nc)) * 3)
        m = SparseMatrix.from_dense(dense)
        x = rng.normal(size=nc)
        y = rng.normal(size=nr)
        assert np.allclose(m.matvec(x), dense @ x)
        assert np.allclose(m.rmatvec(y), dense.T @ y)
        assert m == SparseMatrix.from_dense(dense)


def test_sparse_from_dense_round_trip():
    dense = np.array([[0.0, 2.0], [-1.0, 0.0]])
    m = SparseMatrix.from_dense(dense)
    assert m.nnz == 2
    assert np.array_equal(m.to_dense(), dense)
