import numpy as np
import pytest

import rbgames.poly as poly_module

from rbgames import (
    EmptyUnion,
    LinearProgram,
    LPStatus,
    Polyhedron,
    convex_hull,
    decompose,
    hull_contains,
    seeded_rng,
    solve_lp,
)

from oracles import encode_region_reference, encoding_holds, in_convex_hull_of, lift_holds, polyhedron_vertices

_EPS = 1e-7


def _box(lb, ub, rows=None, rhs=None):
    n = len(lb)
    A = np.zeros((0, n)) if rows is None else np.asarray(rows, dtype=float)
    b = np.zeros(0) if rhs is None else np.asarray(rhs, dtype=float)
    return Polyhedron(A, b, np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))


def test_polyhedron_contains():
    relax = _box([0.0, 0.0], [1.0, 1.0], [[3.0, 4.0]], [5.0])
    assert relax.contains(np.array([1.0, 0.5]))
    assert relax.contains(np.array([1.0 / 3.0, 1.0]))
    assert not relax.contains(np.array([1.0, 1.0]))  # 3 + 4 > 5
    assert not relax.contains(np.array([-0.1, 0.0]))


def test_with_bound_and_with_rows():
    relax = _box([0.0, 0.0], [1.0, 1.0], [[3.0, 4.0]], [5.0])
    cut = relax.with_rows(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert cut.nrows == 2
    assert not cut.contains(np.array([1.0, 0.5]))


def test_emptiness():
    empty = _box([0.0], [1.0], [[1.0]], [-1.0])
    assert empty.is_empty()
    assert not _box([0.0], [1.0]).is_empty()


def test_bounding_box():
    # finite declared bounds pass through; infinite ones tighten by LP
    p = Polyhedron(np.array([[1.0, 1.0]]), np.array([1.0]),
                   np.array([0.0, 0.0]), np.array([np.inf, 10.0]))
    lo, hi = p.bounding_box()
    assert np.allclose(lo, [0.0, 0.0], atol=1e-7)
    assert np.allclose(hi, [1.0, 10.0], atol=1e-7)


def test_hull_of_branch_pieces():
    # binary split of the knapsack relaxation on x2: the union keeps the
    # two integral slices, whose hull is conv{(0,0),(1,0),(0,1),(1/3,1)}
    down = _box([0.0, 0.0], [1.0, 0.0], [[3.0, 4.0]], [5.0])
    up = _box([0.0, 1.0], [1.0, 1.0], [[3.0, 4.0]], [5.0])
    hull = convex_hull([down, up])
    assert len(hull.pieces) == 2
    assert hull_contains(hull, np.array([0.5, 0.5]))
    assert hull_contains(hull, np.array([2.0 / 9.0, 7.0 / 9.0]))
    assert hull_contains(hull, np.array([1.0 / 3.0, 1.0]))  # vertex of the x2 = 1 slice
    assert not hull_contains(hull, np.array([1.0, 0.5]))  # right edge ends at (1, 0)
    assert not hull_contains(hull, np.array([0.9, 0.9]))


def test_hull_flattens_and_drops_empty_pieces():
    a = _box([0.0], [1.0])
    dead = _box([0.0], [1.0], [[1.0]], [-2.0])
    inner = convex_hull([a])
    hull = convex_hull([inner, dead])
    assert len(hull.pieces) == 1
    with pytest.raises(EmptyUnion):
        convex_hull([dead])
    with pytest.raises(EmptyUnion):
        convex_hull([])


def test_decompose_contract():
    down = _box([0.0, 0.0], [1.0, 0.0], [[3.0, 4.0]], [5.0])
    up = _box([0.0, 1.0], [1.0, 1.0], [[3.0, 4.0]], [5.0])
    hull = convex_hull([down, up])
    x = np.array([2.0 / 9.0, 7.0 / 9.0])
    parts = decompose(hull, x)
    assert 1 <= len(parts) <= 2
    total = sum(w for w, _ in parts)
    assert abs(total - 1.0) < 1e-9
    recon = sum(w * p for w, p in parts)
    assert np.allclose(recon, x, atol=1e-6)
    for w, p in parts:
        assert w > 0
        assert any(piece.contains(p, eps=1e-6) for piece in hull.pieces)
    with pytest.raises(ValueError):
        decompose(hull, np.array([1.0, 0.5]))


def test_single_piece_hull_equals_the_piece():
    relax = _box([0.0, 0.0], [1.0, 1.0], [[3.0, 4.0]], [5.0])
    hull = convex_hull([relax])
    rng = seeded_rng(5)
    for _ in range(50):
        x = rng.random(2) * 1.2 - 0.1
        assert hull_contains(hull, x) == relax.contains(x), x


def test_hull_matches_vertex_combination_oracle():
    # low-dimensional random unions checked against brute-force vertex
    # enumeration plus a reference convex-combination LP
    rng = seeded_rng(31)
    agreements = 0
    for trial in range(40):
        n = int(rng.integers(1, 4))
        npieces = int(rng.integers(1, 4))
        pieces, all_vertices = [], []
        for _ in range(npieces):
            lo = np.round(rng.random(n) * 2 - 1, 1)
            hi = lo + np.round(rng.random(n) * 2 + 0.2, 1)
            k = int(rng.integers(0, 3))
            A = np.round(rng.normal(size=(k, n)), 1)
            center = (lo + hi) / 2
            b = A @ center + np.round(rng.random(k) * 1.5 + 0.1, 1)
            piece = Polyhedron(A, b, lo, hi)
            if piece.is_empty():
                continue
            pieces.append(piece)
            all_vertices.extend(polyhedron_vertices(piece))
        if not pieces:
            continue
        hull = convex_hull(pieces)
        verts = np.array(all_vertices)
        for _ in range(8):
            if rng.random() < 0.5 and len(verts) >= 2:
                w = rng.random(len(verts))
                x = (w / w.sum()) @ verts  # guaranteed member
            else:
                x = rng.normal(size=n) * 1.5
            ours = hull_contains(hull, x)
            ref = in_convex_hull_of(verts, x)
            assert ours == ref, (trial, x)
            agreements += 1
    assert agreements >= 200


def test_hull_requires_bounded_pieces():
    open_piece = _box([0.0], [np.inf])
    with pytest.raises(ValueError):
        convex_hull([open_piece])


def test_hull_encoding_matches_vertex_enumeration():
    # the strategies x = L w of the lifted hull are exactly the convex
    # hull of the pieces' vertices, zero-row pieces included, and the
    # first piece's own encoding gives exactly that piece
    rng = seeded_rng(47)
    zero_row_pieces = members = piece_members = 0
    for trial in range(60):
        n = int(rng.integers(1, 4))
        pieces = []
        for _ in range(int(rng.integers(1, 4))):
            lo = np.round(rng.random(n) * 4 - 3, 2)
            hi = lo + np.round(rng.random(n) * 2 + 0.1, 2)
            k = int(rng.integers(0, 3))
            A = np.round(rng.normal(size=(k, n)), 1)
            b = A @ ((lo + hi) / 2) + np.round(rng.random(k) + 0.1, 1)
            pieces.append(Polyhedron(A, b, lo, hi))
            zero_row_pieces += k == 0
        hull = convex_hull(pieces)
        lift = poly_module._lift(hull)
        assert lift[2].shape[0] == n, trial
        verts = [polyhedron_vertices(p) for p in hull.pieces]
        every = np.vstack(verts)
        lo = every.min(axis=0) - 0.5
        span = every.max(axis=0) + 0.5 - lo
        for x in np.vstack([every, lo + rng.random((6, n)) * span]):
            member = lift_holds(lift, x)[0]
            assert member == in_convex_hull_of(every, x), (trial, x)
            members += member
            inside = encoding_holds(encode_region_reference(hull.pieces[0]), x)[0]
            assert inside == hull.pieces[0].contains(x), (trial, x)
            piece_members += inside
    assert zero_row_pieces >= 20 and members >= 200 and piece_members >= 100, (members, piece_members)


def test_membership_and_decomposition_on_shifted_pieces(monkeypatch):
    left = _box([-3.0, -2.0], [-1.0, 0.0], [[1.0, 1.0]], [-2.0])  # x1 + x2 <= -2
    right = _box([1.0, -1.0], [2.0, 1.0])
    hull = convex_hull([left, right])
    mid = np.array([-0.5, -0.5])  # halfway from (-3, -2) to (2, 1)
    assert hull_contains(hull, mid)
    parts = decompose(hull, mid)
    assert len(parts) == 2
    assert abs(sum(w for w, _ in parts) - 1.0) < 1e-9
    assert np.allclose(sum(w * p for w, p in parts), mid, atol=1e-6)
    for (w, p), piece in zip(parts, (left, right)):
        assert w > 0 and piece.contains(p, eps=1e-6)
    # the upper edge runs from (-3, 0) to (1, 1), through (-1, 0.5)
    assert hull_contains(hull, np.array([-1.0, 0.45]))
    assert not hull_contains(hull, np.array([-1.0, 0.55]))
    # within eps of the lowest box in the shifted coordinate
    assert hull_contains(hull, np.array([-3.0 - 5e-8, -0.5]))
    # below every box in x1: answered without an LP
    monkeypatch.setattr(poly_module, "solve_lp", None)
    below = np.array([-3.5, -0.5])
    assert not hull_contains(hull, below)
    with pytest.raises(ValueError):
        decompose(hull, below)


def _random_polyhedron(rng):
    """A small seeded polyhedron; some have infinite lower bounds, no
    rows, a lower corner exactly on a row, or are branched or cut."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 5))
    lb = rng.integers(-2, 2, n).astype(float)
    ub = lb + rng.integers(0, 3, n)
    kind = int(rng.integers(0, 6))
    if kind == 0:
        lb[rng.random(n) < 0.5] = -np.inf
        ub[rng.random(n) < 0.3] = np.inf
    A = rng.integers(-3, 4, (m, n)).astype(float)
    b = rng.integers(-4, 6, m).astype(float)
    if kind == 1 and m:
        b[0] = A[0] @ lb  # the corner sits exactly on row 0
    if kind == 2:  # one branch of a split on variable j
        j = int(rng.integers(n))
        split = np.floor((lb[j] + ub[j]) / 2.0)
        if rng.random() < 0.5:
            lb[j] = max(lb[j], split + 1)
        else:
            ub[j] = min(ub[j], split)
        if lb[j] > ub[j]:
            return None
    p = Polyhedron(A, b, lb, ub)
    if kind == 3:
        p = p.with_rows(rng.integers(-2, 3, (2, n)), rng.integers(-2, 4, 2))
    return p


def test_emptiness_matches_the_zero_cost_lp():
    rng = seeded_rng(11)
    tried = empty = corner = 0
    while tried < 2400:
        p = _random_polyhedron(rng)
        if p is None:  # the branch crossed the bounds
            continue
        tried += 1
        want = solve_lp(LinearProgram(np.zeros(p.dim), p.A, p.b, p.lb, p.ub)).status is LPStatus.INFEASIBLE
        assert p.is_empty() == want, (p.A, p.b, p.lb, p.ub)
        empty += want
        corner += bool(np.all(np.isfinite(p.lb)) and np.all(p.A @ p.lb <= p.b))
    # the LP-free answer, LP-decided nonempty and empty sets all occur
    assert 0 < corner < tried - empty and empty > 100, (tried, empty, corner)


def test_emptiness_at_a_feasible_corner_runs_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp was called")

    monkeypatch.setattr(poly_module, "solve_lp", no_lp)
    relax = _box([0.0, 0.0], [1.0, 1.0], [[3.0, 4.0]], [5.0])
    assert not relax.is_empty()
    assert not relax.with_rows(np.array([[1.0, 1.0]]), np.array([0.0])).is_empty()  # corner on the cut
    assert not _box([1.0], [2.0]).is_empty()  # no rows
    assert len(convex_hull([relax, _box([0.0, 0.0], [0.0, 1.0], [[3.0, 4.0]], [5.0])]).pieces) == 2
